//go:build !linux

package era

// residentBytes is unavailable off Linux; -1 means "unknown" to /metricz.
func residentBytes(b []byte) int64 {
	if len(b) == 0 {
		return 0
	}
	return -1
}

// adviseRandom is Linux-only; elsewhere the mapping keeps the default advice.
func adviseRandom([]byte) {}
