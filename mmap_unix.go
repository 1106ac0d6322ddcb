//go:build linux || darwin

package era

import (
	"fmt"
	"os"
	"syscall"
)

// mapping is a read-only view of an index file. On Linux and Darwin it is a
// real mmap: opening costs O(1) regardless of file size, pages fault in on
// first touch, and every process serving the same file shares one page-cache
// copy. Close unmaps; the caller owns the lifecycle (see Index.Close — an
// engine must not unmap while queries may still be reading).
type mapping struct {
	b      []byte
	mapped bool
}

// openMapping maps path read-only. The suffix tree descent touches nodes in
// an essentially random order, so on Linux the mapping is advised
// MADV_RANDOM up front (adviseRandom); the sequential reads (the string, a
// window of the suffix array) are still read-ahead-friendly once resident.
func openMapping(path string) (*mapping, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := st.Size()
	if size == 0 {
		return nil, fmt.Errorf("era: %s is empty", path)
	}
	if size != int64(int(size)) {
		return nil, fmt.Errorf("era: %s is too large to map", path)
	}
	b, err := syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		return nil, fmt.Errorf("era: mmap %s: %w", path, err)
	}
	adviseRandom(b)
	return &mapping{b: b, mapped: true}, nil
}

func (m *mapping) bytes() []byte { return m.b }

// size returns the mapped (or loaded) byte count.
func (m *mapping) size() int64 { return int64(len(m.b)) }

// Close releases the mapping. Idempotent. After Close every view handed out
// from bytes() is invalid; callers must ensure no concurrent readers remain.
func (m *mapping) Close() error {
	if m == nil || m.b == nil {
		return nil
	}
	b := m.b
	m.b = nil
	if !m.mapped {
		return nil
	}
	return syscall.Munmap(b)
}
