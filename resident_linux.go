//go:build linux

package era

import (
	"os"
	"syscall"
	"unsafe"
)

// residentBytes reports how many bytes of b are currently resident in
// physical memory (mincore), or -1 when it cannot tell. The /metricz
// endpoint surfaces this next to the mapped size, so operators can see how
// much of an index the page cache actually holds.
func residentBytes(b []byte) int64 {
	if len(b) == 0 {
		return 0
	}
	page := os.Getpagesize()
	pages := (len(b) + page - 1) / page
	vec := make([]byte, pages)
	_, _, errno := syscall.Syscall(syscall.SYS_MINCORE,
		uintptr(unsafe.Pointer(&b[0])), uintptr(len(b)), uintptr(unsafe.Pointer(&vec[0])))
	if errno != 0 {
		return -1
	}
	var resident int64
	for _, v := range vec {
		if v&1 != 0 {
			resident += int64(page)
		}
	}
	if resident > int64(len(b)) {
		resident = int64(len(b))
	}
	return resident
}

// adviseRandom advises the mapping b MADV_RANDOM. Advisory only — failure
// (e.g. an exotic filesystem) costs nothing.
func adviseRandom(b []byte) {
	_ = syscall.Madvise(b, syscall.MADV_RANDOM)
}
