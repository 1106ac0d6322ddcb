//go:build !purego

package suffixtree

import (
	"math/bits"
	"unsafe"
)

// hostLE reports whether the host stores integers little-endian. The raw
// word loads below locate the mismatching byte with a trailing-zero count,
// which only maps to byte indexes in little-endian layout; big-endian hosts
// take the generic scan (as does the purego build tag).
var hostLE = func() bool {
	x := uint16(1)
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// commonPrefixLen returns the length of the longest common prefix of a and
// b, comparing 8 bytes per step: two unaligned word loads, one XOR, and a
// trailing-zero count masking off the already-matched low bytes. The loads
// never touch memory past either slice's length — the sub-word tail is
// re-read as one overlapping load of the final 8 bytes (whose low bytes are
// already known equal, so they cannot fake a mismatch), and inputs shorter
// than a word fall back to the byte scan. That discipline makes slices
// windowed out of a memory mapping safe even on the mapping's last page.
func commonPrefixLen(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	if n < 8 || !hostLE {
		return commonPrefixLenGeneric(a[:n], b[:n])
	}
	i := 0
	for ; i+8 <= n; i += 8 {
		x := le64(a, i) ^ le64(b, i)
		if x != 0 {
			return i + bits.TrailingZeros64(x)>>3
		}
	}
	if i == n {
		return n
	}
	// Tail of 1..7 bytes: overlapping load of the last full word. Bytes
	// below i already compared equal, so their XOR lanes are zero and the
	// first set byte, if any, is at index ≥ i.
	x := le64(a, n-8) ^ le64(b, n-8)
	if x != 0 {
		return n - 8 + bits.TrailingZeros64(x)>>3
	}
	return n
}

// le64 loads 8 bytes from s at i as a little-endian word; the caller
// guarantees i+8 ≤ len(s).
func le64(s []byte, i int) uint64 {
	return *(*uint64)(unsafe.Pointer(&s[i]))
}

const (
	swarOnes  = 0x0101010101010101
	swarHighs = 0x8080808080808080
)

// matchMask returns a word whose high bit is set in every lane of w equal to
// b. Lanes above the first match can carry spurious flags (the borrow of the
// zero-detect trick propagates upward), so only the lowest set flag is
// trustworthy — which is all findSym reads, and child-symbol runs hold
// distinct bytes so the first match is the only one.
func matchMask(w uint64, b byte) uint64 {
	x := w ^ (swarOnes * uint64(b))
	return (x - swarOnes) &^ x & swarHighs
}

// findSym locates b in the child-symbol run sym[cs:cs+cc], returning its
// offset within the run or -1. Where the generic version binary-searches —
// log₂(cc) data-dependent branches, most of them mispredicted — this one
// compares 8 run bytes per step with one load and a handful of ALU ops. A
// sub-word tail is re-read as one overlapping load whose out-of-run lanes
// are masked off, so loads stay inside the sym section (mmap-safe); runs in
// a section shorter than a word fall back to the generic search. The caller
// guarantees 0 ≤ cs and cs+cc ≤ len(sym).
func findSym(sym []byte, cs, cc int32, b byte) int32 {
	if !hostLE || len(sym) < 8 {
		return findSymGeneric(sym, cs, cc, b)
	}
	i, end := int(cs), int(cs+cc)
	for ; i+8 <= end; i += 8 {
		if m := matchMask(le64(sym, i), b); m != 0 {
			return int32(i + bits.TrailingZeros64(m)>>3 - int(cs))
		}
	}
	if i == end {
		return -1
	}
	// Tail of 1..7 run bytes: one overlapping load ending at the run's last
	// byte (or starting at the section's first, for runs near offset 0). The
	// lanes outside [i, end) are poisoned to 0xFF *before* the zero-detect
	// arithmetic — filtering flags afterwards would not be enough, because an
	// out-of-run byte equal to b is a zero lane whose borrow can fake a match
	// flag on an in-run lane that differs from b by one bit. A 0xFF lane can
	// neither match nor originate or propagate a borrow.
	base := end - 8
	if base < 0 {
		base = 0
	}
	x := le64(sym, base) ^ (swarOnes * uint64(b))
	if lo := uint(i-base) * 8; lo != 0 {
		x |= ^(^uint64(0) << lo)
	}
	if hi := uint(end-base) * 8; hi != 64 {
		x |= ^uint64(0) << hi
	}
	m := (x - swarOnes) &^ x & swarHighs
	if m == 0 {
		return -1
	}
	return int32(base + bits.TrailingZeros64(m)>>3 - int(cs))
}

// leafView returns the little-endian bytes of sa's entries as a view of its
// own memory — capacity included, so a window of one array is visibly a
// window of it — or nil on a big-endian host, where the bytes differ.
func leafView(sa []int32) []byte {
	if !hostLE || cap(sa) == 0 {
		return nil
	}
	all := unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(sa))), flatLeafSize*cap(sa))
	return all[:flatLeafSize*len(sa)]
}
