package suffixtree

// commonPrefixLenGeneric is the portable byte-at-a-time common-prefix scan:
// the reference implementation the word-parallel fast path is tested
// against, and the whole implementation under the purego build tag (or on
// big-endian hosts, where the word trick's byte indexing does not hold).
func commonPrefixLenGeneric(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	i := 0
	for i < n && a[i] == b[i] {
		i++
	}
	return i
}

// findSymGeneric locates b in the sorted child-symbol run sym[cs:cs+cc] by
// binary search, returning its offset within the run or -1. It is the
// reference for the word-parallel findSym and the implementation under the
// purego build tag. The caller guarantees 0 ≤ cs and cs+cc ≤ len(sym).
func findSymGeneric(sym []byte, cs, cc int32, b byte) int32 {
	run := sym[cs : cs+cc]
	if j := symRank(run, b); int(j) < len(run) && run[j] == b {
		return j
	}
	return -1
}

// symRank returns how many bytes of the sorted run are below b: where b is,
// or would be, in it.
func symRank(run []byte, b byte) int32 {
	lo, hi := 0, len(run)
	for lo < hi {
		mid := (lo + hi) / 2
		if run[mid] < b {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return int32(lo)
}
