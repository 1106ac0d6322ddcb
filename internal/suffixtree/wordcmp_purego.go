//go:build purego

package suffixtree

// commonPrefixLen under the purego tag avoids unsafe entirely; descent
// correctness is identical, only the bytes-per-cycle differ.
func commonPrefixLen(a, b []byte) int { return commonPrefixLenGeneric(a, b) }

// findSym under the purego tag is the binary search over the sorted run.
func findSym(sym []byte, cs, cc int32, b byte) int32 {
	return findSymGeneric(sym, cs, cc, b)
}

// leafView under the purego tag views nothing: the leaf section is always
// an encoded copy (leafSection).
func leafView([]int32) []byte { return nil }
