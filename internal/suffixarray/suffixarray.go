// Package suffixarray builds suffix arrays with the SA-IS induced-sorting
// algorithm and longest-common-prefix arrays with the Φ form of Kasai's
// algorithm, in text order (PLCP) or gathered into rank order (LCP).
//
// It is the construction kernel of era's in-memory builder, of lcs and of the
// live index's lrs / topk (one suffix order per snapshot), the substrate for
// the B²ST baseline (which sorts partitions into suffix arrays + LCP arrays
// and merges them, per Barsky et al. CIKM'09 as summarized in §3 of the ERA
// paper) and the ground truth for the lexicographic leaf order of every suffix
// tree builder.
//
// The input must end with a terminator byte that is strictly smaller than
// every other symbol (package alphabet guarantees '$' ranks below all
// alphabet symbols), which is the sentinel SA-IS requires.
//
// Beyond the text, Build allocates the suffix array itself, one LMS bit per
// symbol of each recursion level, and a level's two bucket arrays where the
// output has no room to lend them — the reduced string and its suffix array
// live inside the output. PLCP allocates its result, one int32 per symbol,
// and LCP one more for the rank-order gather: at 1 Mi symbols Build + PLCP
// allocates 8.2 to 9.2 bytes per symbol and Build + LCP 12.2 to 13.2
// (TestAllocationPerSymbol).
package suffixarray

import (
	"fmt"
	"math"
	"math/bits"
)

// Build returns the suffix array of s: sa[k] is the start offset of the
// k-th smallest suffix. s must be terminated (unique smallest last byte).
// Runs in O(n) time and O(n) extra space.
func Build(s []byte) ([]int32, error) {
	if err := checkTerminated(s); err != nil {
		return nil, err
	}
	sa := make([]int32, len(s))
	sais(s, sa, 256, nil)
	return sa, nil
}

// BuildInto is Build writing the suffix array into sa, which must hold
// exactly len(s) entries: memory the caller owns, such as the leaf section
// of a mapped image.
func BuildInto(s []byte, sa []int32) error {
	if err := checkTerminated(s); err != nil {
		return err
	}
	if len(sa) != len(s) {
		return fmt.Errorf("suffixarray: %d entries for the suffix array of %d bytes", len(sa), len(s))
	}
	sais(s, sa, 256, nil)
	return nil
}

// checkTerminated reports why s cannot be sorted, if it cannot.
func checkTerminated(s []byte) error {
	n := len(s)
	if n == 0 {
		return fmt.Errorf("suffixarray: empty string")
	}
	if n > math.MaxInt32 {
		return fmt.Errorf("suffixarray: %d bytes exceed the int32 offsets of the result", n)
	}
	last := s[n-1]
	for i, c := range s[:n-1] {
		if c <= last {
			return fmt.Errorf("suffixarray: byte %q at %d does not rank above terminator %q", c, i, last)
		}
	}
	return nil
}

// bitset marks the LMS positions of one level: the S-type suffixes (smaller
// than their right neighbour) that follow an L-type one.
type bitset []uint64

func (b bitset) set(i int)      { b[i>>6] |= 1 << (uint(i) & 63) }
func (b bitset) get(i int) bool { return b[i>>6]>>(uint(i)&63)&1 != 0 }

// sais computes the suffix array of s (symbols in [0, k), s[n-1] the unique
// smallest) into sa, which has len(s) entries. The top level runs over the
// bytes themselves; every deeper level over a reduced string of int32 names
// that occupies the tail of the caller's sa while its suffix array occupies
// the head, and free is what the caller's sa has left between the two: a
// level's buckets when it can hold them.
func sais[T byte | int32](s []T, sa []int32, k int, free []int32) {
	n := len(s)
	if n <= 2 {
		// The terminator sorts first.
		for i := range sa {
			sa[i] = int32(n - 1 - i)
		}
		return
	}

	// count is the bucket sizes, computed once; ptr the bucket heads or
	// tails the pass at hand advances.
	if len(free) < 2*k {
		free = make([]int32, 2*k)
	}
	count, ptr := free[:k], free[k:2*k]
	clear(count)
	lms := make(bitset, (n+63)/64)
	n1 := 0
	count[s[n-1]]++
	for i, sType := n-2, true; i >= 0; i-- { // s[n-2] is L-type, which marks the sentinel
		count[s[i]]++
		if s[i] < s[i+1] || (s[i] == s[i+1] && sType) {
			sType = true
		} else if sType {
			lms.set(i + 1)
			n1++
			sType = false
		}
	}

	// Step 1: LMS suffixes go to their bucket tails in text order, and
	// inducing from them sorts the LMS substrings. 0 marks an empty slot:
	// suffix 0 is never LMS and induces nothing.
	clear(sa)
	tails(count, ptr)
	lms.each(func(i int) {
		c := s[i]
		ptr[c]--
		sa[ptr[c]] = int32(i)
	})
	induce(s, sa, count, ptr)

	// Step 2: the sorted LMS substrings move to sa[:n1] and are named in that
	// order; the name (plus one) of the substring at j waits in sa[n1+j/2] —
	// LMS positions are at least two apart and n1 ≤ n/2, so the slots are
	// distinct and clear of the head — and sliding the names right leaves the
	// reduced string, in text order, in sa[n-n1:].
	m := 0
	for _, j := range sa {
		if lms.get(int(j)) {
			sa[m] = j
			m++
		}
	}
	clear(sa[n1:])
	names, prev := 0, -1
	for _, j := range sa[:n1] {
		if prev < 0 || !lmsEqual(s, lms, prev, int(j)) {
			names++
		}
		sa[n1+int(j)>>1] = int32(names)
		prev = int(j)
	}
	for i, j := n-1, n-1; i >= n1; i-- {
		if v := sa[i]; v > 0 {
			sa[j] = v - 1
			j--
		}
	}
	s1, sa1 := sa[n-n1:], sa[:n1]

	// Step 3: the reduced string's suffix array, by recursion unless every
	// name is already distinct.
	if names < n1 {
		sais(s1, sa1, names, sa[n1:n-n1])
	} else {
		for i, c := range s1 {
			sa1[c] = int32(i)
		}
	}

	// Step 4: ranks become LMS positions again, the sorted LMS suffixes go to
	// their bucket tails (right to left, so a slot is never overwritten before
	// it is read) and the final induce places everything else.
	j := 0
	lms.each(func(i int) {
		s1[j] = int32(i)
		j++
	})
	for i, r := range sa1 {
		sa1[i] = s1[r]
	}
	clear(sa[n1:])
	tails(count, ptr)
	for i := n1 - 1; i >= 0; i-- {
		j := sa[i]
		sa[i] = 0
		c := s[j]
		ptr[c]--
		sa[ptr[c]] = j
	}
	induce(s, sa, count, ptr)
}

// each calls fn with every marked position, ascending.
func (b bitset) each(fn func(i int)) {
	for w, m := range b {
		for ; m != 0; m &= m - 1 {
			fn(w<<6 + bits.TrailingZeros64(m))
		}
	}
}

// heads sets ptr to the first slot of every bucket.
func heads(count, ptr []int32) {
	var sum int32
	for c, n := range count {
		ptr[c] = sum
		sum += n
	}
}

// tails sets ptr to one past the last slot of every bucket.
func tails(count, ptr []int32) {
	var sum int32
	for c, n := range count {
		sum += n
		ptr[c] = sum
	}
}

// induce performs the two induced-sorting passes given LMS seeds in sa:
// L-type suffixes from the left into their bucket heads, then S-type ones
// from the right into the tails (over the seeds). Neither pass looks a type
// up. Going right, every entry met is a seed or an L-type suffix, so the
// suffix before it is L-type exactly when its first symbol is not smaller.
// Going left, an equal first symbol leaves the type to the entry met, which
// is S-type exactly when it sits in the part of its bucket the pass has
// already filled, at or behind the bucket's tail pointer.
func induce[T byte | int32](s []T, sa []int32, count, ptr []int32) {
	heads(count, ptr)
	for i := 0; i < len(sa); i++ {
		j := int(sa[i]) - 1
		if j >= 0 && s[j] >= s[j+1] {
			c := s[j]
			sa[ptr[c]] = int32(j)
			ptr[c]++
		}
	}
	tails(count, ptr)
	for i := len(sa) - 1; i >= 0; i-- {
		j := int(sa[i]) - 1
		if j < 0 {
			continue
		}
		if c := s[j]; c < s[j+1] || (c == s[j+1] && int(ptr[c]) <= i) {
			ptr[c]--
			sa[ptr[c]] = int32(j)
		}
	}
}

// lmsEqual compares the LMS substrings starting at LMS positions a ≠ b, up
// to and including the LMS position that ends them. The unique sentinel ends
// the comparison before either index leaves the string.
func lmsEqual[T byte | int32](s []T, lms bitset, a, b int) bool {
	for d := 0; ; d++ {
		if s[a+d] != s[b+d] {
			return false
		}
		if d > 0 {
			if ea, eb := lms.get(a+d), lms.get(b+d); ea || eb {
				return ea && eb
			}
		}
	}
}

// LCP computes the longest-common-prefix array: lcp[k] is the length of the
// common prefix of the suffixes at sa[k-1] and sa[k]; lcp[0] is 0. It is
// PLCP gathered into rank order, for consumers that read the array more than
// once or in rank order without sa at hand.
func LCP(s []byte, sa []int32) []int32 {
	plcp := PLCP(s, sa)
	lcp := make([]int32, len(plcp))
	for k, p := range sa {
		lcp[k] = plcp[p]
	}
	return lcp
}

// PLCP computes the permuted longest-common-prefix array (Kärkkäinen,
// Manzini & Puglisi, CPM 2009): plcp[i] is the length of the common prefix
// of suffix i with its predecessor in suffix order, 0 for the smallest
// suffix, so plcp[sa[k]] is LCP's lcp[k]. Runs in O(n): Kasai's invariant
// (dropping the first symbol of a suffix loses at most one symbol of its LCP
// with its predecessor) walked in text order over Φ — each suffix's
// predecessor in sa — so the only random reads are the symbol comparisons,
// and the LCPs overwrite Φ in its own array.
func PLCP(s []byte, sa []int32) []int32 {
	n := len(s)
	if n == 0 {
		return nil
	}
	phi := make([]int32, n)
	phi[sa[0]] = -1
	for k := 1; k < n; k++ {
		phi[sa[k]] = sa[k-1]
	}
	h := 0
	for i := range phi {
		j := int(phi[i])
		if j < 0 {
			phi[i], h = 0, 0
			continue
		}
		for i+h < n && j+h < n && s[i+h] == s[j+h] {
			h++
		}
		phi[i] = int32(h)
		if h > 0 {
			h--
		}
	}
	return phi
}
