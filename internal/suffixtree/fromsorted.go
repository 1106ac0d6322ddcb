package suffixtree

import (
	"fmt"

	"era/internal/seq"
)

// FromSortedSuffixes builds the compacted trie over the suffixes listed in
// sorted (lexicographic) order with their pairwise longest-common-prefix
// lengths: lcp[i] is the LCP of suffixes sorted[i-1] and sorted[i]
// (lcp[0] is ignored).
//
// This is the stack-based batch construction at the heart of the paper's
// Algorithm BuildSubTree (§4.2.2) and also exactly what B²ST does after
// merging partition suffix arrays: one left-to-right pass, each new leaf
// either hangs off a node on the rightmost path or splits the edge where the
// LCP lands. Memory access is sequential — no top-down traversals.
//
// If the list covers all suffixes of S the result is the full suffix tree;
// if it covers the occurrences of one S-prefix the result is that sub-tree
// (root with a single outgoing edge).
func FromSortedSuffixes(s seq.String, sorted []int32, lcp []int32) (*Tree, error) {
	if len(sorted) == 0 {
		return nil, fmt.Errorf("suffixtree: no suffixes")
	}
	if len(lcp) != len(sorted) {
		return nil, fmt.Errorf("suffixtree: %d suffixes but %d lcp entries", len(sorted), len(lcp))
	}
	t := New(s)
	n := int32(s.Len())

	// Stack of edges (node ids) on the rightmost path; depth is the string
	// depth at the bottom of the stack top's edge.
	stack := make([]int32, 0, 64)
	first := t.NewNode(sorted[0], n, sorted[0])
	t.AttachLast(t.Root(), first)
	stack = append(stack, first)
	depth := n - sorted[0]

	for i := 1; i < len(sorted); i++ {
		offset := lcp[i]
		if offset >= n-sorted[i] {
			return nil, fmt.Errorf("suffixtree: lcp %d ≥ suffix length %d at entry %d (suffixes not distinct?)", offset, n-sorted[i], i)
		}
		// Pop edges until the attach depth is at or above the stack top.
		var se int32 = None
		for depth > offset {
			if len(stack) == 0 {
				return nil, fmt.Errorf("suffixtree: lcp %d at entry %d underruns the rightmost path", offset, i)
			}
			se = stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			depth -= t.EdgeLen(se)
		}
		var u int32
		if depth == offset {
			// Branch at an existing node: the parent of the last popped
			// edge (or the root when nothing was popped, offset == 0).
			if se == None {
				u = t.Root()
			} else {
				u = t.Parent(se)
			}
		} else {
			// The branch point lies inside edge se: split it.
			m := t.SplitEdge(se, offset-depth)
			u = m
			stack = append(stack, m)
			depth += t.EdgeLen(m)
		}
		leaf := t.NewNode(sorted[i]+offset, n, sorted[i])
		// Suffixes arrive in lexicographic order, so the new leaf always
		// ranks after u's existing children.
		t.AttachLast(u, leaf)
		stack = append(stack, leaf)
		depth = offset + t.EdgeLen(leaf)
	}
	return t, nil
}
