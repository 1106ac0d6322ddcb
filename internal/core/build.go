package core

import (
	"fmt"

	"era/internal/seq"
	"era/internal/sim"
	"era/internal/suffixtree"
)

// BuildSubTree is Algorithm BuildSubTree (§4.2.2): it materializes the
// suffix sub-tree from the L and LCP arrays produced by SubTreePrepare in
// one left-to-right batch pass with a stack — sequential memory access, no
// top-down traversals (the decoupling that gives ERa-str+mem its edge over
// ERa-str, Fig. 7).
//
// The sub-tree hangs below a fresh root whose single outgoing edge starts
// with the S-prefix, so an LCP shorter than the prefix is refused. The
// builds themselves finish a sub-tree with countSubTreeNodes, which this is
// the oracle of.
func BuildSubTree(view seq.String, clock *sim.Clock, model sim.CostModel, p Prepared) (*suffixtree.Tree, error) {
	m := len(p.L)
	if m == 0 {
		return nil, fmt.Errorf("core: prefix %q has no occurrences", p.Prefix.Label)
	}
	for i := 1; i < m; i++ {
		if p.LCP[i] < int32(len(p.Prefix.Label)) {
			return nil, fmt.Errorf("core: prefix %q: lcp %d below the prefix length at entry %d", p.Prefix.Label, p.LCP[i], i)
		}
	}
	t, err := suffixtree.FromSortedSuffixes(view, p.L, p.LCP)
	if err != nil {
		return nil, fmt.Errorf("core: prefix %q: %w", p.Prefix.Label, err)
	}
	// One stack pass touching 2m nodes, sequential access.
	clock.Advance(model.CPUTime(int64(2 * m)))
	return t, nil
}

// countSubTreeNodes is BuildSubTree without the tree: it replays the
// rightmost-path walk over the depths of one prepared sub-tree of an
// n-symbol string and returns exactly the node count of the sub-tree
// BuildSubTree would materialize (every suffix adds a leaf, and every branch
// landing inside an edge adds one split node; the local root is excluded),
// charging the same 2m node touches. It refuses every window BuildSubTree
// refuses, and one whose first suffix lies outside the string. LCP[0] is not
// read.
func countSubTreeNodes(clock *sim.Clock, model sim.CostModel, n int32, p Prepared, scratch *[]int32) (int64, error) {
	l, lcp, labelLen := p.L, p.LCP, int32(len(p.Prefix.Label))
	if len(l) == 0 || l[0] < 0 || l[0] >= n {
		return 0, fmt.Errorf("core: prefix %q: no suffix, or one outside the %d-byte string", p.Prefix.Label, n)
	}
	stack := append((*scratch)[:0], n-l[0])
	nodes := int64(len(l))
	for i := 1; i < len(l); i++ {
		off := lcp[i]
		if off >= n-l[i] {
			return 0, fmt.Errorf("core: prefix %q: lcp %d ≥ suffix length %d at entry %d (suffixes not distinct?)", p.Prefix.Label, off, n-l[i], i)
		}
		if off < labelLen {
			return 0, fmt.Errorf("core: prefix %q: lcp %d below the prefix length at entry %d", p.Prefix.Label, off, i)
		}
		for len(stack) > 0 && stack[len(stack)-1] > off {
			stack = stack[:len(stack)-1]
			var pd int32
			if len(stack) > 0 {
				pd = stack[len(stack)-1]
			}
			if pd < off {
				nodes++ // the branch splits this edge: one new internal node
				stack = append(stack, off)
				break
			}
		}
		stack = append(stack, n-l[i])
	}
	*scratch = stack[:0]
	clock.Advance(model.CPUTime(int64(2 * len(l))))
	return nodes, nil
}

// VerifyPrepared cross-checks the LCP window against the string view: the
// suffixes at L[i-1] and L[i] must agree on their first LCP[i] symbols and
// then continue, before S ends, with symbols C1 < C2 — the branching
// triplet (C1, C2, LCP[i]) of §4.2.2. Used by tests and the -validate mode;
// not part of the hot path.
func VerifyPrepared(view seq.String, p Prepared) error {
	n := int32(view.Len())
	for i := 1; i < len(p.L); i++ {
		off := p.LCP[i]
		if off <= 0 {
			return fmt.Errorf("LCP[%d] = %d: offset undefined", i, off)
		}
		oa, ob := p.L[i-1]+off, p.L[i]+off
		if oa >= n || ob >= n {
			return fmt.Errorf("LCP[%d]: offset %d past string end", i, off)
		}
		if c1, c2 := view.At(int(oa)), view.At(int(ob)); c1 >= c2 {
			return fmt.Errorf("LCP[%d]: branches out of order (S[%d+%d] = %q ≥ S[%d+%d] = %q)", i, p.L[i-1], off, c1, p.L[i], off, c2)
		}
		// The symbols before the divergence must match.
		for d := int32(0); d < off; d++ {
			if view.At(int(p.L[i-1]+d)) != view.At(int(p.L[i]+d)) {
				return fmt.Errorf("LCP[%d]: suffixes diverge at %d before recorded offset %d", i, d, off)
			}
		}
	}
	return nil
}
