package core

import (
	"fmt"

	"era/internal/seq"
	"era/internal/sim"
	"era/internal/suffixtree"
)

// BuildSubTree is Algorithm BuildSubTree (§4.2.2): it materializes the
// suffix sub-tree from the L and B arrays produced by SubTreePrepare in one
// left-to-right batch pass with a stack — sequential memory access, no
// top-down traversals (the decoupling that gives ERa-str+mem its edge over
// ERa-str, Fig. 7).
//
// The sub-tree hangs below a fresh root whose single outgoing edge starts
// with the S-prefix.
func BuildSubTree(view seq.String, clock *sim.Clock, model sim.CostModel, p Prepared) (*suffixtree.Tree, error) {
	m := len(p.L)
	if m == 0 {
		return nil, fmt.Errorf("core: prefix %q has no occurrences", p.Prefix.Label)
	}
	lcp, err := fillLCP(p, make([]int32, m))
	if err != nil {
		return nil, err
	}
	t, err := suffixtree.FromSortedSuffixes(view, p.L, lcp)
	if err != nil {
		return nil, fmt.Errorf("core: prefix %q: %w", p.Prefix.Label, err)
	}
	// One stack pass touching 2m nodes, sequential access.
	clock.Advance(model.CPUTime(int64(2 * m)))
	return t, nil
}

// buildSubTreeInto is BuildSubTree recycling a caller-owned tree and LCP
// scratch: the tree is Reset and rebuilt in place, so only callers that drop
// each sub-tree after accounting may use it. Accounting is identical to
// BuildSubTree.
func buildSubTreeInto(tree *suffixtree.Tree, lcp []int32, view seq.String, clock *sim.Clock, model sim.CostModel, p Prepared) (*suffixtree.Tree, error) {
	m := len(p.L)
	if m == 0 {
		return nil, fmt.Errorf("core: prefix %q has no occurrences", p.Prefix.Label)
	}
	lcp, err := fillLCP(p, lcp)
	if err != nil {
		return nil, err
	}
	tree.Reset()
	tree.EnsureCap(2 * m)
	t, err := suffixtree.FromSortedSuffixesInto(tree, p.L, lcp)
	if err != nil {
		return nil, fmt.Errorf("core: prefix %q: %w", p.Prefix.Label, err)
	}
	clock.Advance(model.CPUTime(int64(2 * m)))
	return t, nil
}

// fillLCP translates the B offsets of a Prepared into the pairwise LCP array
// FromSortedSuffixes consumes. lcp must have length len(p.L).
func fillLCP(p Prepared, lcp []int32) ([]int32, error) {
	if len(lcp) > 0 {
		lcp[0] = 0
	}
	for i := 1; i < len(lcp); i++ {
		if p.B[i].Offset <= 0 {
			return nil, fmt.Errorf("core: prefix %q: B[%d] undefined", p.Prefix.Label, i)
		}
		lcp[i] = p.B[i].Offset
	}
	return lcp, nil
}

// VerifyPrepared cross-checks the B triplets against the string view: the
// branches to L[i-1] and L[i] must diverge exactly at Offset with symbols
// C1 < C2. Used by tests and the -validate mode; not part of the hot path.
func VerifyPrepared(view seq.String, p Prepared) error {
	n := int32(view.Len())
	for i := 1; i < len(p.L); i++ {
		b := p.B[i]
		oa, ob := p.L[i-1]+b.Offset, p.L[i]+b.Offset
		if oa >= n || ob >= n {
			return fmt.Errorf("B[%d]: offset %d past string end", i, b.Offset)
		}
		if got := view.At(int(oa)); got != b.C1 {
			return fmt.Errorf("B[%d]: C1 = %q but S[%d+%d] = %q", i, b.C1, p.L[i-1], b.Offset, got)
		}
		if got := view.At(int(ob)); got != b.C2 {
			return fmt.Errorf("B[%d]: C2 = %q but S[%d+%d] = %q", i, b.C2, p.L[i], b.Offset, got)
		}
		if b.C1 >= b.C2 {
			return fmt.Errorf("B[%d]: branches out of order (%q ≥ %q)", i, b.C1, b.C2)
		}
		// The Offset symbols before the divergence must match.
		for d := int32(0); d < b.Offset; d++ {
			if view.At(int(p.L[i-1]+d)) != view.At(int(p.L[i]+d)) {
				return fmt.Errorf("B[%d]: suffixes diverge at %d before recorded offset %d", i, d, b.Offset)
			}
		}
	}
	return nil
}
