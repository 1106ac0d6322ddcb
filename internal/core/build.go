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
// with the S-prefix.
func BuildSubTree(view seq.String, clock *sim.Clock, model sim.CostModel, p Prepared) (*suffixtree.Tree, error) {
	return buildSubTreeInto(suffixtree.New(view), clock, model, p)
}

// buildSubTreeInto is BuildSubTree recycling a caller-owned tree: the tree is
// Reset and rebuilt in place, so only callers that drop each sub-tree after
// accounting may use it. Accounting is identical to BuildSubTree.
func buildSubTreeInto(tree *suffixtree.Tree, clock *sim.Clock, model sim.CostModel, p Prepared) (*suffixtree.Tree, error) {
	m := len(p.L)
	if m == 0 {
		return nil, fmt.Errorf("core: prefix %q has no occurrences", p.Prefix.Label)
	}
	tree.Reset()
	tree.EnsureCap(2 * m)
	t, err := suffixtree.FromSortedSuffixesInto(tree, p.L, p.LCP)
	if err != nil {
		return nil, fmt.Errorf("core: prefix %q: %w", p.Prefix.Label, err)
	}
	// One stack pass touching 2m nodes, sequential access.
	clock.Advance(model.CPUTime(int64(2 * m)))
	return t, nil
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
