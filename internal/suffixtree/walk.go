package suffixtree

import "slices"

// The analytics walks over the serving layout, *FlatTree (era's query-plan
// executor). Traversal order is pinned: children are visited in first-symbol
// order, so pre-order DFS enumerates path labels in lexicographic order —
// every tie-break the era layer documents ("smallest substring wins") falls
// out of that order, or, where no walk is needed, out of leaf rank order,
// which is the same order.
//
// FirstLeaf names a locus by its lexicographically first suffix, so the era
// layer labels a locus with L bytes of S viewed in place rather than a
// materialized path.
//
// All walks are budgeted against NumNodes: a corrupt flat file can encode
// overlapping child runs (a DAG), which would re-expand shared subtrees
// exponentially. Wrong answers on a corrupt file are acceptable (the
// checksum layer catches them before they are served); runaway walks are not.
//
// The heap layout (*Tree) has no queries or walks to compare with: the
// differential tests hold these walks to brute force over the string
// (oracle_test.go).

// Walk visits every node reachable from u in depth-first pre-order, children
// in first-symbol order; fn receives the node id, its string depth and its
// parent's (u hangs at depth 0). If fn returns false the subtree below the
// node is skipped.
func Walk(t *FlatTree, u int32, fn func(id, depth, parentDepth int32) bool) {
	type frame struct{ id, parentDepth int32 }
	stack := make([]frame, 0, 64)
	stack = append(stack, frame{u, 0})
	for budget := t.NumNodes(); len(stack) > 0 && budget > 0; budget-- {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		s, e := t.Edge(f.id, f.parentDepth)
		depth := f.parentDepth + e - s
		if !fn(f.id, depth, f.parentDepth) {
			continue
		}
		mark := len(stack)
		t.ForEachChild(f.id, func(c int32) bool {
			stack = append(stack, frame{c, depth})
			return true
		})
		// Children were pushed in sibling order; reverse the run so the
		// first sibling pops first.
		for i, j := mark, len(stack)-1; i < j; i, j = i+1, j-1 {
			stack[i], stack[j] = stack[j], stack[i]
		}
	}
}

// FirstLeaf returns the suffix offset of the lexicographically first leaf
// below u (u's own when it is a leaf); -1 for an id outside the tree. The
// path label of u is S[o : o+depth(u)] for that offset o, so a caller that
// needs only a prefix of the label reads it out of S in place. It reads the
// suffix array at the first rank of u's leaf range, without allocating.
func FirstLeaf(t *FlatTree, u int32) int32 {
	lo, hi := t.leafRange(u)
	if lo == hi {
		return -1 // outside the tree, or a corrupt internal node without leaves
	}
	return t.suffixAt(lo)
}

// LongestRepeated returns the deepest internal node's path label — the
// longest substring of S occurring at least twice — with the offsets of its
// occurrences, ascending. It reads the internal records once rather than
// walking: of the deepest ones it keeps the smallest first leaf rank.
// Internal nodes of equal depth have disjoint leaf ranges, so that is the
// lexicographically smallest label, the first in pre-order. A non-nil stop
// is polled once per record; when it reports true the pass abandons and
// returns nil — the caller owns mapping that to a cancellation error.
func LongestRepeated(t *FlatTree, stop func() bool) ([]byte, []int) {
	best, bestDepth, bestLo := None, int32(0), int32(0)
	for u := int32(1); u < t.nInt; u++ {
		if stop != nil && stop() {
			return nil, nil
		}
		r := t.rec(u)
		depth := t.depthOf(r)
		if depth < bestDepth || depth == 0 {
			continue
		}
		if lo, _ := t.ranks(r); depth > bestDepth || lo < bestLo {
			best, bestDepth, bestLo = u, depth, lo
		}
	}
	if best == None {
		return nil, nil
	}
	return t.PathLabel(best), t.FirstOccurrences(best, 0)
}

// VisitRepeats calls fn for every internal node whose path label has length
// ≥ minLen and occurs at least minOcc times, passing the label depth and
// occurrence count; DFS order, subtree skipped when fn returns false.
func VisitRepeats(t *FlatTree, minLen int32, minOcc int, fn func(node int32, depth int32, occ int) bool) {
	Walk(t, t.Root(), func(id, depth, _ int32) bool {
		if id == t.Root() || t.IsLeaf(id) || depth < minLen {
			return true
		}
		if occ := t.CountLeaves(id); occ >= minOcc {
			return fn(id, depth, occ)
		}
		return true
	})
}

// PrefixLoci visits, in lexicographic label order, the locus of every
// distinct length-L substring of S: the shallowest node on each root path
// whose string depth reaches L. The subtree below a locus is pruned (every
// descendant shares the same length-L prefix), so the walk touches each
// locus path once. fn returning false stops the walk.
func PrefixLoci(t *FlatTree, L int32, fn func(node int32) bool) {
	if L <= 0 {
		return
	}
	root := t.Root()
	stopped := false
	Walk(t, root, func(id, depth, _ int32) bool {
		if stopped {
			return false
		}
		if id != root && depth >= L {
			if !fn(id) {
				stopped = true
			}
			return false
		}
		return true
	})
}

// MismatchSearch returns the suffix offsets, ascending, where pattern
// occurs in s within at most k symbol mismatches — Hamming distance,
// no insertions or deletions. The descent branches only where the mismatch
// budget allows: on a mismatched symbol the budget drops by one and every
// child edge is tried, so the explored frontier is bounded by |Σ|^k · |P|
// paths. Edges carrying the skip byte (the corpus terminator) are pruned —
// a terminator is never content, so no window containing it can match.
// Each matched locus appends its window of the suffix array to the answer,
// which is sorted once at the end. A non-nil stop is polled once per entered
// node; true abandons the search and returns what was found so far — the
// caller owns mapping that to a cancellation error.
func MismatchSearch(t *FlatTree, s []byte, pattern []byte, k int, skip byte, stop func() bool) []int {
	m := len(pattern)
	if m == 0 {
		return nil
	}
	var out []int
	// Nodes entered across all branches, bounding corrupt-layout cycles
	// (a zero-length child edge would otherwise recurse forever).
	budget := t.NumNodes() * (k + 2)
	// walk matches on along the rest of u's edge, S[es:ee), with pi pattern
	// symbols behind it — which is also the string depth, the depth every
	// child of u hangs at.
	var walk func(u, es, ee int32, pi, mis int)
	walk = func(u, es, ee int32, pi, mis int) {
		if budget <= 0 {
			return
		}
		if stop != nil && stop() {
			budget = 0
			return
		}
		budget--
		for ; ; es++ {
			if pi == m {
				out = appendLeaves(t, out, u)
				return
			}
			if es >= ee {
				t.ForEachChild(u, func(c int32) bool {
					cs, ce := t.Edge(c, int32(pi))
					walk(c, cs, ce, pi, mis)
					return true
				})
				return
			}
			if int(es) >= len(s) {
				return
			}
			sym := s[es]
			if sym == skip {
				return
			}
			if sym != pattern[pi] {
				mis++
				if mis > k {
					return
				}
			}
			pi++
		}
	}
	walk(t.Root(), 0, 0, 0, 0) // the root's edge is empty
	slices.Sort(out)
	return out
}
