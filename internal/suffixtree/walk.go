package suffixtree

// Layout-agnostic walk primitives over View. Everything here is written once
// against the interface so the heap layout (*Tree) and the mmap-native flat
// layout (*FlatTree) answer the analytics queries (era's query-plan executor)
// through one implementation. Traversal order is pinned: children are visited
// in first-symbol (sibling) order, so pre-order DFS enumerates path labels in
// lexicographic order — every tie-break the era layer documents ("smallest
// substring wins") falls out of that order for free.
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
// ForEachChild takes its callback through the View interface, so a closure
// literal inside a walk's loop would escape and allocate once per visited
// node; every walk here hoists one closure over loop state instead.

// Walk visits every node reachable from u in depth-first pre-order, children
// in first-symbol order; fn receives the node id, its string depth and its
// parent's (u hangs at depth 0). If fn returns false the subtree below the
// node is skipped.
func Walk(v View, u int32, fn func(id, depth, parentDepth int32) bool) {
	type frame struct{ id, parentDepth int32 }
	stack := make([]frame, 0, 64)
	stack = append(stack, frame{u, 0})
	var depth int32 // string depth of the node being expanded
	push := func(c int32) bool {
		stack = append(stack, frame{c, depth})
		return true
	}
	budget := v.NumNodes()
	for len(stack) > 0 && budget > 0 {
		budget--
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		s, e := v.Edge(f.id, f.parentDepth)
		depth = f.parentDepth + e - s
		if !fn(f.id, depth, f.parentDepth) {
			continue
		}
		mark := len(stack)
		v.ForEachChild(f.id, push)
		// Children were pushed in sibling order; reverse the run so the
		// first sibling pops first.
		for i, j := mark, len(stack)-1; i < j; i, j = i+1, j-1 {
			stack[i], stack[j] = stack[j], stack[i]
		}
	}
}

// LeafCounts returns, for every node id, the number of leaves in its
// subtree, computed in one post-order pass (node ids are dense in
// [0, NumNodes) for both layouts).
func LeafCounts(v View) []int32 {
	n := v.NumNodes()
	counts := make([]int32, n)
	type frame struct {
		id      int32
		visited bool
	}
	stack := make([]frame, 0, 64)
	stack = append(stack, frame{v.Root(), false})
	push := func(c int32) bool {
		stack = append(stack, frame{c, false})
		return true
	}
	var sum int32
	add := func(c int32) bool {
		sum += counts[c]
		return true
	}
	budget := 2 * n
	for len(stack) > 0 && budget > 0 {
		budget--
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if !f.visited {
			stack = append(stack, frame{f.id, true})
			v.ForEachChild(f.id, push)
			continue
		}
		if v.IsLeaf(f.id) {
			counts[f.id] = 1
			continue
		}
		sum = 0
		v.ForEachChild(f.id, add)
		counts[f.id] = sum
	}
	return counts
}

// FirstLeaf returns the suffix offset of the lexicographically first leaf
// below u (u's own when it is a leaf); -1 for an id outside the tree. The
// path label of u is S[o : o+depth(u)] for that offset o, so a caller that
// needs only a prefix of the label reads it out of S in place. Both layouts
// of View (view.go) resolve without allocating: the flat one reads the
// suffix array at the first rank of u's leaf range, the heap one descends
// first children.
func FirstLeaf(v View, u int32) int32 {
	switch t := v.(type) {
	case *FlatTree:
		if !t.valid(u) {
			return -1
		}
		r := u - t.nInt
		if u < t.nInt {
			lo, hi := t.ranks(t.rec(u))
			if lo == hi {
				return -1 // a corrupt record: an internal node without leaves
			}
			r = lo
		}
		return t.suffixAt(r)
	case *Tree:
		if u < 0 || int(u) >= len(t.nodes) {
			return -1
		}
		for c := t.nodes[u].firstChild; c != None; c = t.nodes[u].firstChild {
			u = c
		}
		return t.nodes[u].suffix
	}
	return -1
}

// LongestRepeated returns the deepest internal node's path label — the
// longest substring of S occurring at least twice — with the offsets of its
// occurrences. Ties break toward the lexicographically smallest substring
// (the first strictly-deeper internal node in pre-order). A non-nil stop is
// polled once per visited node; when it reports true the walk abandons and
// returns nil — the caller owns mapping that to a cancellation error.
func LongestRepeated(v View, stop func() bool) ([]byte, []int32) {
	root := v.Root()
	best, bestDepth := None, int32(0)
	stopped := false
	Walk(v, root, func(id, depth, _ int32) bool {
		if stop != nil && stop() {
			stopped = true
			return false
		}
		if stopped {
			return false
		}
		if id != root && !v.IsLeaf(id) && depth > bestDepth {
			best, bestDepth = id, depth
		}
		return true
	})
	if stopped || best == None {
		return nil, nil
	}
	return v.PathLabel(best), v.Leaves(best)
}

// VisitRepeats calls fn for every internal node whose path label has length
// ≥ minLen and occurs at least minOcc times, passing the label depth and
// occurrence count; DFS order, subtree skipped when fn returns false.
func VisitRepeats(v View, minLen int32, minOcc int, fn func(node int32, depth int32, occ int) bool) {
	counts := LeafCounts(v)
	root := v.Root()
	Walk(v, root, func(id, depth, _ int32) bool {
		if id == root || v.IsLeaf(id) {
			return true
		}
		if depth >= minLen && int(counts[id]) >= minOcc {
			return fn(id, depth, int(counts[id]))
		}
		return true
	})
}

// PrefixLoci visits, in lexicographic label order, the locus of every
// distinct length-L substring of S: the shallowest node on each root path
// whose string depth reaches L. The subtree below a locus is pruned (every
// descendant shares the same length-L prefix), so the walk touches each
// locus path once. fn returning false stops the walk.
func PrefixLoci(v View, L int32, fn func(node int32) bool) {
	if L <= 0 {
		return
	}
	root := v.Root()
	stopped := false
	Walk(v, root, func(id, depth, _ int32) bool {
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

// MismatchSearch returns the suffix offsets (unsorted, in leaf order) where
// pattern occurs in s within at most k symbol mismatches — Hamming distance,
// no insertions or deletions. The descent branches only where the mismatch
// budget allows: on a mismatched symbol the budget drops by one and every
// child edge is tried, so the explored frontier is bounded by |Σ|^k · |P|
// paths. Edges carrying the skip byte (the corpus terminator) are pruned —
// a terminator is never content, so no window containing it can match.
// A non-nil stop is polled once per entered node; true abandons the search
// and returns what was found so far — the caller owns mapping that to a
// cancellation error.
func MismatchSearch(v View, s []byte, pattern []byte, k int, skip byte, stop func() bool) []int32 {
	m := len(pattern)
	if m == 0 {
		return nil
	}
	var out []int32
	// Nodes entered across all branches, bounding corrupt-layout cycles
	// (a zero-length child edge would otherwise recurse forever).
	budget := v.NumNodes() * (k + 2)
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
				out = append(out, v.Leaves(u)...)
				return
			}
			if es >= ee {
				v.ForEachChild(u, func(c int32) bool {
					cs, ce := v.Edge(c, int32(pi))
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
	walk(v.Root(), 0, 0, 0, 0) // the root's edge is empty
	return out
}
