package suffixtree

// The heap layout's queries: the descent (Find, MatchTrace), the answers
// built on it, and the reference repeat walks. Nothing serves from a Tree —
// the era package serves the flat layout (flat.go, walk.go) — so these are
// what the differential tests hold the flat layout's answers to, and what
// the construction packages' tests query.
//
// The methods are pure reads: they never mutate the tree, its node array, or
// the underlying string. Any number of goroutines may run them concurrently
// on the same Tree as long as none mutates it via the builder API.

// Locus is the position reached by matching a pattern into the tree: the
// node whose edge the match ends on, and how many symbols of that node's
// edge label were consumed.
type Locus struct {
	Node  int32
	Depth int32 // symbols consumed on Node's edge label (0 < Depth ≤ EdgeLen except at root)
}

// Find matches pattern from the root and returns the locus where the match
// ends, or ok=false if the pattern does not occur in S.
func (t *Tree) Find(pattern []byte) (Locus, bool) {
	cur := t.Root()
	i := 0
	for i < len(pattern) {
		c := t.Child(cur, pattern[i])
		if c == None {
			return Locus{}, false
		}
		cs, ce := t.nodes[c].start, t.nodes[c].end
		k := int32(0)
		for cs+k < ce && i < len(pattern) {
			if t.s.At(int(cs+k)) != pattern[i] {
				return Locus{}, false
			}
			k++
			i++
		}
		if i == len(pattern) {
			return Locus{Node: c, Depth: k}, true
		}
		cur = c
	}
	return Locus{Node: cur, Depth: t.EdgeLen(cur)}, true
}

// MatchTrace matches pattern against the tree, recording in trace[d] the
// locus reached after consuming pattern[:d+1]. The descent resumes from
// trace[from-1] — which must hold the locus of pattern[:from], recorded by a
// previous MatchTrace whose pattern shared that prefix — or from the root
// when from is 0. trace must have length ≥ len(pattern).
//
// It returns the number of symbols matched: matched == len(pattern) means
// the whole pattern occurs in S (its locus is in trace[len(pattern)-1]);
// trace[from:matched] is valid either way, so a failed match still seeds
// prefix reuse for the next pattern. Batched queries exploit this: patterns
// sorted lexicographically walk only the suffix they do not share with their
// predecessor.
func (t *Tree) MatchTrace(pattern []byte, from int, trace []Locus) int {
	i := from
	cur := t.Root()
	var depth int32 // symbols consumed on cur's edge
	if i > 0 {
		cur, depth = trace[i-1].Node, trace[i-1].Depth
	}
	for i < len(pattern) {
		if depth == t.EdgeLen(cur) {
			c := t.Child(cur, pattern[i])
			if c == None {
				return i
			}
			cur, depth = c, 0
		}
		cs, ce := t.nodes[cur].start+depth, t.nodes[cur].end
		for cs < ce && i < len(pattern) {
			if t.s.At(int(cs)) != pattern[i] {
				return i
			}
			cs++
			depth++
			trace[i] = Locus{Node: cur, Depth: depth}
			i++
		}
	}
	return i
}

// Contains reports whether pattern occurs in S. With the tree built, this is
// the O(|P|) search the paper motivates in §1.
func (t *Tree) Contains(pattern []byte) bool {
	_, ok := t.Find(pattern)
	return ok
}

// Occurrences returns the start offsets of every occurrence of pattern in S,
// in lexicographic order of the suffixes that extend it. Returns nil if the
// pattern does not occur.
func (t *Tree) Occurrences(pattern []byte) []int32 {
	loc, ok := t.Find(pattern)
	if !ok {
		return nil
	}
	return t.Leaves(loc.Node)
}

// Count returns the number of occurrences of pattern in S.
func (t *Tree) Count(pattern []byte) int {
	loc, ok := t.Find(pattern)
	if !ok {
		return 0
	}
	return t.CountLeaves(loc.Node)
}

// LongestRepeatedSubstring returns the longest substring of S occurring at
// least twice, with the offsets of its occurrences: the path label of the
// deepest internal node, ties broken toward the lexicographically smallest
// (the first in pre-order). It is the reference the flat layout's
// LongestRepeated is held to.
func (t *Tree) LongestRepeatedSubstring() ([]byte, []int32) {
	best, bestDepth := None, int32(0)
	t.WalkDFS(t.Root(), func(id, depth int32) bool {
		if id != t.Root() && !t.IsLeaf(id) && depth > bestDepth {
			best, bestDepth = id, depth
		}
		return true
	})
	if best == None {
		return nil, nil
	}
	return t.PathLabel(best), t.Leaves(best)
}

// MaximalRepeats calls fn for every internal node whose path label has
// length ≥ minLen and occurs at least minOcc times, passing the label depth
// and occurrence count. Traversal order is DFS. If fn returns false the
// subtree is skipped. It is the reference the flat layout's VisitRepeats is
// held to; each count walks the subtree, so it is for small trees.
func (t *Tree) MaximalRepeats(minLen int32, minOcc int, fn func(node int32, depth int32, occ int) bool) {
	t.WalkDFS(t.Root(), func(id, depth int32) bool {
		if id == t.Root() || t.IsLeaf(id) || depth < minLen {
			return true
		}
		if occ := t.CountLeaves(id); occ >= minOcc {
			return fn(id, depth, occ)
		}
		return true
	})
}
