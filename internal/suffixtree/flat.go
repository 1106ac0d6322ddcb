package suffixtree

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
)

// FlatTree is the immutable, mmap-native suffix tree layout behind persist
// format v4. Every section is a plain little-endian byte slice — typically a
// window of one memory-mapped index file — so opening an index is O(header):
// no node structs are materialized, no pointers fixed up, and concurrent
// processes serving the same file share one page-cache copy. It is the only
// layout that serves: its queries are methods here, and the analytics walks
// (walk.go) take it directly. The heap Tree is construction's layout and the
// tests' reference, with queries and walks of its own.
//
// The layout is chosen for the descent and occurrence-listing hot paths, and
// sized by what a node has to say:
//
//   - Node ids are one space: internal nodes are ids [0, nInt), the root 0,
//     leaves are ids [nInt, nNodes). Leaf nInt + r is the r-th suffix in
//     lexicographic order, so the leaf section is the suffix array: one u32
//     per leaf and nothing else. A leaf's edge runs from its parent's depth
//     to |S|, its depth is |S| − suffix, its first symbol is S[suffix +
//     parent depth], and its subtree is itself.
//   - Every internal node stores the rank and count of its subtree's leaf
//     range, so Count is O(1) after the descent and Occurrences is one read
//     of a window of the suffix array.
//   - An internal node's internal children are one contiguous id run, sorted
//     by the first symbol of the edge label; its leaf children are the ranks
//     of its range that no internal child's range holds. Child lookup scans
//     the packed first symbols of the internal run a word at a time — there
//     is no per-node lookup table — and on a miss searches the gap between
//     the ranges of the two internal children that bracket the symbol, where
//     S[SA[r] + depth] ascends with r. ForEachChild merges the run with the
//     gaps in rank order, which is symbol order. Which ids the internal runs
//     get is the writer's business, under one rule: a run lies strictly after
//     its parent. FlatBuilder numbers in reverse completion order — a node's
//     children are written when it completes, in front of everything written
//     before — so a whole subtree is one window of records behind its root.
//   - No internal node stores its edge: every edge is canonical, a window
//     of S based on the lexicographically first suffix o below the node, so
//     under a parent of string depth d it is S[o+d : o+depth), and the path
//     label of a node is S[o : o+depth) — o is the suffix array at the first
//     rank of the node's leaf range. No parent-chain walk, no parent
//     pointers, and the descent, which knows the depth it stands at, reads
//     o only where it compares a label past its first symbol.
//
// A FlatTree built over untrusted bytes (a corrupt or hostile index file)
// never panics: every access clamps ids, ranks and offsets to the section
// bounds — internal child runs lie strictly after their parent and inside the
// internal ids, leaf ranges inside the suffix array, suffixes, depths and
// edge offsets inside S — so a corrupt file can answer wrongly, but cannot
// loop, over-read, or crash the process. NewFlatTree validates only section
// shapes (O(1)); the per-access guards carry the rest, and ValidateView is
// the full structural check.
//
// Internal record (flatNodeSize bytes, little endian), ids [0, nInt):
//
//	off  0  leafStart  uint32  rank of the subtree's first leaf
//	off  4  leafCount  uint32  leaves in the subtree
//	off  8  depth      uint32  string depth at the bottom of the edge
//	off 12  childStart uint32  first internal child id (0 when there is none)
//
// 16 bytes, so four records share a cache line. The leaf section is the
// suffix array, a section of its own (flatLeafSize bytes per leaf, in rank
// order):
//
//	off  0  suffix     uint32  the suffix offset of leaf nInt + rank
//
// The symbol section holds two bytes per internal node: nInt first symbols of
// the edge labels (zero for the root), then nInt internal child counts —
// the run at childStart holds. A count is a byte: sibling edges start with
// distinct symbols, and below a string that ends in a unique terminator one
// of them is that terminator's leaf (FlatBuilder refuses a longer run).
type FlatTree struct {
	data    []byte // S including the terminator
	nodes   []byte // the nInt internal records
	sa      []byte // the leaf section: the suffix array
	sym     []byte // the symbol section: first symbols, then child counts
	counts  []byte // the internal child counts: the window of sym behind the first symbols
	nInt    int32  // internal nodes, the root included
	nNodes  int32
	nLeaves int32
}

const (
	// flatNodeSize is the bytes per internal node record.
	flatNodeSize = 16
	// flatLeafSize is the bytes per leaf: its suffix.
	flatLeafSize = 4
	// flatMaxKids bounds a node's children: sibling edges start with distinct
	// byte symbols.
	flatMaxKids = 256
	// flatMaxRun bounds a node's internal children: the count is one byte.
	flatMaxRun = 255
)

// Flat holds the encoded sections of a flattened tree, ready to be written
// as the tree part of a v4 index file (or handed straight to NewFlatTree):
// Nodes is the internal records, Sym the internal nodes' first symbols
// followed by their internal child counts, and LeafData the leaf section —
// the suffix array, nLeaves little-endian u32s in rank order. A builder hands
// out the suffix array it was given as LeafData rather than a copy of it
// (FlatBuilder), so it is a view of that array's memory wherever the host's
// byte order allows.
type Flat struct {
	Nodes []byte
	Sym   []byte
	// Dense and LeafIdx are always empty: the layout has no child lookup
	// tables and no leaf index. The fields (and NewFlatTree's dense and
	// leafIdx parameters) stay for callers written against them.
	Dense    []byte
	LeafIdx  []byte
	LeafData []byte
	NNodes   int32
	NLeaves  int32
}

// FlatNodesLen is the byte length of the node section of a tree with nInt
// internal nodes.
func FlatNodesLen(nInt int64) int64 { return nInt * flatNodeSize }

// FlatSymLen is the byte length of the symbol section of a tree with nInt
// internal nodes: a first symbol and a child count each.
func FlatSymLen(nInt int64) int64 { return 2 * nInt }

// NewFlatTree wraps pre-encoded sections (typically windows of one mapped
// file) as a queryable tree over data. The internal-node count is half the
// length of sym; the node section must hold exactly that many records, the
// leaf section leafData exactly the nLeaves entries of the suffix array, and
// dense and leafIdx must be empty (see Flat.Dense). Validation is O(1) —
// section shapes only; field values inside the records are clamped at access
// time, so corrupt bytes degrade to wrong answers, never to panics or runaway
// loops.
func NewFlatTree(data, nodes, sym, dense, leafIdx, leafData []byte, nLeaves int32) (*FlatTree, error) {
	nInt := len(sym) / 2
	if len(sym)%2 != 0 || nInt < 1 || nLeaves < 1 || int64(nInt)+int64(nLeaves) > math.MaxInt32 {
		return nil, fmt.Errorf("suffixtree: a %d-byte symbol section and %d leaves", len(sym), nLeaves)
	}
	if want := FlatNodesLen(int64(nInt)); int64(len(nodes)) != want {
		return nil, fmt.Errorf("suffixtree: flat node section of %d bytes, want %d for %d internal nodes", len(nodes), want, nInt)
	}
	if want := flatLeafSize * int64(nLeaves); int64(len(leafData)) != want {
		return nil, fmt.Errorf("suffixtree: flat leaf section of %d bytes, want %d for %d leaves", len(leafData), want, nLeaves)
	}
	if n := len(dense) + len(leafIdx); n != 0 {
		return nil, fmt.Errorf("suffixtree: %d bytes of child tables or a leaf index in a layout without them", n)
	}
	return &FlatTree{
		data: data, nodes: nodes, sa: leafData, sym: sym, counts: sym[nInt:],
		nInt: int32(nInt), nNodes: int32(nInt) + nLeaves, nLeaves: nLeaves,
	}, nil
}

// Data returns the underlying string bytes (terminator included).
func (t *FlatTree) Data() []byte { return t.data }

// Sections returns the encoded sections the tree views — what NewFlatTree
// was given — so a writer emits the image it holds instead of re-encoding it.
func (t *FlatTree) Sections() Flat {
	return Flat{Nodes: t.nodes, Sym: t.sym, LeafData: t.sa, NNodes: t.nNodes, NLeaves: t.nLeaves}
}

// Root returns the root node id (always 0).
func (t *FlatTree) Root() int32 { return 0 }

// NumNodes returns the number of nodes including the root.
func (t *FlatTree) NumNodes() int { return int(t.nNodes) }

// NumLeaves returns the total leaf count.
func (t *FlatTree) NumLeaves() int { return int(t.nLeaves) }

func (t *FlatTree) valid(u int32) bool { return u >= 0 && u < t.nNodes }

// rec returns the record window of internal node u; u must be in [0, nInt).
func (t *FlatTree) rec(u int32) []byte {
	return t.nodes[int(u)*flatNodeSize : int(u)*flatNodeSize+flatNodeSize]
}

// suffixAt returns the suffix of leaf rank r clamped to [0, |S|]; r must be
// in [0, nLeaves).
func (t *FlatTree) suffixAt(r int32) int32 {
	s := binary.LittleEndian.Uint32(t.sa[int(r)*flatLeafSize:])
	if n := uint32(len(t.data)); s > n {
		return int32(n)
	}
	return int32(s)
}

// symAt returns S[SA[r] + d] — the first symbol of leaf rank r below a node
// of string depth d ≥ 0 — or -1 past the end of S.
func (t *FlatTree) symAt(r, d int32) int {
	p := int64(t.suffixAt(r)) + int64(d)
	if p >= int64(len(t.data)) {
		return -1
	}
	return int(t.data[p])
}

// depthOf returns the string depth the internal record r stores, clamped to
// |S|.
func (t *FlatTree) depthOf(r []byte) int32 {
	return int32(min(binary.LittleEndian.Uint32(r[8:]), uint32(len(t.data))))
}

// span returns the window [o+from, o+to) of S, clamped to the string; o,
// from and to must be in [0, |S|].
func (t *FlatTree) span(o, from, to int32) (int32, int32) {
	n := uint32(len(t.data))
	s := min(uint32(o)+uint32(from), n)
	return int32(s), int32(max(min(uint32(o)+uint32(to), n), s))
}

// edge returns the edge of internal node u (record r) below a parent of
// string depth d ∈ [0, |S|]: its first suffix + d to first suffix + its
// depth, clamped to the string, so the descent loops can index data without
// further checks.
func (t *FlatTree) edge(r []byte, d int32) (int32, int32) {
	lo, _ := t.ranks(r)
	return t.span(t.suffixAt(lo), d, t.depthOf(r))
}

// leafEdge returns the edge of leaf rank r below a node of string depth d:
// from its suffix + d to the end of S, clamped to the string.
func (t *FlatTree) leafEdge(r, d int32) (int32, int32) {
	n := int32(len(t.data))
	s := t.suffixAt(r)
	return s + min(max(d, 0), n-s), n
}

// Edge returns the window of S that labels the edge into u, whose parent
// sits at string depth parentDepth: it runs from u's first suffix +
// parentDepth to that suffix + u's depth — for a leaf, to |S|. Invalid ids
// yield an empty window.
func (t *FlatTree) Edge(u, parentDepth int32) (start, end int32) {
	switch {
	case !t.valid(u):
		return 0, 0
	case u < t.nInt:
		return t.edge(t.rec(u), min(max(parentDepth, 0), int32(len(t.data))))
	}
	return t.leafEdge(u-t.nInt, parentDepth)
}

// kids returns the internal child run of internal node u from its record r:
// ci children from id cs. A corrupt run reads as empty: it must lie strictly
// after u and inside the internal ids — the invariant that makes every
// descent terminate.
func (t *FlatTree) kids(r []byte, u int32) (cs, ci int32) {
	cs = int32(binary.LittleEndian.Uint32(r[12:]))
	ci = int32(t.counts[u])
	if cs <= u || cs > t.nInt-ci {
		ci = 0
	}
	return cs, ci
}

// ranks returns the leaf range [lo, hi) of the internal node whose record is
// r, clamped to the suffix array.
func (t *FlatTree) ranks(r []byte) (lo, hi int32) {
	w := binary.LittleEndian.Uint64(r)
	ls, lc := uint32(w), uint32(w>>32)
	if ls >= uint32(t.nLeaves) {
		return 0, 0
	}
	return int32(ls), int32(ls + min(lc, uint32(t.nLeaves)-ls))
}

// pathWindow returns the window of S that spells u's path label: from the
// lexicographically first suffix o below u to o + u's depth, clamped to the
// string. Invalid ids yield an empty window.
func (t *FlatTree) pathWindow(u int32) (o, e int32) {
	if !t.valid(u) {
		return 0, 0
	}
	if u >= t.nInt {
		return t.suffixAt(u - t.nInt), int32(len(t.data))
	}
	return t.edge(t.rec(u), 0)
}

// IsLeaf reports whether u is a leaf: the id alone decides.
func (t *FlatTree) IsLeaf(u int32) bool { return u < 0 || u >= t.nInt }

// Suffix returns the suffix offset for a leaf, or -1 for internal nodes.
func (t *FlatTree) Suffix(u int32) int32 {
	if !t.valid(u) || u < t.nInt {
		return -1
	}
	return t.suffixAt(u - t.nInt)
}

// CountLeaves returns the number of leaves below u — O(1) in the flat
// layout: the subtree's leaf range is precomputed at encode time.
func (t *FlatTree) CountLeaves(u int32) int {
	lo, hi := t.leafRange(u)
	return int(hi - lo)
}

// leafRange returns the ranks [lo, hi) of the leaves below u: a leaf's own
// rank, or an internal node's range clamped to the suffix array. Invalid ids
// have none.
func (t *FlatTree) leafRange(u int32) (lo, hi int32) {
	switch {
	case !t.valid(u):
		return 0, 0
	case u < t.nInt:
		return t.ranks(t.rec(u))
	}
	return u - t.nInt, u - t.nInt + 1
}

// ForEachChild calls fn for every child of u in first-symbol order — the
// internal run merged with the leaves in the gaps between its ranges —
// stopping early if fn returns false. A corrupt record yields at most
// flatMaxKids leaves.
func (t *FlatTree) ForEachChild(u int32, fn func(c int32) bool) {
	if u < 0 || u >= t.nInt {
		return
	}
	r := t.rec(u)
	i, ci := t.kids(r, u)
	next, end := t.ranks(r)
	leaves := 0
	for ie := i + ci; ; i++ {
		gap, resume := end, end
		if i < ie {
			gap, resume = t.ranks(t.rec(i))
		}
		for ; next < min(gap, end) && leaves < flatMaxKids; next, leaves = next+1, leaves+1 {
			if !fn(t.nInt + next) {
				return
			}
		}
		if i == ie || !fn(i) {
			return
		}
		next = max(next, resume)
	}
}

// child returns the child of internal node u (record r, string depth d)
// whose edge label starts with b, with the first rank of its leaf range and
// its string depth; c is None when there is none. An internal child is a
// word-parallel scan of the packed first symbols of the internal run. A leaf
// child lies in the gap of u's leaf range between the internal children that
// bracket b — a few ranks, whose first symbols S[SA[r] + d] ascend — and is
// binary-searched there. The child's edge is S[SA[lo]+d : SA[lo]+depth), and
// a caller that needs more of it than the first symbol reads SA[lo] itself.
func (t *FlatTree) child(r []byte, u, d int32, b byte) (c, lo, depth int32) {
	is, ic := t.kids(r, u)
	if ic > 0 {
		if j := findSym(t.sym, is, ic, b); j >= 0 {
			rc := t.rec(is + j)
			lo, _ = t.ranks(rc)
			return is + j, lo, t.depthOf(rc)
		}
	}
	lo, hi := t.ranks(r)
	if ic > 0 {
		j := symRank(t.sym[is:is+ic], b)
		if j > 0 {
			_, e := t.ranks(t.rec(is + j - 1))
			lo = max(lo, e)
		}
		if j < ic {
			s, _ := t.ranks(t.rec(is + j))
			hi = min(hi, s)
		}
	}
	end := hi
	for lo < hi {
		m := int32(uint32(lo+hi) >> 1)
		if t.symAt(m, d) < int(b) {
			lo = m + 1
		} else {
			hi = m
		}
	}
	if lo >= end || t.symAt(lo, d) != int(b) {
		return None, 0, 0
	}
	return t.nInt + lo, lo, int32(len(t.data)) - t.suffixAt(lo)
}

// Find matches pattern from the root and returns the locus where the match
// ends, or ok=false if the pattern does not occur in S. The descent holds
// one node record at a time and compares edge labels a word at a time; the
// string depth of the node it stands on is the length of the pattern
// matched so far.
func (t *FlatTree) Find(pattern []byte) (Locus, bool) {
	cur := int32(0)
	r := t.rec(cur)
	i := 0
	for i < len(pattern) {
		d := int32(i)
		c, lo, depth := t.child(r, cur, d, pattern[i])
		if c == None {
			return Locus{}, false
		}
		// The child lookup already matched the first edge symbol, so the
		// label compare starts one byte in — and single-symbol edges, the
		// common case near the root, skip it, and the read of the child's
		// first suffix, entirely.
		k := int32(1)
		if depth-d > 1 && len(pattern)-i > 1 {
			if cs, ce := t.span(t.suffixAt(lo), d, depth); ce-cs > 1 {
				k += int32(commonPrefixLen(t.data[cs+1:ce], pattern[i+1:]))
			}
		}
		i += int(k)
		if i == len(pattern) {
			return Locus{Node: c, Depth: k}, true
		}
		if k < depth-d || c >= t.nInt {
			return Locus{}, false // mismatch inside the edge, or past a leaf
		}
		cur, r = c, t.rec(c)
	}
	return Locus{Node: 0}, true // the empty pattern ends at the root
}

// MatchTrace matches pattern against the tree with per-symbol loci, resuming
// from trace[from-1]; see Tree.MatchTrace for the contract. The two layouts
// produce identical traces for identical trees. Like Find, the descent is
// fused: the child lookup supplies the first edge symbol, the rest of the
// label is compared a word at a time. A locus Depth symbols into the edge of
// a node, after i matched symbols, hangs below a parent at depth i − Depth.
func (t *FlatTree) MatchTrace(pattern []byte, from int, trace []Locus) int {
	i := from
	cur := int32(0)
	var depth int32
	if i > 0 {
		cur, depth = trace[i-1].Node, trace[i-1].Depth
		if !t.valid(cur) {
			return i
		}
	}
	if i >= len(pattern) {
		return i
	}
	cs, ce := t.Edge(cur, int32(i)-depth)
	for i < len(pattern) {
		if depth >= ce-cs {
			if cur >= t.nInt {
				return i // a leaf has no children
			}
			d := int32(i)
			c, lo, cd := t.child(t.rec(cur), cur, d, pattern[i])
			if c == None {
				return i
			}
			// The child lookup matched the first edge symbol; record it and
			// move on — single-symbol edges never reach the label compare,
			// nor the read of the child's first suffix.
			cur = c
			trace[i] = Locus{Node: cur, Depth: 1}
			i++
			depth = 1
			cs, ce = 0, 0 // nothing left on a single-symbol edge
			if i < len(pattern) && cd-d > 1 {
				cs, ce = t.span(t.suffixAt(lo), d, cd)
			}
			if depth >= ce-cs {
				continue
			}
		}
		k := commonPrefixLen(t.data[cs+depth:ce], pattern[i:])
		for j := 0; j < k; j++ {
			trace[i+j] = Locus{Node: cur, Depth: depth + int32(j) + 1}
		}
		i += k
		depth += int32(k)
		if i < len(pattern) && depth < ce-cs {
			return i // mismatch inside the edge
		}
	}
	return i
}

// Contains reports whether pattern occurs in S.
func (t *FlatTree) Contains(pattern []byte) bool {
	_, ok := t.Find(pattern)
	return ok
}

// Count returns the number of occurrences of pattern in S. After the
// O(|P|) descent this is a single leaf-count read — no occurrence offsets
// are read or materialized.
func (t *FlatTree) Count(pattern []byte) int {
	loc, ok := t.Find(pattern)
	if !ok {
		return 0
	}
	return t.CountLeaves(loc.Node)
}

// Occurrences returns the start offsets of every occurrence of pattern in
// lexicographic suffix order: the window of the suffix array below the
// locus node.
func (t *FlatTree) Occurrences(pattern []byte) []int32 {
	loc, ok := t.Find(pattern)
	if !ok {
		return nil
	}
	return t.Leaves(loc.Node)
}

// Leaves returns the suffix offsets of the leaves below u in lexicographic
// order: a leaf's own suffix, or an internal node's window of the suffix
// array.
func (t *FlatTree) Leaves(u int32) []int32 { return t.appendLeaves(nil, u) }

// appendLeaves appends the suffix offsets of the leaves below u to out, in
// lexicographic order, growing out once.
func (t *FlatTree) appendLeaves(out []int32, u int32) []int32 {
	lo, hi := t.leafRange(u)
	out = slices.Grow(out, int(hi-lo))
	for r := lo; r < hi; r++ {
		out = append(out, t.suffixAt(r))
	}
	return out
}

// FirstOccurrences returns the k smallest suffix offsets below u in ascending
// order — all of them when k ≤ 0 or k ≥ the leaf count — reading u's window
// of the leaf section in place: a k-entry max-heap keeps the smallest seen,
// so a capped answer allocates its k ints and nothing else. Invalid ids and
// empty windows answer nil.
func (t *FlatTree) FirstOccurrences(u int32, k int) []int {
	lo, hi := t.leafRange(u)
	n := int(hi - lo)
	if n == 0 {
		return nil
	}
	if k <= 0 || k > n {
		k = n
	}
	h := make([]int, k)
	for i := range h {
		h[i] = int(t.suffixAt(lo + int32(i)))
	}
	if k < n {
		for i := k/2 - 1; i >= 0; i-- {
			siftDown(h, i)
		}
		for r := lo + int32(k); r < hi; r++ {
			if s := int(t.suffixAt(r)); s < h[0] {
				h[0] = s
				siftDown(h, 0)
			}
		}
	}
	slices.Sort(h)
	return h
}

// siftDown restores the max-heap order of h below i.
func siftDown(h []int, i int) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && h[c+1] > h[c] {
			c++
		}
		if h[i] >= h[c] {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// PathLabel materializes the concatenated edge labels from the root to u.
// The flat layout stores no parent pointers; instead the label is read
// directly out of S, from the subtree's first suffix to the end of u's edge.
func (t *FlatTree) PathLabel(u int32) []byte {
	o, e := t.pathWindow(u)
	if e == o {
		return nil
	}
	return append([]byte(nil), t.data[o:e]...)
}
