package suffixtree

// View is what the layout-agnostic walks (walk.go) and Flatten need of a
// suffix tree: node identity, edge labels, children in first-symbol order and
// the leaves below a node, with no commitment to how nodes are stored. Two
// layouts implement it:
//
//   - *FlatTree, the immutable mmap-native layout of the index file format
//     (internal child runs contiguous and sorted by first symbol, O(1)
//     subtree leaf counts, the leaves as the suffix array) — see flat.go. It
//     is the only layout the era package serves from, and it holds it
//     concretely;
//   - *Tree, the mutable heap layout construction, the competitor builders
//     and the test oracles work on (sibling-linked nodes, edge offsets into a
//     seq.String) — a reference, not a serving path.
//
// The queries (Find, Count, Occurrences, the repeat queries) are methods of
// both concrete types, not of the interface; the differential tests in
// flat_test.go pin the two layouts to byte-identical answers.
type View interface {
	// Root returns the root node id.
	Root() int32
	// NumNodes returns the number of nodes including the root.
	NumNodes() int
	// Edge returns the window S[start:end) that labels the edge into u, whose
	// parent sits at string depth parentDepth. A walk carries that depth: the
	// flat layout stores no edge for a leaf, whose label runs from its
	// suffix + parentDepth to the end of S.
	Edge(u, parentDepth int32) (start, end int32)
	// IsLeaf reports whether u has no children.
	IsLeaf(u int32) bool
	// Suffix returns the suffix offset for a leaf, or -1 for internal nodes.
	Suffix(u int32) int32
	// ForEachChild calls fn for every child of u in sibling (first-symbol)
	// order, stopping early if fn returns false.
	ForEachChild(u int32, fn func(c int32) bool)
	// Leaves returns the suffix offsets of the leaves below u in
	// lexicographic order.
	Leaves(u int32) []int32
	// PathLabel materializes the concatenated edge labels from the root to u.
	PathLabel(u int32) []byte
}

var (
	_ View = (*Tree)(nil)
	_ View = (*FlatTree)(nil)
)

// Edge returns u's edge label window; the heap layout stores it for every
// node, so the parent's depth is not needed.
func (t *Tree) Edge(u, _ int32) (start, end int32) {
	return t.nodes[u].start, t.nodes[u].end
}

// ForEachChild calls fn for every child of u in sibling order, stopping
// early if fn returns false. It is the traversal primitive shared with the
// flat layout (whose children are contiguous runs, not sibling lists).
func (t *Tree) ForEachChild(u int32, fn func(c int32) bool) {
	for c := t.nodes[u].firstChild; c != None; c = t.nodes[c].nextSib {
		if !fn(c) {
			return
		}
	}
}
