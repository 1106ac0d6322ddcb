package suffixtree

// View is the layout-agnostic query surface of a suffix tree: Contains/Count/
// Occurrences, the prefix-resumable descent and the repeat queries, with no
// commitment to how nodes are stored. It is the seam the walks (walk.go) and
// Flatten share between two layouts:
//
//   - *FlatTree, the immutable mmap-native layout of the index file format
//     (child runs contiguous and sorted by first symbol, O(1) subtree leaf
//     counts, delta-varint leaf blocks) — see flat.go. It is the only layout
//     the era package serves from, and it holds it concretely;
//   - *Tree, the mutable heap layout construction, the competitor builders
//     and the test oracles work on (sibling-linked nodes, edge offsets into a
//     seq.String) — a reference, not a serving path.
//
// The differential tests in flat_test.go pin the two layouts to byte-identical
// answers.
type View interface {
	// Root returns the root node id.
	Root() int32
	// NumNodes returns the number of nodes including the root.
	NumNodes() int
	// EdgeStart returns the start offset of u's edge label in S.
	EdgeStart(u int32) int32
	// EdgeEnd returns the end offset of u's edge label in S.
	EdgeEnd(u int32) int32
	// EdgeLen returns the length of u's edge label.
	EdgeLen(u int32) int32
	// IsLeaf reports whether u has no children.
	IsLeaf(u int32) bool
	// Suffix returns the suffix offset for a leaf, or -1 for internal nodes.
	Suffix(u int32) int32
	// ForEachChild calls fn for every child of u in sibling (first-symbol)
	// order, stopping early if fn returns false.
	ForEachChild(u int32, fn func(c int32) bool)
	// Find matches pattern from the root; see Tree.Find.
	Find(pattern []byte) (Locus, bool)
	// MatchTrace is the prefix-resumable descent; see Tree.MatchTrace.
	MatchTrace(pattern []byte, from int, trace []Locus) int
	// Contains reports whether pattern occurs in S.
	Contains(pattern []byte) bool
	// Count returns the number of occurrences of pattern in S.
	Count(pattern []byte) int
	// Occurrences returns the start offsets of every occurrence of pattern,
	// in lexicographic suffix order.
	Occurrences(pattern []byte) []int32
	// CountLeaves returns the number of leaves below u.
	CountLeaves(u int32) int
	// Leaves returns the suffix offsets of the leaves below u in
	// lexicographic order.
	Leaves(u int32) []int32
	// PathLabel materializes the concatenated edge labels from the root to u.
	PathLabel(u int32) []byte
	// LongestRepeatedSubstring returns the longest substring of S occurring
	// at least twice, with its occurrence offsets.
	LongestRepeatedSubstring() ([]byte, []int32)
	// MaximalRepeats visits internal nodes by label length and occurrence
	// count; see Tree.MaximalRepeats.
	MaximalRepeats(minLen int32, minOcc int, fn func(node int32, depth int32, occ int) bool)
}

var (
	_ View = (*Tree)(nil)
	_ View = (*FlatTree)(nil)
)

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
