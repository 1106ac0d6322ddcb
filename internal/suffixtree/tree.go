// Package suffixtree defines the suffix tree layouts of this repository:
// FlatTree, the immutable layout that serves every query (flat.go, walk.go),
// with its encoders (flatbuild.go, shards.go), and Tree, the heap layout the
// construction algorithms build in.
//
// A Tree does construction and validation only, never queries: ERa-str and
// the four competitor builders grow one, Validate checks it, WriteTo charges
// its record stream to the simulated disk, and Flatten turns a complete one
// into the flat image, which is how the tests compare builders.
//
// A Tree is a compacted trie over the suffixes of a terminated string S.
// Edges store (start, end) offsets into S instead of label bytes, giving the
// O(n) space representation the paper assumes (§2). Nodes live in a flat
// array; sibling lists are kept sorted by the first symbol of the edge label
// so a depth-first traversal enumerates suffixes in lexicographic order.
//
// Canonical symbol order: the terminator '$' ranks below every alphabet
// symbol (plain byte order — enforced by package alphabet). The paper's
// worked example ranks '$' last; the tree shape is identical, only sibling
// order and therefore leaf order differ.
package suffixtree

import (
	"fmt"

	"era/internal/seq"
)

// None marks an absent node link.
const None int32 = -1

// NodeSize is the bytes-per-node constant used by the paper's memory
// accounting (Eq. 1: FM = MTS / (2 · sizeof(tree node))). It matches the
// in-memory size of the node struct below.
const NodeSize = 24

// node is one suffix tree node. The edge (start, end) labels the edge from
// the node's parent; the root has start == end == 0.
type node struct {
	start, end int32 // edge label = S[start:end)
	parent     int32
	firstChild int32 // None for leaves
	nextSib    int32
	suffix     int32 // leaf: suffix start offset in S; internal: -1
}

// Tree is a suffix tree (or sub-tree) over a string S.
// Construct with New; node 0 is the root.
type Tree struct {
	s     seq.String
	nodes []node
}

// New returns a tree over s containing only the root.
func New(s seq.String) *Tree {
	t := &Tree{s: s}
	t.nodes = append(t.nodes, node{parent: None, firstChild: None, nextSib: None, suffix: -1})
	return t
}

// Root returns the root node id (always 0).
func (t *Tree) Root() int32 { return 0 }

// NumNodes returns the number of nodes including the root.
func (t *Tree) NumNodes() int { return len(t.nodes) }

// SizeBytes returns the accounted in-memory size of the node array.
func (t *Tree) SizeBytes() int64 { return int64(len(t.nodes)) * NodeSize }

// NewNode appends a detached node with the given edge offsets and suffix
// label (use -1 for internal nodes) and returns its id.
func (t *Tree) NewNode(start, end, suffix int32) int32 {
	id := int32(len(t.nodes))
	t.nodes = append(t.nodes, node{
		start: start, end: end,
		parent: None, firstChild: None, nextSib: None,
		suffix: suffix,
	})
	return id
}

// Parent returns u's parent (None for the root).
func (t *Tree) Parent(u int32) int32 { return t.nodes[u].parent }

// FirstChild returns u's first child (None for leaves).
func (t *Tree) FirstChild(u int32) int32 { return t.nodes[u].firstChild }

// NextSibling returns u's next sibling (None if last).
func (t *Tree) NextSibling(u int32) int32 { return t.nodes[u].nextSib }

// Suffix returns the suffix offset for a leaf, or -1 for internal nodes.
func (t *Tree) Suffix(u int32) int32 { return t.nodes[u].suffix }

// EdgeStart returns the start offset of u's edge label.
func (t *Tree) EdgeStart(u int32) int32 { return t.nodes[u].start }

// EdgeEnd returns the end offset of u's edge label.
func (t *Tree) EdgeEnd(u int32) int32 { return t.nodes[u].end }

// EdgeLen returns the length of u's edge label.
func (t *Tree) EdgeLen(u int32) int32 { return t.nodes[u].end - t.nodes[u].start }

// IsLeaf reports whether u has no children.
func (t *Tree) IsLeaf(u int32) bool { return t.nodes[u].firstChild == None }

// SetEdgeEnd moves the end offset of u's edge label; used by the level-wise
// builders (ERa-str, WaveFront) that extend open edges in place.
func (t *Tree) SetEdgeEnd(u, end int32) { t.nodes[u].end = end }

// SetSuffix labels u as the leaf of the suffix starting at offset o.
func (t *Tree) SetSuffix(u, o int32) { t.nodes[u].suffix = o }

// firstSymbol returns the first symbol of u's edge label.
func (t *Tree) firstSymbol(u int32) byte { return t.s.At(int(t.nodes[u].start)) }

// AttachLast links child as the last child of parent. The caller asserts the
// child's first symbol ranks after every existing sibling (builders that emit
// children in lexicographic order use this O(1)-amortized path... the walk to
// the end is linear in sibling count, bounded by the alphabet size).
func (t *Tree) AttachLast(parent, child int32) {
	t.nodes[child].parent = parent
	t.nodes[child].nextSib = None
	c := t.nodes[parent].firstChild
	if c == None {
		t.nodes[parent].firstChild = child
		return
	}
	for t.nodes[c].nextSib != None {
		c = t.nodes[c].nextSib
	}
	t.nodes[c].nextSib = child
}

// AttachSorted links child under parent keeping siblings sorted by first
// edge symbol. It returns an error if a sibling already starts with the same
// symbol (which would violate the suffix tree property).
func (t *Tree) AttachSorted(parent, child int32) error {
	sym := t.firstSymbol(child)
	t.nodes[child].parent = parent
	prev := None
	c := t.nodes[parent].firstChild
	for c != None && t.firstSymbol(c) < sym {
		prev, c = c, t.nodes[c].nextSib
	}
	if c != None && t.firstSymbol(c) == sym {
		return fmt.Errorf("suffixtree: node %d already has a child starting with %q", parent, sym)
	}
	t.nodes[child].nextSib = c
	if prev == None {
		t.nodes[parent].firstChild = child
	} else {
		t.nodes[prev].nextSib = child
	}
	return nil
}

// SplitEdge breaks the edge leading to u after depth symbols, inserting and
// returning a new internal node m: parent(u) -e1-> m -e2-> u, where e1 is the
// first depth symbols of u's old label.
func (t *Tree) SplitEdge(u int32, depth int32) int32 {
	n := &t.nodes[u]
	if depth <= 0 || depth >= n.end-n.start {
		panic(fmt.Sprintf("suffixtree: split depth %d outside edge of length %d", depth, n.end-n.start))
	}
	parent := n.parent
	m := t.NewNode(n.start, n.start+depth, -1)

	// m takes u's place in the sibling list.
	t.nodes[m].parent = parent
	t.nodes[m].nextSib = t.nodes[u].nextSib
	if t.nodes[parent].firstChild == u {
		t.nodes[parent].firstChild = m
	} else {
		c := t.nodes[parent].firstChild
		for t.nodes[c].nextSib != u {
			c = t.nodes[c].nextSib
		}
		t.nodes[c].nextSib = m
	}

	// u becomes m's only child with the remainder of the label.
	t.nodes[u].start += depth
	t.nodes[u].parent = m
	t.nodes[u].nextSib = None
	t.nodes[m].firstChild = u
	return m
}

// Child returns the child of u whose edge label starts with sym, or None.
func (t *Tree) Child(u int32, sym byte) int32 {
	for c := t.nodes[u].firstChild; c != None; c = t.nodes[c].nextSib {
		if s := t.firstSymbol(c); s == sym {
			return c
		} else if s > sym {
			return None
		}
	}
	return None
}

// WalkDFS visits every node reachable from u in depth-first order, children
// in sibling order; fn receives the node id and its string depth. If fn
// returns false the subtree below the node is skipped.
func (t *Tree) WalkDFS(u int32, fn func(id, depth int32) bool) {
	type frame struct {
		id    int32
		depth int32
	}
	stack := make([]frame, 0, 64)
	stack = append(stack, frame{u, t.EdgeLen(u)})
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if !fn(f.id, f.depth) {
			continue
		}
		// Push children onto the stack, then reverse the pushed run so the
		// first child pops first (no per-node scratch slice).
		mark := len(stack)
		for c := t.nodes[f.id].firstChild; c != None; c = t.nodes[c].nextSib {
			stack = append(stack, frame{c, f.depth + t.EdgeLen(c)})
		}
		for i, j := mark, len(stack)-1; i < j; i, j = i+1, j-1 {
			stack[i], stack[j] = stack[j], stack[i]
		}
	}
}
