package suffixtree

import (
	"encoding/binary"
	"fmt"
)

// FlatTree is the immutable, mmap-native suffix tree layout behind persist
// format v4. Every section is a plain little-endian byte slice — typically a
// window of one memory-mapped index file — so opening an index is O(header):
// no node structs are materialized, no pointers fixed up, and concurrent
// processes serving the same file share one page-cache copy.
//
// The layout is chosen for the descent and occurrence-listing hot paths, and
// sized by what a node has to say:
//
//   - Node ids are one space: internal nodes are ids [0, nInt), the root 0,
//     leaves are ids [nInt, nNodes). An internal node's internal children are
//     one contiguous id run and its leaf children a second one, each sorted
//     by the first symbol of the edge label. Child lookup scans the packed
//     first-symbol array over the two short runs a word at a time — there is
//     no per-node lookup table; ForEachChild is the two-way merge of the runs
//     in symbol order. Which ids the runs get is the writer's business, under
//     one rule: an internal run lies strictly after its parent. FlatBuilder
//     numbers in reverse completion order — a node's children are written
//     when it completes, in front of everything written before — so a whole
//     subtree is one window of records behind its root; images written
//     before it numbered breadth-first, and read the same.
//   - More than half of all nodes are leaves, and a leaf has two facts: where
//     its edge label starts and which suffix it is. Its record is those 8
//     bytes; the edge ends at |S|, the depth is |S| − suffix, the subtree is
//     the leaf itself.
//   - Leaves are also stored once in lexicographic (DFS) order, as
//     delta-varint blocks. Every internal node stores the rank and count of
//     its subtree's leaf range, so Count is O(1) after the descent — no
//     offsets are materialized — and Occurrences is a streaming decode of
//     exactly the range requested.
//   - Every internal edge window is canonical: re-based onto the subtree's
//     lexicographically first suffix o, it ends at o + depth. The path label
//     of a node is therefore one slice of S, S[end−depth:end) — no
//     parent-chain walk and no parent pointers.
//
// A FlatTree built over untrusted bytes (a corrupt or hostile index file)
// never panics: every access clamps ids and offsets to the section bounds —
// internal child runs lie strictly after their parent and inside the
// internal ids, leaf runs inside the leaf ids, edge offsets inside S — so a
// corrupt file can answer wrongly, but cannot loop, over-read, or crash the
// process. NewFlatTree validates only section shapes (O(1)); the per-access
// guards carry the rest, and ValidateView is the full structural check.
//
// Internal record (flatNodeSize bytes, little endian), ids [0, nInt):
//
//	off  0  start      uint32  edge label = S[start:end)
//	off  4  end        uint32
//	off  8  childStart uint32  first internal child id (0 when there is none)
//	off 12  leafChild  uint32  first leaf child id (0 when there is none)
//	off 16  leafStart  uint32  rank of the subtree's first leaf
//	off 20  leafCount  uint32  leaves in the subtree
//	off 24  nInternal  uint16  internal children
//	off 26  nLeaf      uint16  leaf children
//	off 28  depth      uint32  string depth at the bottom of the edge
//
// 32 bytes with two child runs in them, so a record never straddles a cache
// line.
//
// Leaf record (flatLeafSize bytes), ids [nInt, nNodes), stored behind the
// internal records in the same section:
//
//	off  0  edgeStart  uint32  edge label = S[edgeStart:|S|)
//	off  4  suffix     uint32  the suffix offset
type FlatTree struct {
	data     []byte // S including the terminator
	nodes    []byte // nInt internal records, then nLeaves leaf records
	sym      []byte // nNodes bytes: first symbol of each node's edge label
	leafIdx  []byte // per-block byte offsets into leafData
	leafData []byte // delta-varint leaf blocks
	leafBase int    // byte offset of the first leaf record in nodes
	nInt     int32  // internal nodes, the root included
	nNodes   int32
	nLeaves  int32
}

const (
	// flatNodeSize is the bytes per internal node record.
	flatNodeSize = 32
	// flatLeafSize is the bytes per leaf record.
	flatLeafSize = 8
	// flatLeafBlock is the number of leaves per varint block; each block
	// starts with a full value, so decoding a range touches at most
	// flatLeafBlock-1 extra varints before the range.
	flatLeafBlock = 128
	// flatMaxKids bounds a node's children: sibling edges start with distinct
	// byte symbols.
	flatMaxKids = 256
)

// Flat holds the encoded sections of a flattened tree, ready to be written
// as the tree part of a v4 index file (or handed straight to NewFlatTree).
type Flat struct {
	Nodes []byte
	Sym   []byte
	// Dense is always empty: the layout has no child lookup tables. The field
	// (and NewFlatTree's parameter) stays for callers written against them.
	Dense    []byte
	LeafIdx  []byte
	LeafData []byte
	NNodes   int32
	NLeaves  int32
}

// FlatNodesLen is the byte length of the node section of a tree with nInt
// internal nodes and nLeaves leaves.
func FlatNodesLen(nInt, nLeaves int64) int64 {
	return nInt*flatNodeSize + nLeaves*flatLeafSize
}

// NewFlatTree wraps pre-encoded sections (typically windows of one mapped
// file) as a queryable tree over data. The node count is the length of sym
// and the internal-node count what nLeaves leaves of it; the node section
// must hold exactly that many records of each kind, and dense must be empty
// (see Flat.Dense). Validation is O(1) — section shapes only; field values
// inside the records are clamped at access time, so corrupt bytes degrade to
// wrong answers, never to panics or runaway loops.
func NewFlatTree(data, nodes, sym, dense, leafIdx, leafData []byte, nLeaves int32) (*FlatTree, error) {
	nNodes := len(sym)
	if nNodes < 1 || nNodes > 1<<31-1 {
		return nil, fmt.Errorf("suffixtree: first-symbol section holds %d nodes", nNodes)
	}
	if nLeaves < 0 || int(nLeaves) >= nNodes {
		return nil, fmt.Errorf("suffixtree: %d leaves for %d nodes", nLeaves, nNodes)
	}
	nInt := nNodes - int(nLeaves)
	if want := FlatNodesLen(int64(nInt), int64(nLeaves)); int64(len(nodes)) != want {
		return nil, fmt.Errorf("suffixtree: flat node section of %d bytes, want %d for %d internal nodes and %d leaves", len(nodes), want, nInt, nLeaves)
	}
	if len(dense) != 0 {
		return nil, fmt.Errorf("suffixtree: dense table section of %d bytes in a layout without tables", len(dense))
	}
	wantBlocks := (int(nLeaves) + flatLeafBlock - 1) / flatLeafBlock
	if len(leafIdx) != wantBlocks*4 {
		return nil, fmt.Errorf("suffixtree: leaf block index of %d bytes, want %d for %d leaves", len(leafIdx), wantBlocks*4, nLeaves)
	}
	return &FlatTree{
		data: data, nodes: nodes, sym: sym,
		leafIdx: leafIdx, leafData: leafData,
		leafBase: nInt * flatNodeSize,
		nInt:     int32(nInt), nNodes: int32(nNodes), nLeaves: nLeaves,
	}, nil
}

// Data returns the underlying string bytes (terminator included).
func (t *FlatTree) Data() []byte { return t.data }

// Sections returns the encoded sections the tree views — what NewFlatTree
// was given — so a writer emits the image it holds instead of re-encoding it.
func (t *FlatTree) Sections() Flat {
	return Flat{
		Nodes: t.nodes, Sym: t.sym, LeafIdx: t.leafIdx, LeafData: t.leafData,
		NNodes: t.nNodes, NLeaves: t.nLeaves,
	}
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

// leaf returns the edge start and suffix of leaf u, both clamped to [0, |S|];
// u must be in [nInt, nNodes).
func (t *FlatTree) leaf(u int32) (es, suf int32) {
	n := int32(len(t.data))
	w := binary.LittleEndian.Uint64(t.nodes[t.leafBase+int(u-t.nInt)*flatLeafSize:])
	es, suf = int32(uint32(w)), int32(uint32(w>>32))
	if uint32(es) > uint32(n) {
		es = n
	}
	if uint32(suf) > uint32(n) {
		suf = n
	}
	return es, suf
}

// edge returns u's edge label offsets clamped to the string bounds, so the
// descent loops can index data without further checks.
func (t *FlatTree) edge(u int32) (int32, int32) {
	n := int32(len(t.data))
	if u >= t.nInt {
		es, _ := t.leaf(u)
		return es, n
	}
	w := binary.LittleEndian.Uint64(t.rec(u))
	cs := int32(uint32(w))
	ce := int32(uint32(w >> 32))
	if uint32(cs) > uint32(n) {
		cs = n // negative or past the string: unsigned compare catches both
	}
	if uint32(ce) > uint32(n) {
		ce = n
	}
	if ce < cs {
		ce = cs
	}
	return cs, ce
}

// kids returns the two child runs of internal node u from its record r: ci
// internal children from id cs and cl leaf children from id ls. A corrupt run
// reads as empty: internal runs must lie strictly after u and inside the
// internal ids — the invariant that makes every descent terminate — and leaf
// runs inside the leaf ids.
func (t *FlatTree) kids(r []byte, u int32) (cs, ci, ls, cl int32) {
	w := binary.LittleEndian.Uint64(r[8:])
	k := binary.LittleEndian.Uint32(r[24:])
	cs, ls = int32(uint32(w)), int32(uint32(w>>32))
	ci, cl = int32(k&0xffff), int32(k>>16)
	if cs <= u || cs > t.nInt-ci {
		ci = 0
	}
	if ls < t.nInt || ls > t.nNodes-cl {
		cl = 0
	}
	return cs, ci, ls, cl
}

// leafRange returns internal node u's leaf range clamped to [0, nLeaves).
func (t *FlatTree) leafRange(u int32) (int32, int32) {
	r := t.rec(u)
	ls := int32(binary.LittleEndian.Uint32(r[16:]))
	lc := int32(binary.LittleEndian.Uint32(r[20:]))
	if ls < 0 || ls >= t.nLeaves {
		return 0, 0
	}
	if lc < 0 || lc > t.nLeaves-ls {
		lc = t.nLeaves - ls
	}
	return ls, lc
}

// EdgeStart returns the start offset of u's edge label.
func (t *FlatTree) EdgeStart(u int32) int32 {
	if !t.valid(u) {
		return 0
	}
	s, _ := t.edge(u)
	return s
}

// EdgeEnd returns the end offset of u's edge label.
func (t *FlatTree) EdgeEnd(u int32) int32 {
	if !t.valid(u) {
		return 0
	}
	_, e := t.edge(u)
	return e
}

// EdgeLen returns the length of u's edge label.
func (t *FlatTree) EdgeLen(u int32) int32 {
	if !t.valid(u) {
		return 0
	}
	s, e := t.edge(u)
	return e - s
}

// Depth returns the string depth of u (path length from the root): the
// length of its path window. O(1) for either kind of node.
func (t *FlatTree) Depth(u int32) int32 {
	o, e := t.pathWindow(u)
	return e - o
}

// pathWindow returns the window of S that spells u's path label: from the
// lexicographically first suffix below u to the end of u's (canonical) edge.
// Invalid ids and corrupt records yield an empty window.
func (t *FlatTree) pathWindow(u int32) (o, e int32) {
	if !t.valid(u) {
		return 0, 0
	}
	if u >= t.nInt {
		_, o = t.leaf(u)
		return o, int32(len(t.data))
	}
	_, e = t.edge(u)
	d := int32(binary.LittleEndian.Uint32(t.rec(u)[28:]))
	if d < 0 || d > e {
		return 0, 0
	}
	return e - d, e
}

// IsLeaf reports whether u is a leaf: the id alone decides.
func (t *FlatTree) IsLeaf(u int32) bool { return u < 0 || u >= t.nInt }

// Suffix returns the suffix offset for a leaf, or -1 for internal nodes.
func (t *FlatTree) Suffix(u int32) int32 {
	if !t.valid(u) || u < t.nInt {
		return -1
	}
	_, suf := t.leaf(u)
	return suf
}

// CountLeaves returns the number of leaves below u — O(1) in the flat
// layout: the subtree's leaf range is precomputed at encode time.
func (t *FlatTree) CountLeaves(u int32) int {
	if !t.valid(u) {
		return 0
	}
	if u >= t.nInt {
		return 1
	}
	_, lc := t.leafRange(u)
	return int(lc)
}

// ForEachChild calls fn for every child of u in first-symbol order — the
// merge of the internal and the leaf run — stopping early if fn returns
// false.
func (t *FlatTree) ForEachChild(u int32, fn func(c int32) bool) {
	if u < 0 || u >= t.nInt {
		return
	}
	i, ci, l, cl := t.kids(t.rec(u), u)
	for ie, le := i+ci, l+cl; i < ie || l < le; {
		c := l
		if l == le || (i < ie && t.sym[i] < t.sym[l]) {
			c = i
			i++
		} else {
			l++
		}
		if !fn(c) {
			return
		}
	}
}

// firstChild returns u's child with the smallest first symbol, or None for a
// leaf (or a corrupt internal record without children).
func (t *FlatTree) firstChild(u int32) int32 {
	if u >= t.nInt {
		return None
	}
	cs, ci, ls, cl := t.kids(t.rec(u), u)
	switch {
	case ci == 0 && cl == 0:
		return None
	case cl == 0 || (ci > 0 && t.sym[cs] < t.sym[ls]):
		return cs
	}
	return ls
}

// lookupChild returns the child of internal node u (record r) whose edge
// label starts with b, or None: a word-parallel scan of the packed first
// symbols of the two contiguous child runs.
func (t *FlatTree) lookupChild(r []byte, u int32, b byte) int32 {
	cs, ci, ls, cl := t.kids(r, u)
	if ci > 0 {
		if j := findSym(t.sym, cs, ci, b); j >= 0 {
			return cs + j
		}
	}
	if cl > 0 {
		if j := findSym(t.sym, ls, cl, b); j >= 0 {
			return ls + j
		}
	}
	return None
}

// Find matches pattern from the root and returns the locus where the match
// ends, or ok=false if the pattern does not occur in S. The descent holds
// one node record at a time and compares edge labels a word at a time.
func (t *FlatTree) Find(pattern []byte) (Locus, bool) {
	cur := int32(0)
	r := t.rec(cur)
	i := 0
	for i < len(pattern) {
		c := t.lookupChild(r, cur, pattern[i])
		if c == None {
			return Locus{}, false
		}
		cs, ce := t.edge(c)
		// The child lookup already matched the first edge symbol (sym[c] is
		// data[cs] in any valid image), so the label compare starts one byte
		// in — and single-symbol edges, the common case near the root, skip
		// it entirely.
		k := 1
		if ce-cs > 1 && len(pattern)-i > 1 {
			k += commonPrefixLen(t.data[cs+1:ce], pattern[i+1:])
		}
		i += k
		if i == len(pattern) {
			return Locus{Node: c, Depth: int32(k)}, true
		}
		if int32(k) < ce-cs || c >= t.nInt {
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
// label is compared a word at a time.
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
	cs, ce := t.edge(cur)
	for i < len(pattern) {
		if depth >= ce-cs {
			if cur >= t.nInt {
				return i // a leaf has no children
			}
			c := t.lookupChild(t.rec(cur), cur, pattern[i])
			if c == None {
				return i
			}
			cur = c
			cs, ce = t.edge(cur)
			// The child lookup matched the first edge symbol; record it and
			// move on — single-symbol edges never reach the label compare.
			trace[i] = Locus{Node: cur, Depth: 1}
			i++
			depth = 1
			if i >= len(pattern) || depth >= ce-cs {
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
// are decoded or materialized.
func (t *FlatTree) Count(pattern []byte) int {
	loc, ok := t.Find(pattern)
	if !ok {
		return 0
	}
	return t.CountLeaves(loc.Node)
}

// Occurrences returns the start offsets of every occurrence of pattern in
// lexicographic suffix order: one streaming decode of the locus node's leaf
// range, appended straight into the result buffer.
func (t *FlatTree) Occurrences(pattern []byte) []int32 {
	loc, ok := t.Find(pattern)
	if !ok {
		return nil
	}
	return t.Leaves(loc.Node)
}

// Leaves returns the suffix offsets of the leaves below u in lexicographic
// order: a leaf's own suffix, or an internal node's range decoded from the
// delta-varint leaf blocks.
func (t *FlatTree) Leaves(u int32) []int32 {
	if !t.valid(u) {
		return nil
	}
	if u >= t.nInt {
		_, suf := t.leaf(u)
		return []int32{suf}
	}
	ls, lc := t.leafRange(u)
	if lc == 0 {
		return nil
	}
	return t.appendLeafRange(make([]int32, 0, lc), int(ls), int(lc))
}

// appendLeafRange decodes leaf ranks [start, start+count) into dst. On
// corrupt varint data it returns what decoded cleanly.
func (t *FlatTree) appendLeafRange(dst []int32, start, count int) []int32 {
	for count > 0 {
		b := start / flatLeafBlock
		skip := start % flatLeafBlock
		if (b+1)*4 > len(t.leafIdx) {
			return dst
		}
		off := int(binary.LittleEndian.Uint32(t.leafIdx[b*4:]))
		inBlock := int(t.nLeaves) - b*flatLeafBlock
		if inBlock > flatLeafBlock {
			inBlock = flatLeafBlock
		}
		var val int32
		for j := 0; j < inBlock; j++ {
			if off >= len(t.leafData) {
				return dst
			}
			v, n := binary.Uvarint(t.leafData[off:])
			if n <= 0 {
				return dst
			}
			off += n
			if j == 0 {
				val = int32(v)
			} else {
				val += unzigzag32(v)
			}
			if j >= skip {
				dst = append(dst, val)
				count--
				if count == 0 {
					return dst
				}
			}
		}
		start = (b + 1) * flatLeafBlock
	}
	return dst
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

// WalkDFS visits every node reachable from u in depth-first order, children
// in first-symbol order, exactly as the heap layout's WalkDFS does — both are
// the shared Walk, whose NumNodes visit budget bounds it on corrupt files.
func (t *FlatTree) WalkDFS(u int32, fn func(id, depth int32) bool) {
	if t.valid(u) {
		Walk(t, u, fn)
	}
}

// LongestRepeatedSubstring returns the longest substring of S occurring at
// least twice, with the offsets of its occurrences; ties break exactly as in
// the heap layout — both delegate to the shared LongestRepeated.
func (t *FlatTree) LongestRepeatedSubstring() ([]byte, []int32) {
	return LongestRepeated(t, nil)
}

// MaximalRepeats calls fn for every internal node whose path label has
// length ≥ minLen and occurs at least minOcc times; DFS order, subtree
// skipped when fn returns false — identical semantics to the heap layout,
// both delegating to the shared VisitRepeats.
func (t *FlatTree) MaximalRepeats(minLen int32, minOcc int, fn func(node int32, depth int32, occ int) bool) {
	VisitRepeats(t, minLen, minOcc, fn)
}

// unzigzag32 decodes the zigzag form of a signed 32-bit delta.
func unzigzag32(v uint64) int32 {
	return int32(uint32(v)>>1) ^ -int32(v&1)
}

// zigzag32 encodes a signed 32-bit delta for varint storage.
func zigzag32(d int32) uint64 {
	return uint64(uint32(d<<1) ^ uint32(d>>31))
}
