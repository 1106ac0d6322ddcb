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
// The layout is chosen for the descent and occurrence-listing hot paths:
//
//   - Nodes are numbered in BFS order, so the children of a node occupy a
//     contiguous id run sorted by the first symbol of their edge labels.
//     Child lookup is a binary search over the packed first-symbol array
//     (one cache line covers 64 children); nodes with ≥ flatDenseMin
//     children (the root, and branchy nodes near it) carry a dense 256-entry
//     first-symbol → child table resolved with a single probe.
//   - Leaves are stored once, in lexicographic (DFS) order, as delta-varint
//     blocks. Every node stores the rank and count of its subtree's leaf
//     range, so Count is O(1) after the descent — no offsets are
//     materialized — and Occurrences is a streaming decode of exactly the
//     range requested.
//   - Each node stores its string depth, so PathLabel is a single slice of S
//     (first leaf's suffix + depth) instead of a parent-chain walk; the flat
//     layout stores no parent pointers at all.
//
// A FlatTree built over untrusted bytes (a corrupt or hostile index file)
// never panics: every access clamps ids and offsets to the section bounds,
// and descent only ever follows child ids larger than the current node — a
// corrupt file can answer wrongly, but cannot loop, over-read, or crash the
// process. NewFlatTree validates only section shapes (O(1)); the per-access
// guards carry the rest.
//
// Node record (flatNodeSize = 32 bytes, little endian):
//
//	off  0  start      uint32  edge label = S[start:end)
//	off  4  end        uint32
//	off  8  depth      uint32  string depth of the node
//	off 12  childStart uint32  first child id (contiguous run); 0 = leaf
//	off 16  leafStart  uint32  rank of the subtree's first leaf
//	off 20  leafCount  uint32  leaves in the subtree (1 for a leaf)
//	off 24  aux        uint32  leaf: suffix offset; internal: dense-table
//	                           index + 1, or 0 when the node has no table
//	off 28  childCount uint16
//	off 30  flags      uint16  reserved (0)
type FlatTree struct {
	data     []byte // S including the terminator
	nodes    []byte // nNodes × flatNodeSize records
	sym      []byte // nNodes bytes: first symbol of each node's edge label
	dense    []byte // dense child tables, 256 × uint32 each
	leafIdx  []byte // per-block byte offsets into leafData
	leafData []byte // delta-varint leaf blocks
	nNodes   int32
	nLeaves  int32
}

const (
	// flatNodeSize is the bytes per flat node record.
	flatNodeSize = 32
	// flatLeafBlock is the number of leaves per varint block; each block
	// starts with a full value, so decoding a range touches at most
	// flatLeafBlock-1 extra varints before the range.
	flatLeafBlock = 128
	// flatDenseBytes is the size of one dense child table (256 × uint32).
	flatDenseBytes = 256 * 4
	// flatDenseMin is the child count at which a node gets a dense table;
	// below it the word-parallel scan of the packed first-symbol run wins.
	// 8 puts a table on the branchy top levels of text-alphabet trees (the
	// hottest descent steps) at ~1 KiB per qualifying node; readers follow
	// whatever threshold the image was written with, so older images with
	// the previous threshold (16) stay valid.
	flatDenseMin = 8
)

// Flat holds the encoded sections of a flattened tree, ready to be written
// as the tree part of a v4 index file (or handed straight to NewFlatTree).
type Flat struct {
	Nodes    []byte
	Sym      []byte
	Dense    []byte
	LeafIdx  []byte
	LeafData []byte
	NNodes   int32
	NLeaves  int32
}

// NewFlatTree wraps pre-encoded sections (typically windows of one mapped
// file) as a queryable tree over data. Validation is O(1) — section shapes
// only; field values inside the records are clamped at access time, so
// corrupt bytes degrade to wrong answers, never to panics or runaway loops.
func NewFlatTree(data, nodes, sym, dense, leafIdx, leafData []byte, nLeaves int32) (*FlatTree, error) {
	if len(nodes) == 0 || len(nodes)%flatNodeSize != 0 {
		return nil, fmt.Errorf("suffixtree: flat node section of %d bytes is not a multiple of %d", len(nodes), flatNodeSize)
	}
	nNodes := len(nodes) / flatNodeSize
	if nNodes > 1<<31-1 {
		return nil, fmt.Errorf("suffixtree: flat node section holds %d nodes", nNodes)
	}
	if len(sym) != nNodes {
		return nil, fmt.Errorf("suffixtree: first-symbol section of %d bytes for %d nodes", len(sym), nNodes)
	}
	if len(dense)%flatDenseBytes != 0 {
		return nil, fmt.Errorf("suffixtree: dense table section of %d bytes is not a multiple of %d", len(dense), flatDenseBytes)
	}
	if nLeaves < 0 || int(nLeaves) > nNodes {
		return nil, fmt.Errorf("suffixtree: %d leaves for %d nodes", nLeaves, nNodes)
	}
	wantBlocks := (int(nLeaves) + flatLeafBlock - 1) / flatLeafBlock
	if len(leafIdx) != wantBlocks*4 {
		return nil, fmt.Errorf("suffixtree: leaf block index of %d bytes, want %d for %d leaves", len(leafIdx), wantBlocks*4, nLeaves)
	}
	return &FlatTree{
		data: data, nodes: nodes, sym: sym, dense: dense,
		leafIdx: leafIdx, leafData: leafData,
		nNodes: int32(nNodes), nLeaves: nLeaves,
	}, nil
}

// Data returns the underlying string bytes (terminator included).
func (t *FlatTree) Data() []byte { return t.data }

// Root returns the root node id (always 0).
func (t *FlatTree) Root() int32 { return 0 }

// NumNodes returns the number of nodes including the root.
func (t *FlatTree) NumNodes() int { return int(t.nNodes) }

// NumLeaves returns the total leaf count.
func (t *FlatTree) NumLeaves() int { return int(t.nLeaves) }

// rec returns the record window for node u; u must be in range.
func (t *FlatTree) rec(u int32) []byte {
	return t.nodes[int(u)*flatNodeSize : int(u)*flatNodeSize+flatNodeSize]
}

func (t *FlatTree) valid(u int32) bool { return u >= 0 && u < t.nNodes }

// edge returns u's edge label offsets clamped to the string bounds, so the
// descent loops can index data without further checks.
func (t *FlatTree) edge(u int32) (int32, int32) {
	return t.edgeOf(t.rec(u))
}

// edgeOf is edge for a record window the caller already holds — the fused
// descent loops read each 32-byte record exactly once.
func (t *FlatTree) edgeOf(r []byte) (int32, int32) {
	n := int32(len(t.data))
	w := binary.LittleEndian.Uint64(r[0:8])
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

// children returns u's child run [cs, cs+cc), or (0, 0) for leaves and for
// corrupt records (runs must lie strictly after u and inside the node
// section — the invariant that makes every descent terminate).
func (t *FlatTree) children(u int32) (int32, int32) {
	r := t.rec(u)
	cs := int32(binary.LittleEndian.Uint32(r[12:]))
	cc := int32(binary.LittleEndian.Uint16(r[28:]))
	if cs <= u || cc <= 0 || cs > t.nNodes-cc {
		return 0, 0
	}
	return cs, cc
}

// leafRange returns u's leaf range clamped to [0, nLeaves).
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

// Depth returns the string depth of u (path length from the root).
func (t *FlatTree) Depth(u int32) int32 {
	if !t.valid(u) {
		return 0
	}
	d := int32(binary.LittleEndian.Uint32(t.rec(u)[8:]))
	if d < 0 {
		return 0
	}
	return d
}

// IsLeaf reports whether u has no children.
func (t *FlatTree) IsLeaf(u int32) bool {
	if !t.valid(u) {
		return true
	}
	cs, cc := t.children(u)
	return cs == 0 && cc == 0
}

// Suffix returns the suffix offset for a leaf, or -1 for internal nodes.
func (t *FlatTree) Suffix(u int32) int32 {
	if !t.valid(u) || !t.IsLeaf(u) {
		return -1
	}
	return t.leafSuffix(u)
}

// leafSuffix is Suffix for a node the caller knows is a valid leaf.
func (t *FlatTree) leafSuffix(u int32) int32 {
	return int32(binary.LittleEndian.Uint32(t.rec(u)[24:]))
}

// CountLeaves returns the number of leaves below u — O(1) in the flat
// layout: the subtree's leaf range is precomputed at encode time.
func (t *FlatTree) CountLeaves(u int32) int {
	if !t.valid(u) {
		return 0
	}
	_, lc := t.leafRange(u)
	return int(lc)
}

// ForEachChild calls fn for every child of u in first-symbol order,
// stopping early if fn returns false.
func (t *FlatTree) ForEachChild(u int32, fn func(c int32) bool) {
	if !t.valid(u) {
		return
	}
	cs, cc := t.children(u)
	for c := cs; c < cs+cc; c++ {
		if !fn(c) {
			return
		}
	}
}

// Child returns the child of u whose edge label starts with b, or None.
// Branchy nodes resolve with one dense-table probe; the rest binary-search
// the packed first-symbol run of the contiguous child ids.
func (t *FlatTree) Child(u int32, b byte) int32 {
	if !t.valid(u) {
		return None
	}
	cs, cc := t.children(u)
	if cc == 0 {
		return None
	}
	if aux := binary.LittleEndian.Uint32(t.rec(u)[24:]); aux != 0 {
		off := (int(aux) - 1) * flatDenseBytes
		if off >= 0 && off+flatDenseBytes <= len(t.dense) {
			c := int32(binary.LittleEndian.Uint32(t.dense[off+int(b)*4:]))
			if c <= u || c >= t.nNodes {
				return None // 0 = absent; anything ≤ u would break termination
			}
			return c
		}
		// Corrupt table reference: fall through to the run scan.
	}
	if j := findSym(t.sym, cs, cc, b); j >= 0 {
		return cs + j
	}
	return None
}

// lookupChild is Child for a record window the caller already holds — the
// fused descent loops decode each 32-byte record exactly once.
func (t *FlatTree) lookupChild(r []byte, u int32, b byte) int32 {
	cs := int32(binary.LittleEndian.Uint32(r[12:]))
	cc := int32(binary.LittleEndian.Uint16(r[28:]))
	if cs <= u || cc <= 0 || cs > t.nNodes-cc {
		return None
	}
	if aux := binary.LittleEndian.Uint32(r[24:]); aux != 0 {
		off := (int(aux) - 1) * flatDenseBytes
		if off >= 0 && off+flatDenseBytes <= len(t.dense) {
			c := int32(binary.LittleEndian.Uint32(t.dense[off+int(b)*4:]))
			if c <= u || c >= t.nNodes {
				return None // 0 = absent; anything ≤ u would break termination
			}
			return c
		}
		// Corrupt table reference: fall through to the run scan.
	}
	if j := findSym(t.sym, cs, cc, b); j >= 0 {
		return cs + j
	}
	return None
}

// Find matches pattern from the root and returns the locus where the match
// ends, or ok=false if the pattern does not occur in S. The descent reads
// each node record once and compares edge labels a word at a time.
func (t *FlatTree) Find(pattern []byte) (Locus, bool) {
	cur := int32(0)
	r := t.rec(cur)
	i := 0
	for i < len(pattern) {
		c := t.lookupChild(r, cur, pattern[i])
		if c == None {
			return Locus{}, false
		}
		r = t.rec(c)
		cs, ce := t.edgeOf(r)
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
		if int32(k) < ce-cs {
			return Locus{}, false
		}
		cur = c
	}
	e0, e1 := t.edgeOf(r)
	return Locus{Node: cur, Depth: e1 - e0}, true
}

// MatchTrace matches pattern against the tree with per-symbol loci, resuming
// from trace[from-1]; see Tree.MatchTrace for the contract. The two layouts
// produce identical traces for identical trees. Like Find, the descent is
// fused: one record read per node, word-at-a-time label comparison.
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
	r := t.rec(cur)
	for i < len(pattern) {
		cs, ce := t.edgeOf(r)
		if depth >= ce-cs {
			c := t.lookupChild(r, cur, pattern[i])
			if c == None {
				return i
			}
			cur = c
			r = t.rec(cur)
			cs, ce = t.edgeOf(r)
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
// order, decoded from the delta-varint leaf blocks.
func (t *FlatTree) Leaves(u int32) []int32 {
	if !t.valid(u) {
		return nil
	}
	_, lc := t.leafRange(u)
	if lc == 0 {
		return nil
	}
	return t.AppendLeaves(make([]int32, 0, lc), u)
}

// AppendLeaves appends u's leaf offsets to dst (in lexicographic order) and
// returns the extended slice — the allocation-free form of Leaves for
// callers that reuse a reply buffer.
func (t *FlatTree) AppendLeaves(dst []int32, u int32) []int32 {
	if !t.valid(u) {
		return dst
	}
	ls, lc := t.leafRange(u)
	return t.appendLeafRange(dst, int(ls), int(lc))
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

// leafAt returns the suffix offset of the leaf with lexicographic rank r.
func (t *FlatTree) leafAt(r int32) (int32, bool) {
	if r < 0 || r >= t.nLeaves {
		return 0, false
	}
	var one [1]int32
	out := t.appendLeafRange(one[:0], int(r), 1)
	if len(out) != 1 {
		return 0, false
	}
	return out[0], true
}

// PathLabel materializes the concatenated edge labels from the root to u.
// The flat layout stores no parent pointers; instead the label is read
// directly out of S as the depth-long prefix of the subtree's first suffix.
func (t *FlatTree) PathLabel(u int32) []byte {
	if u == 0 || !t.valid(u) {
		return nil
	}
	d := t.Depth(u)
	var o int32
	if t.IsLeaf(u) {
		o = t.Suffix(u)
	} else {
		ls, lc := t.leafRange(u)
		if lc == 0 {
			return nil
		}
		v, ok := t.leafAt(ls)
		if !ok {
			return nil
		}
		o = v
	}
	n := int32(len(t.data))
	if o < 0 || o > n {
		return nil
	}
	if d > n-o {
		d = n - o
	}
	out := make([]byte, d)
	copy(out, t.data[o:o+d])
	return out
}

// WalkDFS visits every node reachable from u in depth-first order, children
// in first-symbol order; fn receives the node id and its string depth. If fn
// returns false the subtree below the node is skipped. Traversal order (and
// therefore every tie-break built on it) matches the heap layout's WalkDFS.
// A visit budget of NumNodes bounds the walk on corrupt files whose child
// runs overlap.
func (t *FlatTree) WalkDFS(u int32, fn func(id, depth int32) bool) {
	if !t.valid(u) {
		return
	}
	stack := make([]int32, 0, 64)
	stack = append(stack, u)
	budget := int(t.nNodes)
	for len(stack) > 0 && budget > 0 {
		budget--
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if !fn(id, t.Depth(id)) {
			continue
		}
		cs, cc := t.children(id)
		for c := cs + cc - 1; c >= cs; c-- {
			stack = append(stack, c)
		}
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

// Flatten encodes any tree view over data into the flat sections. It is the
// v2/v3 → v4 conversion heart: the heap tree a builder produced (or another
// FlatTree being re-written) is renumbered BFS so child runs are contiguous
// and sorted, subtree leaf ranges and depths are precomputed, branchy nodes
// get dense child tables, and the leaf sequence is delta-varint packed.
// Node ids in v must be dense in [0, NumNodes), which both layouts
// guarantee; every leaf must carry a suffix offset within data.
func Flatten(v View, data []byte) (*Flat, error) {
	n := v.NumNodes()
	if n < 1 {
		return nil, fmt.Errorf("suffixtree: flatten of an empty tree")
	}
	if int64(n)*flatNodeSize > int64(1)<<40 {
		return nil, fmt.Errorf("suffixtree: %d nodes exceed the flat layout's bounds", n)
	}
	root := v.Root()

	// Pass 1 — DFS over the source ids: string depth (pre-order), the leaf
	// sequence in lexicographic order, and each subtree's leaf range.
	depth := make([]int32, n)
	leafStart := make([]int32, n)
	leafCount := make([]int32, n)
	leaves := make([]int32, 0, (n+1)/2)
	type frame struct {
		id   int32
		post bool
	}
	stack := make([]frame, 0, 64)
	stack = append(stack, frame{root, false})
	depth[root] = v.EdgeLen(root) // 0 for a real root; mirrors WalkDFS
	visited := 0
	// ForEachChild takes its callback through the View interface, so a
	// closure literal inside the loop would escape and allocate once per
	// internal node; both passes hoist one closure over loop state instead.
	var parent int32
	pushChild := func(c int32) bool {
		if c < 0 || int(c) >= n {
			return true
		}
		depth[c] = depth[parent] + v.EdgeLen(c)
		stack = append(stack, frame{c, false})
		return true
	}
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if f.post {
			leafCount[f.id] = int32(len(leaves)) - leafStart[f.id]
			continue
		}
		if visited++; visited > n {
			return nil, fmt.Errorf("suffixtree: flatten visited more than %d nodes (ids not dense, or cyclic links)", n)
		}
		leafStart[f.id] = int32(len(leaves))
		if v.IsLeaf(f.id) {
			s := v.Suffix(f.id)
			if s < 0 || int(s) >= len(data) {
				return nil, fmt.Errorf("suffixtree: leaf %d has suffix %d outside the %d-byte string", f.id, s, len(data))
			}
			leaves = append(leaves, s)
			leafCount[f.id] = 1
			continue
		}
		stack = append(stack, frame{f.id, true})
		mark := len(stack)
		parent = f.id
		v.ForEachChild(parent, pushChild)
		for i, j := mark, len(stack)-1; i < j; i, j = i+1, j-1 {
			stack[i], stack[j] = stack[j], stack[i]
		}
	}

	// Pass 2 — BFS renumbering: children of each node take consecutive new
	// ids in sibling (first-symbol) order, so a child run is one contiguous,
	// sorted window of the node array.
	order := make([]int32, 0, visited) // new id → old id
	newID := make([]int32, n)
	for i := range newID {
		newID[i] = -1
	}
	order = append(order, root)
	newID[root] = 0
	childStart := make([]int32, 0, visited) // by new id
	childCount := make([]int32, 0, visited)
	var cc int32
	number := func(c int32) bool {
		if c < 0 || int(c) >= n || newID[c] >= 0 {
			return true
		}
		newID[c] = int32(len(order))
		order = append(order, c)
		cc++
		return true
	}
	for qi := 0; qi < len(order); qi++ {
		old := order[qi]
		cs := int32(len(order))
		cc = 0
		v.ForEachChild(old, number)
		if cc == 0 {
			cs = 0
		}
		if cc > 1<<16-1 {
			return nil, fmt.Errorf("suffixtree: node %d has %d children, beyond the flat layout's limit", old, cc)
		}
		childStart = append(childStart, cs)
		childCount = append(childCount, cc)
	}

	nn := len(order)
	f := &Flat{
		Nodes:   make([]byte, nn*flatNodeSize),
		Sym:     make([]byte, nn),
		NNodes:  int32(nn),
		NLeaves: int32(len(leaves)),
	}

	// Canonical edge windows: every non-root label is re-based onto the
	// subtree's lexicographically first suffix — start = firstLeaf + depth −
	// edgeLen, end = firstLeaf + depth. Builders that assemble sub-trees in
	// different orders leave different (but label-equal) windows on the nodes
	// their grafts split; re-basing makes the encoded image a pure function
	// of tree shape and string, so serial, parallel, distributed, and
	// direct-to-flat builds all emit byte-identical sections.
	canon := func(old int32) (int32, int32, error) {
		ls := leafStart[old]
		if leafCount[old] <= 0 || int(ls) >= len(leaves) {
			return 0, 0, fmt.Errorf("suffixtree: node %d has no leaves below it", old)
		}
		ee := leaves[ls] + depth[old]
		es := ee - v.EdgeLen(old)
		if es < 0 || int(es) >= len(data) || ee < es {
			return 0, 0, fmt.Errorf("suffixtree: node %d edge start %d outside the %d-byte string", old, es, len(data))
		}
		return es, ee, nil
	}

	// First-symbol array first: the dense tables below index it for child
	// runs, which sit after their parent in the BFS order.
	for ni, old := range order {
		if ni == 0 {
			continue
		}
		es, _, err := canon(old)
		if err != nil {
			return nil, err
		}
		f.Sym[ni] = data[es]
	}

	// Emit records; branchy nodes get a dense first-symbol table.
	for ni, old := range order {
		r := f.Nodes[ni*flatNodeSize:]
		var es, ee int32
		if ni != 0 {
			var err error
			if es, ee, err = canon(old); err != nil {
				return nil, err
			}
		}
		binary.LittleEndian.PutUint32(r[0:], uint32(es))
		binary.LittleEndian.PutUint32(r[4:], uint32(ee))
		binary.LittleEndian.PutUint32(r[8:], uint32(depth[old]))
		binary.LittleEndian.PutUint32(r[12:], uint32(childStart[ni]))
		binary.LittleEndian.PutUint32(r[16:], uint32(leafStart[old]))
		binary.LittleEndian.PutUint32(r[20:], uint32(leafCount[old]))
		binary.LittleEndian.PutUint16(r[28:], uint16(childCount[ni]))
		aux := uint32(0)
		if childCount[ni] == 0 {
			aux = uint32(v.Suffix(old))
		} else if childCount[ni] >= flatDenseMin {
			ti := len(f.Dense) / flatDenseBytes
			f.Dense = append(f.Dense, make([]byte, flatDenseBytes)...)
			tbl := f.Dense[ti*flatDenseBytes:]
			for c := childStart[ni]; c < childStart[ni]+childCount[ni]; c++ {
				binary.LittleEndian.PutUint32(tbl[int(f.Sym[c])*4:], uint32(c))
			}
			aux = uint32(ti) + 1
		}
		binary.LittleEndian.PutUint32(r[24:], aux)
	}

	// Leaf blocks: uvarint first value, zigzag-varint deltas after.
	var scratch [binary.MaxVarintLen64]byte
	for b := 0; b < len(leaves); b += flatLeafBlock {
		f.LeafIdx = binary.LittleEndian.AppendUint32(f.LeafIdx, uint32(len(f.LeafData)))
		end := b + flatLeafBlock
		if end > len(leaves) {
			end = len(leaves)
		}
		prev := int32(0)
		for j := b; j < end; j++ {
			var enc uint64
			if j == b {
				enc = uint64(uint32(leaves[j]))
			} else {
				enc = zigzag32(leaves[j] - prev)
			}
			m := binary.PutUvarint(scratch[:], enc)
			f.LeafData = append(f.LeafData, scratch[:m]...)
			prev = leaves[j]
		}
	}
	return f, nil
}
