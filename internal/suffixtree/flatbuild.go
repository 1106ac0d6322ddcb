package suffixtree

import (
	"encoding/binary"
	"fmt"
	"math"
)

// FlatBuilder assembles the flat (format v4) sections directly from a sorted
// suffix stream — a suffix array with its LCPs: of all of S, or of one
// contiguous range of the suffix order, whose tree then holds exactly those
// suffixes (AssembleShards) — with no intermediate heap Tree: one
// rightmost-path stack pass over the stream builds the suffix tree, the
// classic sorted-suffix construction (ERA's BuildSubTree, §4.2.2).
//
// The suffix array is the leaf section: leaf nInt + r is the r-th suffix. The
// builder takes the array it is handed as that section instead of copying it
// (a view of its memory where the host is little-endian), so the stream only
// checks each suffix. Every other record is written once, into the image's
// own sections. An internal node is final when the rightmost path leaves it,
// but where it goes is its parent's decision — siblings must be contiguous —
// so it waits on the pending stack until the parent completes, which then
// writes all its internal children as one run. The records fill from the
// back: a parent completes after its children, so it lands in front of them,
// and every child run lies strictly after its parent — the order the reader's
// descent relies on to terminate. Ids are therefore handed out in reverse
// completion order, counted from the end of the records while the stream runs
// (their used length is not known until it ends); Finish turns those into ids
// in one pass. Besides the sections the builder holds only the open rightmost
// path and the finished internal children of its nodes.
type FlatBuilder struct {
	data []byte
	n    int32   // len(data)
	sa   []int32 // the suffixes the tree holds, in order: all n, or a range's worth

	frames []fbFrame

	// nodes and sym are the image's sections: room for intCap internal
	// records, and intCap first symbols followed by intCap child counts. The
	// last nInt record, symbol and count slots are written.
	nodes  []byte
	sym    []byte
	intCap int32
	nInt   int32

	// pending holds the finished internal children of every open frame,
	// stacked region over region.
	pending []fbRec

	nLeaves int32 // leaves streamed so far, in lexicographic order
}

// fbFrame is one edge of the open rightmost path. The node at the edge's
// bottom is still growing; its internal children collected so far live in
// pending[childBase:].
type fbFrame struct {
	start     int32 // where the edge label starts in data: its first suffix + the parent's depth
	botDepth  int32 // string depth at the bottom of the edge
	leafStart int32 // rank of the bottom subtree's first leaf
	childBase int32 // pending length when the frame opened
	suffix    int32 // leaf frames: the suffix; split-created frames: -1
}

// fbRec is one finished internal node on the pending stack, its children
// already in the records.
type fbRec struct {
	start     int32 // where the edge label starts in data: its first symbol
	depth     int32 // string depth at the bottom of the edge
	leafStart int32 // rank of the subtree's first leaf
	leafCount int32
	cs, ci    int32 // internal child run: first record counted from the end, count
}

// put encodes the node into record slot i: its record, its first symbol and
// its child count. The child run still counts from the end of the records;
// Finish rewrites it as an id.
func (b *FlatBuilder) put(n *fbRec, i int, sym byte) {
	r := b.nodes[i*flatNodeSize:]
	binary.LittleEndian.PutUint32(r[0:], uint32(n.leafStart))
	binary.LittleEndian.PutUint32(r[4:], uint32(n.leafCount))
	binary.LittleEndian.PutUint32(r[8:], uint32(n.depth))
	binary.LittleEndian.PutUint32(r[12:], uint32(n.cs))
	b.sym[i] = sym
	b.sym[int(b.intCap)+i] = byte(n.ci)
}

// checkBounds refuses a tree of leaves suffixes over an n-byte string, with
// internal nodes below the root, that the layout cannot hold.
func checkBounds(leaves, n, internal int) error {
	if leaves < 1 || leaves > n {
		return fmt.Errorf("suffixtree: a tree of %d leaves over a %d-byte string", leaves, n)
	}
	if internal < 0 || int64(internal) >= math.MaxInt32-int64(leaves) { // internal + the root + the leaves
		return fmt.Errorf("suffixtree: %d internal nodes over %d leaves exceed the flat layout's bounds", internal, leaves)
	}
	return nil
}

// newFlatBuilder starts a direct flat build over data (the terminated string
// S) of a tree whose leaves are the suffixes sa — all len(data) of them, or
// one range of the suffix order — in lexicographic order, into the node and
// symbol sections given, sized for len(sym)/2 internal records; a stream
// that needs more fails. sa becomes the tree's leaf section as it is, so the
// caller hands over an array it owns: the image reads it for as long as it
// lives.
func newFlatBuilder(data []byte, sa []int32, nodes, sym []byte) *FlatBuilder {
	return &FlatBuilder{data: data, n: int32(len(data)), sa: sa, nodes: nodes, sym: sym, intCap: int32(len(sym) / 2)}
}

// leafSection returns the suffix array sa as the leaf section: a view of its
// own memory where the host's byte order is the layout's, else an encoded
// copy.
func leafSection(sa []int32) []byte {
	if v := leafView(sa); v != nil {
		return v
	}
	b := make([]byte, flatLeafSize*len(sa))
	for i, s := range sa {
		binary.LittleEndian.PutUint32(b[i*flatLeafSize:], uint32(s))
	}
	return b
}

// Stream runs the tree's suffixes — the array newFlatBuilder was handed —
// through the builder, once: lcp[i] is the longest common prefix of sa[i]
// and sa[i-1]. lcp[0] is not read: the tree's first suffix hangs off the
// root, and the suffix before it in the order, if any, belongs to another
// range.
func (b *FlatBuilder) Stream(lcp []int32) error {
	if len(lcp) != len(b.sa) {
		return fmt.Errorf("suffixtree: flat build: %d suffixes but %d lcp entries", len(b.sa), len(lcp))
	}
	for i, suf := range b.sa {
		off := lcp[i]
		if i == 0 {
			off = 0
		}
		if err := b.add(suf, off); err != nil {
			return fmt.Errorf("suffixtree: flat build: %w", err)
		}
	}
	return nil
}

// add appends the next suffix in lexicographic order, branching off the
// rightmost path at string depth offset (the LCP with the previous suffix).
func (b *FlatBuilder) add(suf, offset int32) error {
	if suf < 0 || suf >= b.n {
		return fmt.Errorf("suffixtree: suffix %d outside the %d-byte string", suf, b.n)
	}
	if offset >= b.n-suf {
		return fmt.Errorf("suffixtree: lcp %d ≥ suffix length %d (suffixes not distinct?)", offset, b.n-suf)
	}
	for len(b.frames) > 0 && b.frames[len(b.frames)-1].botDepth > offset {
		f := b.frames[len(b.frames)-1]
		b.frames = b.frames[:len(b.frames)-1]
		var pd int32
		if len(b.frames) > 0 {
			pd = b.frames[len(b.frames)-1].botDepth
		}
		if pd < offset {
			// The branch lands inside f's edge: split it. The upper part m
			// keeps f's label base and subtree bookkeeping; f's completed
			// bottom becomes m's first child.
			d := offset - pd
			m := fbFrame{start: f.start, botDepth: offset,
				leafStart: f.leafStart, childBase: f.childBase, suffix: -1}
			f.start += d
			if err := b.complete(f); err != nil {
				return err
			}
			b.frames = append(b.frames, m)
			break
		}
		if err := b.complete(f); err != nil {
			return err
		}
	}
	if len(b.frames) > 0 {
		top := &b.frames[len(b.frames)-1]
		if top.botDepth != offset {
			return fmt.Errorf("suffixtree: lcp %d underruns the rightmost path (depth %d)", offset, top.botDepth)
		}
		if top.suffix >= 0 {
			return fmt.Errorf("suffixtree: lcp %d spans a whole suffix (suffixes not distinct?)", offset)
		}
	} else if offset != 0 {
		return fmt.Errorf("suffixtree: lcp %d underruns the rightmost path", offset)
	}
	// The leaf is its entry of the suffix array, already in place.
	b.nLeaves++
	b.frames = append(b.frames, fbFrame{
		start: suf + offset, botDepth: b.n - suf,
		leafStart: b.nLeaves - 1, childBase: int32(len(b.pending)), suffix: suf,
	})
	return nil
}

// complete closes the bottom node of a popped frame. A leaf is already
// written; an internal node's children leave the pending stack for the
// records, and the node itself takes their place, as a child of the frame
// below.
func (b *FlatBuilder) complete(f fbFrame) error {
	kids := b.pending[f.childBase:]
	if f.suffix >= 0 {
		if len(kids) != 0 {
			return fmt.Errorf("suffixtree: flat build attached %d children below a leaf (suffixes not distinct?)", len(kids))
		}
		return nil
	}
	rec := fbRec{start: f.start, depth: f.botDepth,
		leafStart: f.leafStart, leafCount: b.nLeaves - f.leafStart}
	if err := b.writeKids(&rec, kids); err != nil {
		return err
	}
	b.pending = append(b.pending[:f.childBase], rec)
	return nil
}

// writeKids writes the finished internal children of a completing node — in
// sibling order, as the stream delivered them — in front of every record
// written so far, and records the run in rec.
func (b *FlatBuilder) writeKids(rec *fbRec, kids []fbRec) error {
	if len(kids) > flatMaxRun {
		return fmt.Errorf("suffixtree: node has %d internal children, beyond the flat layout's limit of %d", len(kids), flatMaxRun)
	}
	rec.ci = int32(len(kids))
	if rec.ci == 0 {
		return nil // an empty run is stored as id 0
	}
	if err := b.reserve(rec.ci); err != nil {
		return err
	}
	b.nInt += rec.ci
	rec.cs = b.nInt
	i := int(b.intCap - b.nInt) // the run's first slot
	for k := range kids {
		b.put(&kids[k], i+k, b.data[kids[k].start])
	}
	return nil
}

// reserve checks that k more internal records fit the bound the sections
// were sized for. They never move — a Sink's may be a mapped file's — so a
// stream past the bound is an error.
func (b *FlatBuilder) reserve(k int32) error {
	if int64(b.nInt)+int64(k) > int64(b.intCap) {
		return fmt.Errorf("suffixtree: flat build needs more than the %d internal nodes its sections hold", b.intCap)
	}
	return nil
}

// Finish closes the stream: the open path completes, the root takes the
// slot in front of everything written, the unused front of the internal
// bound is cut off by re-slicing (the counts move up against the symbols
// when there is one), and the child runs — counted from the end of the
// records until now — become ids.
func (b *FlatBuilder) Finish() (*Flat, error) {
	if b.nLeaves == 0 {
		return nil, fmt.Errorf("suffixtree: flat build of an empty tree")
	}
	for len(b.frames) > 0 {
		f := b.frames[len(b.frames)-1]
		b.frames = b.frames[:len(b.frames)-1]
		if err := b.complete(f); err != nil {
			return nil, err
		}
	}
	if int(b.nLeaves) != len(b.sa) {
		return nil, fmt.Errorf("suffixtree: flat build streamed %d of its %d leaves", b.nLeaves, len(b.sa))
	}
	root := fbRec{leafCount: b.nLeaves}
	if err := b.writeKids(&root, b.pending); err != nil {
		return nil, err
	}
	if err := b.reserve(1); err != nil {
		return nil, err
	}
	b.nInt++
	gap, nInt := int(b.intCap-b.nInt), int(b.nInt)
	b.put(&root, gap, 0)
	if gap > 0 {
		copy(b.sym[b.intCap:], b.sym[int(b.intCap)+gap:])
	}

	f := &Flat{
		Nodes:    b.nodes[gap*flatNodeSize:],
		Sym:      b.sym[gap : int(b.intCap)+nInt],
		LeafData: leafSection(b.sa),
		NNodes:   b.nInt + b.nLeaves,
		NLeaves:  b.nLeaves,
	}
	counts := f.Sym[nInt:]
	for u, r := 0, f.Nodes; u < nInt; u, r = u+1, r[flatNodeSize:] {
		if counts[u] > 0 {
			binary.LittleEndian.PutUint32(r[12:], uint32(b.nInt)-binary.LittleEndian.Uint32(r[12:]))
		}
	}
	return f, nil
}

// Flatten encodes a heap tree over data into the flat sections — how the
// tests put a reference tree beside the layout that serves: the tree a
// builder produced is read back as the sorted suffix stream it spells, one
// pre-order walk into a suffix array and its LCPs, and assembled as the
// direct builds are (AssembleShards). The image is therefore a function of
// the string and the tree's leaf order and branching depths alone; edge
// windows come out canonical whichever way the source tree based them. The
// tree must be complete: one leaf per suffix of data, whose path is as long
// as its suffix (Validate checks what the path spells).
func Flatten(t *Tree, data []byte) (*Flat, error) {
	if t.NumNodes() < 1 {
		return nil, fmt.Errorf("suffixtree: flatten of an empty tree")
	}
	sa, lcps := make([]int32, 0, len(data)), make([]int32, 0, len(data))
	// The first node the walk reaches after a leaf hangs off the lowest
	// common ancestor of that leaf and the next: its parent's depth is their
	// LCP.
	afterLeaf, lcp := true, int32(0)
	var short error
	t.WalkDFS(t.Root(), func(id, depth int32) bool {
		if afterLeaf {
			afterLeaf, lcp = false, depth-t.EdgeLen(id)
		}
		if t.IsLeaf(id) {
			suf := t.Suffix(id)
			if short == nil && int(suf)+int(depth) != len(data) {
				short = fmt.Errorf("suffixtree: flatten: the leaf of suffix %d has a path of %d symbols, not %d", suf, depth, len(data)-int(suf))
			}
			sa, lcps = append(sa, suf), append(lcps, lcp)
			afterLeaf = true
		}
		return true
	})
	if short != nil {
		return nil, short
	}
	shards, err := AssembleShards(data, sa, lcps, 1, HeapSink{})
	if err != nil {
		return nil, fmt.Errorf("suffixtree: flatten: %w", err)
	}
	return shards[0].Flat, nil
}
