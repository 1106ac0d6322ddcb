package suffixtree

import (
	"bytes"
	"encoding/binary"
	"fmt"
)

// FlatBuilder assembles the flat (format v4) sections directly from the
// sorted-suffix sub-trees that ERA's group assembly produces: no
// intermediate heap Tree is materialized and no Flatten pass runs. Sub-trees
// stream in by strictly increasing prefix label; because the label set is
// prefix-free, concatenating their occurrence lists yields the full suffix
// array of S, and one rightmost-path stack pass over that stream builds the
// suffix tree — the classic sorted-suffix construction, with the LCP at each
// sub-tree boundary recovered from the labels themselves.
//
// The builder keeps only the open rightmost path, the completed internal
// nodes, and the (already final) leaf varint blocks, all sized once from the
// counts the caller already has; the peak is a fraction of the heap tree the
// two-phase build-then-Flatten path allocates. Finish renumbers internal
// nodes BFS and emits records byte-identical to Flatten over the heap tree
// the same sub-trees would have assembled into — the property the cross-path
// differential tests pin.
type FlatBuilder struct {
	data []byte
	n    int32

	started   bool
	prevLabel []byte

	frames []fbFrame

	// Completed internal nodes in completion (post-) order, plus the
	// contiguous child run each one captured from childStack.
	done     []fbNode
	childIDs []int32

	// childStack holds the pending children of every open frame, stacked
	// region over region: entries ≥ 0 are completed-internal indexes, entries
	// < 0 are leaves encoded as -(suffix)-1.
	childStack []int32

	nLeaves  int32
	leafIdx  []byte
	leafData []byte
	prevLeaf int32
}

// fbFrame is one edge of the open rightmost path. The node at the edge's
// bottom is still growing; its children collected so far live in
// childStack[childBase:].
type fbFrame struct {
	start, end int32 // edge label window in data
	botDepth   int32 // string depth at the bottom of the edge
	leafStart  int32 // rank of the bottom subtree's first leaf
	childBase  int32 // childStack length when the frame opened
	suffix     int32 // leaf frames: the suffix; split-created frames: -1
}

// fbNode is one completed internal node.
type fbNode struct {
	start, end int32 // edge label window in data
	depth      int32 // string depth at the bottom of the edge
	leafStart  int32 // rank of the subtree's first leaf
	leafCount  int32
	childOff   int32 // its children are childIDs[childOff:childOff+childCnt]
	childCnt   int32
}

// NewFlatBuilder starts a direct flat build over data (the terminated
// string S). Every suffix of data becomes a leaf, and internal is an upper
// bound on the internal nodes below the root — every AddSubTree creates at
// most one more than its sub-tree has branch nodes, which ERA's assembly
// has counted by then — so the node, child and leaf tables are allocated
// here, once, and the stream never regrows them. (A stream that exceeds the
// bound still builds; it only reallocates.)
func NewFlatBuilder(data []byte, internal int) *FlatBuilder {
	n := len(data)
	blocks := (n + flatLeafBlock - 1) / flatLeafBlock
	// A block opens with a suffix (< n) and continues with zigzag deltas
	// (< 2n); both fit the varint width of 2n.
	var scratch [binary.MaxVarintLen64]byte
	leafWidth := binary.PutUvarint(scratch[:], 2*uint64(n))
	return &FlatBuilder{
		data:     data,
		n:        int32(n),
		done:     make([]fbNode, 0, internal),
		childIDs: make([]int32, 0, n+internal),
		leafIdx:  make([]byte, 0, 4*blocks),
		leafData: make([]byte, 0, n*leafWidth),
	}
}

// AddSubTree streams one prepared sub-tree into the builder: suffixes is the
// lexicographically sorted occurrence list of the S-prefix label, and lcp[i]
// is the LCP of suffixes[i-1] and suffixes[i] measured from the suffix start
// (always ≥ len(label); lcp[0] is ignored). Sub-trees must arrive in
// strictly increasing label order over a prefix-free label set — exactly
// what ERA's vertical partitioning emits once sorted. The return value is
// the node count of the equivalent standalone heap sub-tree (leaves plus
// intra-sub-tree branch nodes, the local root excluded), matching what the
// heap path's accounting records per sub-tree.
func (b *FlatBuilder) AddSubTree(label []byte, suffixes, lcp []int32) (int64, error) {
	if len(suffixes) == 0 {
		return 0, fmt.Errorf("suffixtree: flat build: empty sub-tree %q", label)
	}
	if len(lcp) != len(suffixes) {
		return 0, fmt.Errorf("suffixtree: flat build: %d suffixes but %d lcp entries", len(suffixes), len(lcp))
	}
	boundary := int32(0)
	if b.started {
		c := commonPrefixLen(b.prevLabel, label)
		if c == len(b.prevLabel) || c == len(label) || bytes.Compare(b.prevLabel, label) >= 0 {
			return 0, fmt.Errorf("suffixtree: flat build: label %q must follow %q in strict prefix-free order", label, b.prevLabel)
		}
		boundary = int32(c)
	}
	b.started = true
	b.prevLabel = append(b.prevLabel[:0], label...)
	if _, err := b.add(suffixes[0], boundary); err != nil {
		return 0, fmt.Errorf("suffixtree: flat build: sub-tree %q: %w", label, err)
	}
	nodes := int64(len(suffixes))
	for i := 1; i < len(suffixes); i++ {
		if lcp[i] < int32(len(label)) {
			return 0, fmt.Errorf("suffixtree: flat build: sub-tree %q: lcp %d below the prefix length", label, lcp[i])
		}
		split, err := b.add(suffixes[i], lcp[i])
		if err != nil {
			return 0, fmt.Errorf("suffixtree: flat build: sub-tree %q: %w", label, err)
		}
		if split {
			nodes++
		}
	}
	return nodes, nil
}

// add appends the next suffix in global lexicographic order, branching off
// the rightmost path at string depth offset (the LCP with the previous
// suffix). It reports whether the branch split an edge — i.e. created a new
// internal node, mirroring what SplitEdge would have done on the heap.
func (b *FlatBuilder) add(suf, offset int32) (split bool, err error) {
	if suf < 0 || suf >= b.n {
		return false, fmt.Errorf("suffixtree: suffix %d outside the %d-byte string", suf, b.n)
	}
	if offset >= b.n-suf {
		return false, fmt.Errorf("suffixtree: lcp %d ≥ suffix length %d (suffixes not distinct?)", offset, b.n-suf)
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
			// bottom becomes m's first pending child.
			d := offset - pd
			m := fbFrame{start: f.start, end: f.start + d, botDepth: offset,
				leafStart: f.leafStart, childBase: f.childBase, suffix: -1}
			f.start += d
			if err := b.complete(f); err != nil {
				return false, err
			}
			b.frames = append(b.frames, m)
			split = true
			break
		}
		if err := b.complete(f); err != nil {
			return false, err
		}
	}
	if len(b.frames) > 0 {
		top := &b.frames[len(b.frames)-1]
		if top.botDepth != offset {
			return split, fmt.Errorf("suffixtree: lcp %d underruns the rightmost path (depth %d)", offset, top.botDepth)
		}
		if top.suffix >= 0 {
			return split, fmt.Errorf("suffixtree: lcp %d spans a whole suffix (suffixes not distinct?)", offset)
		}
	} else if offset != 0 {
		return split, fmt.Errorf("suffixtree: lcp %d underruns the rightmost path", offset)
	}
	b.emitLeaf(suf)
	b.frames = append(b.frames, fbFrame{
		start: suf + offset, end: b.n, botDepth: b.n - suf,
		leafStart: b.nLeaves - 1, childBase: int32(len(b.childStack)), suffix: suf,
	})
	return split, nil
}

// complete closes the bottom node of a popped frame and pushes its encoding
// onto the child region of the frame below it.
func (b *FlatBuilder) complete(f fbFrame) error {
	kids := b.childStack[f.childBase:]
	if f.suffix >= 0 {
		if len(kids) != 0 {
			return fmt.Errorf("suffixtree: flat build attached %d children below a leaf (suffixes not distinct?)", len(kids))
		}
		b.childStack = append(b.childStack, -f.suffix-1)
		return nil
	}
	if len(kids) > flatMaxKids {
		return fmt.Errorf("suffixtree: node has %d children, beyond the flat layout's limit", len(kids))
	}
	id := int32(len(b.done))
	b.done = append(b.done, fbNode{
		start: f.start, end: f.end, depth: f.botDepth,
		leafStart: f.leafStart, leafCount: b.nLeaves - f.leafStart,
		childOff: int32(len(b.childIDs)), childCnt: int32(len(kids)),
	})
	b.childIDs = append(b.childIDs, kids...)
	b.childStack = append(b.childStack[:f.childBase], id)
	return nil
}

// emitLeaf appends the next leaf (in lexicographic order, which is exactly
// stream order) to the delta-varint blocks — the final encoding, written
// once.
func (b *FlatBuilder) emitLeaf(suf int32) {
	var scratch [binary.MaxVarintLen64]byte
	if b.nLeaves%flatLeafBlock == 0 {
		b.leafIdx = binary.LittleEndian.AppendUint32(b.leafIdx, uint32(len(b.leafData)))
		m := binary.PutUvarint(scratch[:], uint64(uint32(suf)))
		b.leafData = append(b.leafData, scratch[:m]...)
	} else {
		m := binary.PutUvarint(scratch[:], zigzag32(suf-b.prevLeaf))
		b.leafData = append(b.leafData, scratch[:m]...)
	}
	b.prevLeaf = suf
	b.nLeaves++
}

// Finish closes the stream, renumbers the nodes — internal nodes BFS, leaves
// by parent — and encodes the sections, byte-identical to Flatten over the
// equivalent heap tree.
func (b *FlatBuilder) Finish() (*Flat, error) {
	if !b.started {
		return nil, fmt.Errorf("suffixtree: flat build of an empty tree")
	}
	for len(b.frames) > 0 {
		f := b.frames[len(b.frames)-1]
		b.frames = b.frames[:len(b.frames)-1]
		if err := b.complete(f); err != nil {
			return nil, err
		}
	}
	if len(b.childStack) > flatMaxKids {
		return nil, fmt.Errorf("suffixtree: node has %d children, beyond the flat layout's limit", len(b.childStack))
	}
	nInt := 1 + int32(len(b.done))
	nn := int64(nInt) + int64(b.nLeaves)
	if nn > 1<<31-1 {
		return nil, fmt.Errorf("suffixtree: %d nodes exceed the flat layout's bounds", nn)
	}
	f := &Flat{
		Nodes:    make([]byte, FlatNodesLen(int64(nInt), int64(b.nLeaves))),
		Sym:      make([]byte, nn),
		LeafIdx:  b.leafIdx,
		LeafData: b.leafData,
		NNodes:   int32(nn),
		NLeaves:  b.nLeaves,
	}

	// BFS emission. Internal ids are handed out in BFS order, so the records
	// themselves are the queue: an internal node's record holds its
	// completed-node index in the first-child field from the moment its
	// parent numbers it until the scan below reaches it. Leaves take the ids
	// behind the internal nodes as their parents are scanned, and are written
	// in full at once.
	lrecs := f.Nodes[int(nInt)*flatNodeSize:]
	nextInt, nextLeaf := int32(1), nInt
	for id := int32(0); id < nInt; id++ {
		var nd fbNode
		kids := b.childStack
		if id == 0 {
			nd.leafCount = b.nLeaves
		} else {
			nd = b.done[binary.LittleEndian.Uint32(f.Nodes[int(id)*flatNodeSize+8:])]
			kids = b.childIDs[nd.childOff : nd.childOff+nd.childCnt]
		}
		rec := flatRec{start: nd.start, end: nd.end, depth: nd.depth,
			leafStart: nd.leafStart, leafCount: nd.leafCount, cs: nextInt, ls: nextLeaf}
		for _, k := range kids {
			if k < 0 {
				// Leaf: suffix s attached at the parent's depth.
				s := -k - 1
				es := s + nd.depth
				c := lrecs[int(nextLeaf-nInt)*flatLeafSize:]
				binary.LittleEndian.PutUint32(c[0:], uint32(es))
				binary.LittleEndian.PutUint32(c[4:], uint32(s))
				f.Sym[nextLeaf] = b.data[es]
				nextLeaf++
			} else {
				binary.LittleEndian.PutUint32(f.Nodes[int(nextInt)*flatNodeSize+8:], uint32(k))
				f.Sym[nextInt] = b.data[b.done[k].start]
				nextInt++
			}
		}
		rec.ci, rec.cl = nextInt-rec.cs, nextLeaf-rec.ls
		rec.put(f, id)
	}
	return f, nil
}
