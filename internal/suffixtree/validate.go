package suffixtree

import (
	"encoding/binary"
	"fmt"
)

// Validate checks the structural suffix-tree invariants from §2 of the paper
// against the underlying string:
//
//  1. links are consistent (parent/child/sibling agree, no cycles, every
//     node except the root reachable exactly once);
//  2. every internal node other than the root has ≥ 2 children;
//  3. sibling edges start with strictly increasing symbols;
//  4. every edge label is a real substring occurrence: for a leaf with
//     suffix offset o, the concatenated root-to-leaf labels spell exactly
//     S[o:]; internal edges are consistent with every leaf below them.
//
// If full is true it additionally checks the tree indexes *all* suffixes:
// exactly Len(S) leaves whose offsets are a permutation of 0..Len(S)-1.
// Sub-trees (one S-prefix) are validated with full=false.
func (t *Tree) Validate(full bool) error {
	n := t.s.Len()
	seen := make([]bool, len(t.nodes))
	var leafOffsets []int32

	type frame struct {
		id    int32
		depth int32
	}
	stack := []frame{{t.Root(), 0}}
	seen[t.Root()] = true
	if t.EdgeLen(t.Root()) != 0 {
		return fmt.Errorf("suffixtree: root has a non-empty edge label")
	}

	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		u := f.id

		nchild := 0
		prevSym := -1
		for c := t.nodes[u].firstChild; c != None; c = t.nodes[c].nextSib {
			if c < 0 || int(c) >= len(t.nodes) {
				return fmt.Errorf("suffixtree: node %d links to out-of-range child %d", u, c)
			}
			if seen[c] {
				return fmt.Errorf("suffixtree: node %d reached twice", c)
			}
			seen[c] = true
			if t.nodes[c].parent != u {
				return fmt.Errorf("suffixtree: node %d has parent %d, expected %d", c, t.nodes[c].parent, u)
			}
			if t.EdgeLen(c) <= 0 {
				return fmt.Errorf("suffixtree: node %d has empty edge label", c)
			}
			if t.nodes[c].start < 0 || int(t.nodes[c].end) > n {
				return fmt.Errorf("suffixtree: node %d edge [%d,%d) outside string of length %d",
					c, t.nodes[c].start, t.nodes[c].end, n)
			}
			sym := int(t.firstSymbol(c))
			if sym <= prevSym {
				return fmt.Errorf("suffixtree: children of node %d not in strictly increasing symbol order", u)
			}
			prevSym = sym
			nchild++
			stack = append(stack, frame{c, f.depth + t.EdgeLen(c)})
		}

		switch {
		case t.IsLeaf(u) && u != t.Root():
			o := t.nodes[u].suffix
			if o < 0 || int(o) >= n {
				return fmt.Errorf("suffixtree: leaf %d has invalid suffix offset %d", u, o)
			}
			if int(o)+int(f.depth) != n {
				return fmt.Errorf("suffixtree: leaf %d for suffix %d has path length %d, expected %d",
					u, o, f.depth, n-int(o))
			}
			if err := t.checkPathSpells(u, o); err != nil {
				return err
			}
			leafOffsets = append(leafOffsets, o)
		case u != t.Root() && nchild < 2:
			return fmt.Errorf("suffixtree: internal node %d has %d children (needs ≥ 2)", u, nchild)
		case !t.IsLeaf(u) && t.nodes[u].suffix >= 0:
			return fmt.Errorf("suffixtree: internal node %d carries suffix label %d", u, t.nodes[u].suffix)
		}
	}

	for id, ok := range seen {
		if !ok {
			return fmt.Errorf("suffixtree: node %d unreachable from root", id)
		}
	}

	if full {
		if len(leafOffsets) != n {
			return fmt.Errorf("suffixtree: %d leaves, expected %d", len(leafOffsets), n)
		}
		present := make([]bool, n)
		for _, o := range leafOffsets {
			if present[o] {
				return fmt.Errorf("suffixtree: suffix %d indexed twice", o)
			}
			present[o] = true
		}
	}
	return nil
}

// checkPathSpells verifies that the root-to-leaf concatenated edge labels
// equal S[o:], by walking up from the leaf.
func (t *Tree) checkPathSpells(leaf int32, o int32) error {
	n := int32(t.s.Len())
	end := n
	for u := leaf; u != t.Root(); u = t.nodes[u].parent {
		l := t.EdgeLen(u)
		from := end - l
		// Compare edge label against the corresponding window of suffix o.
		for i := int32(0); i < l; i++ {
			want := t.s.At(int(from + i))
			got := t.s.At(int(t.nodes[u].start + i))
			if got != want {
				return fmt.Errorf("suffixtree: leaf %d suffix %d: edge of node %d mismatches at path offset %d: %q != %q",
					leaf, o, u, from+i-o, got, want)
			}
		}
		end = from
	}
	if end != o {
		return fmt.Errorf("suffixtree: leaf %d: path spells S[%d:], expected S[%d:]", leaf, end, o)
	}
	return nil
}

// ValidateView checks a flat tree's records against the invariants its
// accessors otherwise only clamp — the structural half of era.Verify, after
// the checksums have vouched for the bytes. One pass over the internal
// records in id order — parents come before their children — each checking
// its children:
//
//  1. the child runs tile the id space: every internal id but the root and
//     every leaf id is in exactly one parent's run, internal runs strictly
//     after their parent and inside the internal ids, leaf runs inside the
//     leaf ids — what the reader relies on, in whatever order a writer
//     numbered the nodes;
//  2. every internal node other than the root has ≥ 2 children, and sibling
//     edges start with strictly increasing symbols across the two runs;
//  3. edge windows lie in S, start with the symbol sym records, and are
//     canonical: an internal edge ends at first-leaf suffix + depth — the
//     depth its record stores — and a leaf's starts at suffix + parent depth;
//  4. subtree leaf ranges nest: children partition their parent's range in
//     symbol order, and the leaf with rank r is the r-th entry of the varint
//     leaf blocks — so the leaf records' suffixes are those entries, permuted;
//  5. the leaf blocks hold every suffix of S in the prefix range [lo, hi)
//     exactly once, and no other (InRange; empty lo and hi: every suffix).
//
// It does not re-spell edge labels beyond their first symbol, which can cost
// O(n²) on deeply repetitive strings. Corrupt input yields an error, never a
// panic.
func ValidateView(t *FlatTree, lo, hi []byte) error {
	n := int64(len(t.data))
	want := n
	if len(lo) > 0 || len(hi) > 0 {
		want = 0
		for o := range t.data {
			if InRange(t.data[o:], lo, hi) {
				want++
			}
		}
	}
	if int64(t.nLeaves) != want {
		return fmt.Errorf("suffixtree: %d leaves where the %d-byte string has %d suffixes in range", t.nLeaves, n, want)
	}
	leaves := int64(t.nLeaves)
	ranks := t.appendLeafRange(make([]int32, 0, t.nLeaves), 0, int(t.nLeaves))
	if len(ranks) != int(t.nLeaves) {
		return fmt.Errorf("suffixtree: leaf blocks decode %d of %d leaves", len(ranks), t.nLeaves)
	}
	present := make([]bool, n)
	for r, o := range ranks {
		if o < 0 || int64(o) >= n || present[o] || !InRange(t.data[o:], lo, hi) {
			return fmt.Errorf("suffixtree: leaf rank %d holds suffix %d: out of range, or indexed twice", r, o)
		}
		present[o] = true
	}

	u32 := func(r []byte, off int) int64 { return int64(binary.LittleEndian.Uint32(r[off:])) }
	claimed := make([]uint64, (int(t.nNodes)+63)/64) // ids some run holds
	nClaimed := int64(0)
	for u := int32(0); u < t.nInt; u++ {
		r := t.rec(u)
		rank, leafCount := u32(r, 16), u32(r, 20)
		cs, ls := u32(r, 8), u32(r, 12)
		ci, cl := int64(binary.LittleEndian.Uint16(r[24:])), int64(binary.LittleEndian.Uint16(r[26:]))
		if u == 0 && (u32(r, 0) != u32(r, 4) || rank != 0 || leafCount != leaves) {
			return fmt.Errorf("suffixtree: root record has a label, or not every leaf below it")
		}
		if leafCount < 1 || rank+leafCount > leaves {
			return fmt.Errorf("suffixtree: node %d: leaf range [%d,+%d) of %d leaves", u, rank, leafCount, leaves)
		}
		// A canonical edge ends at first suffix + depth; the parent checked
		// that u's starts at first suffix + parent depth, before its end.
		depth, want := u32(r, 28), u32(r, 4)-int64(ranks[rank])
		if u == 0 {
			want = 0
		}
		if depth != want {
			return fmt.Errorf("suffixtree: node %d: depth %d on an edge ending %d past its first suffix", u, depth, want)
		}
		if ci+cl < 2 && (u != 0 || ci+cl < 1) {
			return fmt.Errorf("suffixtree: internal node %d has %d children", u, ci+cl)
		}
		if ci > 0 && (cs <= int64(u) || cs+ci > int64(t.nInt)) {
			return fmt.Errorf("suffixtree: node %d: internal child run [%d,+%d) is not after it and inside the %d internal ids", u, cs, ci, t.nInt)
		}
		if cl > 0 && (ls < int64(t.nInt) || ls+cl > int64(t.nNodes)) {
			return fmt.Errorf("suffixtree: node %d: leaf child run [%d,+%d) is outside the leaf ids [%d,%d)", u, ls, cl, t.nInt, t.nNodes)
		}
		if !claimRun(claimed, cs, ci) || !claimRun(claimed, ls, cl) {
			return fmt.Errorf("suffixtree: node %d: a child run holds a node that an earlier run holds", u)
		}
		nClaimed += ci + cl
		i, ie, l, le := cs, cs+ci, ls, ls+cl
		leafEnd := rank + leafCount
		prevSym := -1
		for i < ie || l < le {
			c := l
			if l == le || (i < ie && t.sym[i] < t.sym[l]) {
				c = i
				i++
			} else {
				l++
			}
			sym := t.sym[c]
			if int(sym) <= prevSym {
				return fmt.Errorf("suffixtree: children of node %d not in strictly increasing symbol order", u)
			}
			prevSym = int(sym)
			if rank >= leafEnd {
				return fmt.Errorf("suffixtree: node %d: children hold more than its %d leaves", u, leafCount)
			}
			var es int64
			if c < int64(t.nInt) {
				rc := t.rec(int32(c))
				var ee int64
				es, ee = u32(rc, 0), u32(rc, 4)
				if es >= ee || ee > n || es != int64(ranks[rank])+depth {
					return fmt.Errorf("suffixtree: node %d: edge [%d,%d) under depth %d is not based on its first suffix %d", c, es, ee, depth, ranks[rank])
				}
				if u32(rc, 16) != rank {
					return fmt.Errorf("suffixtree: node %d: leaf range starts at %d where rank %d is next", c, u32(rc, 16), rank)
				}
				rank += u32(rc, 20)
			} else {
				lr := t.nodes[t.leafBase+int(c-int64(t.nInt))*flatLeafSize:]
				var suf int64
				es, suf = u32(lr, 0), u32(lr, 4)
				if es != suf+depth || es >= n {
					return fmt.Errorf("suffixtree: leaf %d for suffix %d: edge starts at %d under depth %d", c, suf, es, depth)
				}
				if int64(ranks[rank]) != suf {
					return fmt.Errorf("suffixtree: leaf %d for suffix %d is not the leaf of rank %d", c, suf, rank)
				}
				rank++
			}
			if t.data[es] != sym {
				return fmt.Errorf("suffixtree: node %d: edge starts with %q, sym records %q", c, t.data[es], sym)
			}
		}
		if rank != leafEnd {
			return fmt.Errorf("suffixtree: node %d: children hold %d of its %d leaves", u, rank-(leafEnd-leafCount), leafCount)
		}
	}
	if nClaimed != int64(t.nNodes)-1 {
		// No id is in two runs, so some are in none.
		return fmt.Errorf("suffixtree: child runs hold %d of the %d nodes below the root: nodes unreachable from it", nClaimed, t.nNodes-1)
	}
	return nil
}

// claimRun marks ids [lo, lo+n) in the bitset and reports whether all of
// them were free.
func claimRun(bits []uint64, lo, n int64) bool {
	free := true
	for id := lo; id < lo+n; id++ {
		m := uint64(1) << (id & 63)
		free = free && bits[id>>6]&m == 0
		bits[id>>6] |= m
	}
	return free
}
