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
// the checksums have vouched for the bytes:
//
//  1. the suffix array is a permutation of the suffixes of S in the prefix
//     range [lo, hi), each exactly once (InRange; empty lo and hi: every
//     suffix) — one bitmap;
//  2. the internal child runs tile the internal ids: every one but the root
//     is in exactly one parent's run, which lies strictly after the parent
//     and inside the internal ids — what the descent relies on to terminate,
//     in whatever order a writer numbered the nodes — and a child count is
//     zero exactly where the record's childStart is;
//  3. subtree leaf ranges nest: the root's is every rank, and a node's
//     internal children hold disjoint ranges inside it, in rank order; the
//     ranks between them are its leaf children;
//  4. inside every node's range, S[SA[r] + depth] ascends: over the node's
//     children in rank order — internal ones and leaves — the first symbol at
//     the node's depth strictly increases (what the child lookup's search of
//     a gap relies on), and every node but the root has ≥ 2 children;
//  5. edges are non-empty windows of S: a child's depth is strictly greater
//     than its parent's, a node's first suffix + its depth stays inside S,
//     the symbol sym records for a child is its first suffix's at the
//     parent's depth, and a leaf's suffix runs past its parent's depth. The
//     root has depth 0 and no symbol.
//
// It is one pass over the internal records in id order — parents come before
// their children — and one over the suffix array, O(nodes). It does not
// re-spell edge labels beyond their first symbol, which can cost O(n²) on
// deeply repetitive strings. Corrupt input yields an error, never a panic.
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
	u32 := func(r []byte, off int) int64 { return int64(binary.LittleEndian.Uint32(r[off:])) }
	sa := func(r int64) int64 { return u32(t.sa, int(r)*flatLeafSize) }
	present := make([]uint64, (n+63)/64)
	for r := int64(0); r < leaves; r++ {
		o := sa(r)
		if o >= n || !claimRun(present, o, 1) || !InRange(t.data[o:], lo, hi) {
			return fmt.Errorf("suffixtree: leaf rank %d holds suffix %d: outside the string or the range, or indexed twice", r, o)
		}
	}

	claimed := make([]uint64, (int(t.nInt)+63)/64) // internal ids some run holds
	nClaimed := int64(0)
	for u := int32(0); u < t.nInt; u++ {
		r := t.rec(u)
		rank, count, depth, cs := u32(r, 0), u32(r, 4), u32(r, 8), u32(r, 12)
		ci := int64(t.counts[u])
		if u == 0 && (rank != 0 || count != leaves || depth != 0 || t.sym[0] != 0) {
			return fmt.Errorf("suffixtree: root record has a depth, a symbol, or not every leaf below it")
		}
		if count < 1 || rank+count > leaves {
			return fmt.Errorf("suffixtree: node %d: leaf range [%d,+%d) of %d leaves", u, rank, count, leaves)
		}
		if sa(rank)+depth > n {
			return fmt.Errorf("suffixtree: node %d: depth %d runs its first suffix %d past the %d-byte string", u, depth, sa(rank), n)
		}
		if (ci == 0) != (cs == 0) {
			return fmt.Errorf("suffixtree: node %d: %d internal children from childStart %d: a count is zero exactly where childStart is", u, ci, cs)
		}
		if ci > 0 && (cs <= int64(u) || cs+ci > int64(t.nInt)) {
			return fmt.Errorf("suffixtree: node %d: internal child run [%d,+%d) is not after it and inside the %d internal ids", u, cs, ci, t.nInt)
		}
		if !claimRun(claimed, cs, ci) {
			return fmt.Errorf("suffixtree: node %d: a child run holds a node that an earlier run holds", u)
		}
		nClaimed += ci

		// The children in rank order: the leaves before each internal child,
		// the child, and the leaves after the last.
		next, end := rank, rank+count
		prevSym, kids := -1, 0
		child := func(c int64, sym int) error {
			if sym <= prevSym {
				return fmt.Errorf("suffixtree: children of node %d not in strictly increasing symbol order at child %d", u, c)
			}
			prevSym, kids = sym, kids+1
			return nil
		}
		leavesTo := func(to int64) error {
			for ; next < to; next++ {
				p := sa(next) + depth
				if p >= n {
					return fmt.Errorf("suffixtree: leaf rank %d: suffix %d ends above its parent %d of depth %d", next, sa(next), u, depth)
				}
				if err := child(int64(t.nInt)+next, int(t.data[p])); err != nil {
					return err
				}
			}
			return nil
		}
		for c := cs; c < cs+ci; c++ {
			rc := t.rec(int32(c))
			s, k := u32(rc, 0), u32(rc, 4)
			if s < next || k < 1 || s+k > end {
				return fmt.Errorf("suffixtree: node %d: leaf range [%d,+%d) does not nest in its parent's [%d,%d) after rank %d", c, s, k, rank, end, next)
			}
			if err := leavesTo(s); err != nil {
				return err
			}
			if d := u32(rc, 8); d <= depth {
				return fmt.Errorf("suffixtree: node %d: depth %d at or above its parent's %d", c, d, depth)
			}
			if p := sa(s) + depth; p >= n || t.data[p] != t.sym[c] {
				return fmt.Errorf("suffixtree: node %d: its first suffix %d does not start its edge under depth %d with the %q sym records", c, sa(s), depth, t.sym[c])
			}
			if err := child(c, int(t.sym[c])); err != nil {
				return err
			}
			next = s + k
		}
		if err := leavesTo(end); err != nil {
			return err
		}
		if kids < 2 && u != 0 {
			return fmt.Errorf("suffixtree: internal node %d has %d children", u, kids)
		}
	}
	if nClaimed != int64(t.nInt)-1 {
		// No id is in two runs, so some are in none.
		return fmt.Errorf("suffixtree: child runs hold %d of the %d internal nodes below the root: nodes unreachable from it", nClaimed, t.nInt-1)
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
