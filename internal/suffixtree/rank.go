package suffixtree

import (
	"encoding/binary"
	"math"
)

// RankCursor reads a flat tree back as its sorted suffix stream: Next returns
// the leaves in rank (lexicographic) order, each with its LCP with the leaf
// before it — the string depth of the two leaves' lowest common ancestor, 0
// for the first. It keeps one frame per open internal node on the current
// root path and merges each node's internal and leaf child runs by first
// symbol, as ForEachChild does, with no callback and no interface: the only
// allocation is the frame stack, O(height). Going back up to a frame to take
// its next child is what finds the LCA. Like Walk it visits at most NumNodes
// nodes, so a corrupt image ends the stream early instead of looping or
// panicking.
type RankCursor struct {
	t      *FlatTree
	stack  []rankFrame
	lca    int32 // the shallowest depth a child was taken at since the last leaf
	budget int
}

// rankFrame is one open internal node: the unvisited parts of its internal
// child run [i, ie) and leaf child run [l, le), and its string depth.
type rankFrame struct {
	i, ie, l, le int32
	depth        int32
}

// NewRankCursor returns a cursor positioned before t's first leaf.
func NewRankCursor(t *FlatTree) RankCursor {
	return RankCursor{t: t, stack: t.open(make([]rankFrame, 0, 32), 0), budget: t.NumNodes() - 1}
}

// open pushes a frame for internal node u onto stack. The node's string depth
// is the one its record stores, which pathWindow reads too (a corrupt record's
// negative depth reads as 0).
func (t *FlatTree) open(stack []rankFrame, u int32) []rankFrame {
	r := t.rec(u)
	i, ci, l, cl := t.kids(r, u)
	depth := max(int32(binary.LittleEndian.Uint32(r[28:])), 0)
	return append(stack, rankFrame{i: i, ie: i + ci, l: l, le: l + cl, depth: depth})
}

// Next returns the next suffix in rank order and its LCP with the one before;
// ok is false once the stream (or a corrupt image's node budget) is spent.
func (c *RankCursor) Next() (suffix, lcp int32, ok bool) {
	t, stack, lca := c.t, c.stack, c.lca
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		leaf := f.l < f.le
		if f.i < f.ie && (!leaf || t.sym[f.i] < t.sym[f.l]) {
			if c.budget--; c.budget < 0 {
				break
			}
			lca = min(lca, f.depth)
			f.i++
			stack = t.open(stack, f.i-1)
			continue
		}
		if !leaf {
			stack = stack[:len(stack)-1]
			continue
		}
		if c.budget--; c.budget < 0 {
			break
		}
		_, suffix = t.leaf(f.l)
		f.l++
		c.stack, c.lca = stack, math.MaxInt32
		return suffix, min(lca, f.depth), true
	}
	c.stack = stack[:0]
	return 0, 0, false
}
