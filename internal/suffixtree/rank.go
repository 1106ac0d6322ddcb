package suffixtree

// RankCursor reads a flat tree back as its sorted suffix stream: Next returns
// the leaves in rank (lexicographic) order — the suffix array, read straight
// from the leaf section — each with its LCP with the leaf before it: the
// string depth of the two leaves' lowest common ancestor, 0 for the first.
// The LCPs come from one frame per open internal node on the path to the
// current leaf's parent, with no callback and no interface: the only
// allocation is the frame stack, O(height). Leaving the frames whose leaf
// ranges end before a rank is what finds the LCA. Like Walk it opens at most
// NumNodes nodes, so a corrupt image yields wrong LCPs instead of looping or
// panicking.
type RankCursor struct {
	t      *FlatTree
	stack  []rankFrame
	r      int32 // the next rank
	budget int
}

// rankFrame is one open internal node: its unvisited internal child run
// [i, ie), the end of its leaf range, and its string depth.
type rankFrame struct {
	i, ie int32
	end   int32
	depth int32
}

// NewRankCursor returns a cursor positioned before t's first leaf.
func NewRankCursor(t *FlatTree) RankCursor {
	return RankCursor{t: t, stack: t.open(make([]rankFrame, 0, 32), 0, t.nLeaves), budget: int(t.nInt) - 1}
}

// open pushes a frame for internal node u, whose leaf range is cut off at
// end (its parent's). The node's string depth is the one its record stores,
// which pathWindow reads too (clamped to |S|).
func (t *FlatTree) open(stack []rankFrame, u, end int32) []rankFrame {
	r := t.rec(u)
	i, ci := t.kids(r, u)
	_, hi := t.ranks(r)
	return append(stack, rankFrame{i: i, ie: i + ci, end: min(hi, end), depth: t.depthOf(r)})
}

// Next returns the next suffix in rank order and its LCP with the one before;
// ok is false once the stream is spent.
func (c *RankCursor) Next() (suffix, lcp int32, ok bool) {
	t, r, stack := c.t, c.r, c.stack
	if r >= t.nLeaves {
		return 0, 0, false
	}
	// The frames that hold the previous rank and this one end at their LCA.
	for len(stack) > 1 && stack[len(stack)-1].end <= r {
		stack = stack[:len(stack)-1]
	}
	if r > 0 {
		lcp = stack[len(stack)-1].depth
	}
	// Down to this rank's parent: the internal children whose range starts
	// here.
	for f := &stack[len(stack)-1]; f.i < f.ie; f = &stack[len(stack)-1] {
		lo, hi := t.ranks(t.rec(f.i))
		if lo > r {
			break
		}
		f.i++
		if hi <= r || c.budget <= 0 {
			continue // a corrupt run: a child behind the rank, or one too many
		}
		c.budget--
		stack = t.open(stack, f.i-1, f.end)
	}
	c.stack, c.r = stack, r+1
	return t.suffixAt(r), lcp, true
}
