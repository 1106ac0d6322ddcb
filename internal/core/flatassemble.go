package core

import (
	"bytes"
	"fmt"
	"sort"

	"era/internal/sim"
	"era/internal/suffixtree"
)

// flatSub is one collected sub-tree awaiting direct-to-flat assembly: the
// S-prefix label (arena-backed by VerticalPartition, immutable for the
// build's lifetime) plus private copies of the sorted occurrence list and
// its LCP array — the prepare pools recycle the originals on the worker's
// next group.
type flatSub struct {
	label []byte
	l     []int32
	lcp   []int32
}

// collectFlatSub snapshots one prepared sub-tree for direct flat assembly.
// It charges the same one-stack-pass CPU cost (2m sequential node touches)
// that materializing the heap sub-tree charges, so modeled times are
// identical whichever layout a build targets, and returns the node count
// the equivalent heap sub-tree would have had (leaves plus split-created
// branch nodes, local root excluded) so Stats.TreeNodes stays identical
// too. The copies go into buf, 2·len(p.L) entries the caller carves from one
// slab per group.
func collectFlatSub(n int32, p Prepared, clock *sim.Clock, model sim.CostModel, scratch *[]int32, buf []int32) (flatSub, int64, error) {
	m := len(p.L)
	if m == 0 {
		return flatSub{}, 0, fmt.Errorf("core: prefix %q has no occurrences", p.Prefix.Label)
	}
	l, lcp := buf[:m:m], buf[m:2*m:2*m]
	copy(l, p.L)
	if _, err := fillLCP(p, lcp); err != nil {
		return flatSub{}, 0, err
	}
	nodes, err := countSubTreeNodes(n, int32(len(p.Prefix.Label)), l, lcp, scratch)
	if err != nil {
		return flatSub{}, 0, fmt.Errorf("core: prefix %q: %w", p.Prefix.Label, err)
	}
	clock.Advance(model.CPUTime(int64(2 * m)))
	return flatSub{label: p.Prefix.Label, l: l, lcp: lcp}, nodes, nil
}

// countSubTreeNodes replays FromSortedSuffixes' rightmost-path walk over the
// depths alone: the returned count is exactly the node count of the heap
// sub-tree the same inputs would materialize (every suffix adds a leaf, and
// every branch landing inside an edge adds one split node), with the same
// malformed-input rejections — and an LCP shorter than the sub-tree's prefix
// label, which its suffixes all share — at no tree cost.
func countSubTreeNodes(n, labelLen int32, l, lcp []int32, scratch *[]int32) (int64, error) {
	if l[0] < 0 || l[0] >= n {
		return 0, fmt.Errorf("suffix %d outside the %d-byte string", l[0], n)
	}
	stack := append((*scratch)[:0], n-l[0])
	nodes := int64(len(l))
	for i := 1; i < len(l); i++ {
		off := lcp[i]
		if off >= n-l[i] {
			return 0, fmt.Errorf("lcp %d ≥ suffix length %d at entry %d (suffixes not distinct?)", off, n-l[i], i)
		}
		if off < labelLen {
			return 0, fmt.Errorf("lcp %d below the prefix length at entry %d", off, i)
		}
		for len(stack) > 0 && stack[len(stack)-1] > off {
			stack = stack[:len(stack)-1]
			var pd int32
			if len(stack) > 0 {
				pd = stack[len(stack)-1]
			}
			if pd < off {
				nodes++ // the branch splits this edge: one new internal node
				stack = append(stack, off)
				break
			}
		}
		stack = append(stack, n-l[i])
	}
	*scratch = stack[:0]
	return nodes, nil
}

// assembleFlatSubs sorts the collected sub-trees by label and hands them, as
// the sorted suffix stream they concatenate to, to the one assembly that cuts
// it into k prefix ranges (suffixtree.AssembleShards; k ≤ 1 is the whole
// tree). The labels are unique and prefix-free (they partition the suffix
// set), so the order is total and the emitted images are identical whichever
// worker of whichever driver collected which group, and the LCP across each
// join is the labels' common prefix.
func assembleFlatSubs(raw []byte, subs []flatSub, k int) ([]suffixtree.Shard, error) {
	sort.Slice(subs, func(a, b int) bool { return bytes.Compare(subs[a].label, subs[b].label) < 0 })
	runs := make([]suffixtree.SortedRun, len(subs))
	for i, s := range subs {
		if i > 0 {
			prev := subs[i-1].label
			c := 0
			for c < len(prev) && c < len(s.label) && prev[c] == s.label[c] {
				c++
			}
			if c == len(prev) || c == len(s.label) {
				return nil, fmt.Errorf("core: sub-tree labels %q and %q are not prefix-free", prev, s.label)
			}
			s.lcp[0] = int32(c)
		}
		runs[i] = suffixtree.SortedRun{Suffixes: s.l, LCP: s.lcp}
	}
	return suffixtree.AssembleShards(raw, runs, k)
}

// validateFlatOptions rejects option combinations the direct-to-flat path
// cannot honor.
func validateFlatOptions(opts Options) error {
	if !opts.AssembleFlat {
		return nil
	}
	if opts.WriteTrees {
		return fmt.Errorf("core: AssembleFlat cannot serialize heap sub-trees (WriteTrees)")
	}
	if opts.Method != StrMem {
		return fmt.Errorf("core: AssembleFlat requires the ERa-str+mem method")
	}
	return nil
}

// wholeFlat is the image of the whole tree when the assembly made one.
func wholeFlat(shards []suffixtree.Shard) *suffixtree.Flat {
	if len(shards) != 1 {
		return nil
	}
	return shards[0].Flat
}
