package core

import (
	"bytes"
	"fmt"
	"slices"

	"era/internal/suffixtree"
)

// suffixOrder is what a flat build writes its sub-trees into: the suffix
// array of S and its LCP array. Each prefix's sub-tree is the window
// [Rank, Rank+Freq) of both — its suffixes are exactly that contiguous range
// of the order — and the LCP at a window's start, the join with the window
// before it, is the two labels' common prefix. The workers of either
// parallel driver write disjoint windows of the same two arrays.
type suffixOrder struct {
	sa, lcp []int32
	windows []Prefix // every prefix, in rank order
}

// newSuffixOrder gives every prefix of groups its Rank in the suffix order
// of an n-symbol string, takes the suffix array from opts.Sink and allocates
// the LCP array, writes every window's join and
// hands the order to ctxs — under opts.AssembleFlat; otherwise it returns
// the zero order, and each context takes its windows from its own slab. The
// labels are prefix-free and their frequencies count every suffix, so in
// label order the windows tile [0, n); it checks both, which the assembly
// relies on.
func newSuffixOrder(opts Options, groups []Group, n int, ctxs ...*buildContext) (suffixOrder, error) {
	if !opts.AssembleFlat {
		return suffixOrder{}, nil
	}
	var ps []*Prefix
	var total int64
	for _, g := range groups {
		for i := range g.Prefixes {
			ps = append(ps, &g.Prefixes[i])
			total += g.Prefixes[i].Freq
		}
	}
	if total != int64(n) {
		return suffixOrder{}, fmt.Errorf("core: the sub-tree labels cover %d of %d suffixes", total, n)
	}
	slices.SortFunc(ps, func(a, b *Prefix) int { return bytes.Compare(a.Label, b.Label) })
	sa, err := sinkOf(opts).Leaves(n)
	if err != nil {
		return suffixOrder{}, err
	}
	ord := suffixOrder{sa: sa, lcp: make([]int32, n), windows: make([]Prefix, len(ps))}
	var rank int64
	for i, p := range ps {
		if i > 0 {
			prev := ps[i-1].Label
			c := commonPrefix(prev, p.Label)
			if c == len(prev) {
				return suffixOrder{}, fmt.Errorf("core: sub-tree labels %q and %q are not prefix-free", prev, p.Label)
			}
			ord.lcp[rank] = int32(c)
		}
		p.Rank = rank
		ord.windows[i] = *p
		rank += p.Freq
	}
	for _, ctx := range ctxs {
		ctx.order = ord
	}
	return ord, nil
}

// sinkOf returns the sink a flat build writes its image into.
func sinkOf(opts Options) suffixtree.Sink {
	if opts.Sink == nil {
		return suffixtree.HeapSink{}
	}
	return opts.Sink
}

// assemble cuts the suffix order into k prefix ranges, each a tree of its
// own (suffixtree.AssembleShards; k ≤ 1 is the whole tree, which whole also
// returns) whose records go where sink puts them. The trees' leaf sections
// are windows of o.sa, which the build owns and nothing writes after its
// groups.
func (o suffixOrder) assemble(raw []byte, k int, sink suffixtree.Sink) (shards []suffixtree.Shard, whole *suffixtree.Flat, err error) {
	shards, err = suffixtree.AssembleShards(raw, o.sa, o.lcp, k, sink)
	if err != nil {
		return nil, nil, fmt.Errorf("core: assembling flat image: %w", err)
	}
	if len(shards) == 1 {
		whole = shards[0].Flat
	}
	return shards, whole, nil
}

func commonPrefix(a, b []byte) int {
	c := 0
	for c < len(a) && c < len(b) && a[c] == b[c] {
		c++
	}
	return c
}

// validateFlatOptions rejects option combinations the direct-to-flat path
// cannot honor.
func validateFlatOptions(opts Options) error {
	if !opts.AssembleFlat {
		return nil
	}
	if opts.WriteTrees {
		return fmt.Errorf("core: AssembleFlat and WriteTrees are exclusive: a build writes an image or sub-tree files, not both")
	}
	if opts.Method != StrMem {
		return fmt.Errorf("core: AssembleFlat requires the ERa-str+mem method")
	}
	return nil
}
