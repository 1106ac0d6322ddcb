package suffixtree

import (
	"bytes"
	"fmt"
)

// Shard is one prefix range of the suffix order built as a tree of its own:
// it holds the suffixes s with Lo ≤ s < Hi, where an empty Hi is the end of
// the order. The whole order is the one shard whose Lo and Hi are both empty.
type Shard struct {
	*Flat
	Lo, Hi []byte
}

// InRange reports whether the string s — a suffix, terminator included —
// lies in the prefix range [lo, hi), an empty hi being the end of the order.
func InRange(s, lo, hi []byte) bool {
	return bytes.Compare(s, lo) >= 0 && (len(hi) == 0 || bytes.Compare(s, hi) < 0)
}

// A Sink supplies the arrays a flat build writes its image into, each at its
// final size: the suffix array, which becomes the leaf section, before the
// sort writes it, and each tree's node and symbol sections once its internal
// nodes are counted. HeapSink allocates them; a sink over a mapped file
// hands out its sections, so the image is built where it is published.
type Sink interface {
	// Leaves returns room for the n-entry suffix array.
	Leaves(n int) ([]int32, error)
	// Tree returns the node and symbol sections of a tree with nInt internal
	// nodes, the root included: FlatNodesLen(nInt) and FlatSymLen(nInt)
	// bytes.
	Tree(nInt int) (nodes, sym []byte, err error)
}

// HeapSink is the Sink that allocates every array.
type HeapSink struct{}

func (HeapSink) Leaves(n int) ([]int32, error) { return make([]int32, n), nil }

func (HeapSink) Tree(nInt int) (nodes, sym []byte, err error) {
	return make([]byte, FlatNodesLen(int64(nInt))), make([]byte, FlatSymLen(int64(nInt))), nil
}

// AssembleShards builds the suffix tree of data from its suffix array sa
// and LCP array lcp (lcp[i] the longest common prefix of sa[i] and sa[i-1];
// lcp[0] is not read) as k trees, each over one contiguous range of the
// order (k = 1 is the whole tree, k is capped at the suffix count). Every
// tree's leaf section is its window of sa — no copy, so sa must be an array
// the caller hands over (FlatBuilder). Cut i falls near rank i·n/k, at the
// rank within ±n/(8k) whose suffix shares the shortest prefix with the one
// before it; ties go to the rank nearest the target, then the lower one. The
// range's lower key is that shared prefix plus the one symbol that tells the
// two apart, the shortest string that separates the ranges, so that few
// patterns are a proper prefix of one — those are the patterns whose
// occurrences two shards share. Each tree is sized exactly before it is
// built: its internal nodes are the LCP intervals of positive depth inside
// its range, counted in one pass over the LCPs, not over any image, and its
// node and symbol sections are the ones sink hands out for that count.
func AssembleShards(data []byte, sa, lcp []int32, k int, sink Sink) ([]Shard, error) {
	n := len(sa)
	if n != len(data) || len(lcp) != n {
		return nil, fmt.Errorf("suffixtree: %d suffixes and %d lcp entries over a %d-byte string", n, len(lcp), len(data))
	}
	if n == 0 {
		return nil, fmt.Errorf("suffixtree: flat build of an empty tree")
	}
	k = min(max(k, 1), n)
	shards := make([]Shard, k)
	open := make([]int32, 0, 64) // the counting pass's stack of open LCP-interval depths
	for i, a := 0, 0; i < k; i++ {
		b := n
		if i+1 < k {
			b = cut(lcp, (i+1)*n/k, n/(8*k), a+1)
		}
		internal := 0
		open = open[:0]
		for _, l := range lcp[a+1 : b] {
			for len(open) > 0 && open[len(open)-1] > l {
				open = open[:len(open)-1]
			}
			if l > 0 && (len(open) == 0 || open[len(open)-1] < l) {
				open = append(open, l)
				internal++
			}
		}
		if err := checkBounds(b-a, n, internal); err != nil {
			return nil, err
		}
		nodes, sym, err := sink.Tree(internal + 1)
		if err != nil {
			return nil, err
		}
		fb := newFlatBuilder(data, sa[a:b], nodes, sym)
		if err := fb.Stream(lcp[a:b]); err != nil {
			return nil, err
		}
		if shards[i].Flat, err = fb.Finish(); err != nil {
			return nil, err
		}
		if a > 0 {
			suf := int(sa[a])
			key := data[suf:min(suf+int(lcp[a])+1, n)]
			shards[i].Lo, shards[i-1].Hi = key, key
		}
		a = b
	}
	return shards, nil
}

// cut returns the rank, no lower than lo, within w of the target rank t
// whose suffix shares the shortest prefix with the one before it — the
// nearest to t among equals, then the lower.
func cut(lcp []int32, t, w, lo int) int {
	best, bestLCP := t, lcp[t]
	for r := max(t-w, lo); r <= min(t+w, len(lcp)-1); r++ {
		if l, d, bd := lcp[r], absDiff(r, t), absDiff(best, t); l < bestLCP || (l == bestLCP && d < bd) {
			best, bestLCP = r, l
		}
	}
	return best
}

func absDiff(a, b int) int {
	if a < b {
		return b - a
	}
	return a - b
}
