package suffixtree

import (
	"bytes"
	"fmt"
	"sort"
)

// SortedRun is a stretch of a sorted suffix stream: Suffixes ascend in the
// suffix order, and LCP[i] is the longest common prefix of Suffixes[i] and
// the suffix before it in the stream — Suffixes[i-1], or for i = 0 the last
// suffix of the run before (ignored for the stream's first suffix). The
// suffix array of S with its LCP array is one run; ERA's sub-trees in label
// order are one run each.
type SortedRun struct {
	Suffixes, LCP []int32
}

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

// AssembleShards builds the suffix tree of data from its sorted suffix stream
// — every suffix of data once, in order — as k trees, each over one
// contiguous range of the order (k = 1 is the whole tree, k is capped at the
// suffix count). Cut i falls near rank i·n/k, at the rank within ±n/(8k)
// whose suffix shares the shortest prefix with the one before it; ties go to
// the rank nearest the target, then the lower one. The range's lower key is
// that shared prefix plus the one symbol that tells the two apart, the
// shortest string that separates the ranges, so that few patterns are a
// proper prefix of one — those are the patterns whose occurrences two shards
// share. Each tree is sized exactly before it is built: its internal nodes
// are the LCP intervals of positive depth inside its range, counted in one
// pass over the LCPs, not over any image.
func AssembleShards(data []byte, runs []SortedRun, k int) ([]Shard, error) {
	s := newStream(runs)
	n := s.len()
	if n != len(data) {
		return nil, fmt.Errorf("suffixtree: a sorted stream of %d suffixes over a %d-byte string", n, len(data))
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
			b = s.cut((i+1)*n/k, n/(8*k), a+1)
		}
		internal := 0
		open = open[:0]
		s.each(a+1, b, func(_, lcp []int32) {
			for _, l := range lcp {
				for len(open) > 0 && open[len(open)-1] > l {
					open = open[:len(open)-1]
				}
				if l > 0 && (len(open) == 0 || open[len(open)-1] < l) {
					open = append(open, l)
					internal++
				}
			}
		})
		fb, err := NewFlatBuilder(data, b-a, internal)
		if err != nil {
			return nil, err
		}
		s.each(a, b, func(sufs, lcp []int32) {
			if err == nil {
				err = fb.AddRun(sufs, lcp)
			}
		})
		if err != nil {
			return nil, err
		}
		if shards[i].Flat, err = fb.Finish(); err != nil {
			return nil, err
		}
		if a > 0 {
			suf := int(s.sufAt(a))
			key := data[suf:min(suf+int(s.lcpAt(a))+1, n)]
			shards[i].Lo, shards[i-1].Hi = key, key
		}
		a = b
	}
	return shards, nil
}

// cut returns the rank, no lower than lo, within w of the target rank t
// whose suffix shares the shortest prefix with the one before it — the
// nearest to t among equals, then the lower.
func (s stream) cut(t, w, lo int) int {
	best, bestLCP := t, s.lcpAt(t)
	for r := max(t-w, lo); r <= min(t+w, s.len()-1); r++ {
		if l, d, bd := s.lcpAt(r), absDiff(r, t), absDiff(best, t); l < bestLCP || (l == bestLCP && d < bd) {
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

// stream addresses a sorted suffix stream by rank.
type stream struct {
	runs   []SortedRun
	starts []int // starts[j]: the rank of runs[j]'s first suffix; one past the end last
}

func newStream(runs []SortedRun) stream {
	s := stream{runs: runs, starts: make([]int, len(runs)+1)}
	for j, r := range runs {
		s.starts[j+1] = s.starts[j] + len(r.Suffixes)
	}
	return s
}

func (s stream) len() int { return s.starts[len(s.runs)] }

// at locates rank r: the run holding it and its position there.
func (s stream) at(r int) (int, int) {
	j := sort.SearchInts(s.starts, r+1) - 1
	return j, r - s.starts[j]
}

func (s stream) lcpAt(r int) int32 {
	j, i := s.at(r)
	return s.runs[j].LCP[i]
}

func (s stream) sufAt(r int) int32 {
	j, i := s.at(r)
	return s.runs[j].Suffixes[i]
}

// each hands fn the stream's ranks [a, b) as run pieces, in order.
func (s stream) each(a, b int, fn func(sufs, lcp []int32)) {
	if a >= b {
		return
	}
	for j, i := s.at(a); a < b; j, i = j+1, 0 {
		r := s.runs[j]
		end := min(len(r.Suffixes), i+b-a)
		if i < end {
			fn(r.Suffixes[i:end], r.LCP[i:end])
		}
		a += end - i
	}
}
