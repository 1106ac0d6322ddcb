// Exported stitch-merge toolkit for cluster routing.
//
// The router in internal/cluster serves a sharded corpus from per-shard
// monolithic indexes hosted on remote replicas. To answer exactly like one
// big index it must re-run the same boundary-stitch and merge logic the
// in-process partitioned executor (tombstone.go, which serves ShardedIndex
// and LiveIndex alike) uses: matches crossing a shard junction are found
// by scanning small stitch windows, per-shard results merge in ascending
// shard order, and the analytics tie-breaks (count desc / label asc, the
// lexicographically smallest longest repeat, ...) are pinned here so every
// layer — monolithic, sharded, live, routed — stays byte-identical.
//
// Everything in this file is a thin exported veneer over the internal
// helpers in shard.go and analytics.go; the logic itself is written once.
// That includes lrs: the router hands the bytes it fetched to the suffix-order
// executor the in-process partitioned layers run (suffixOrderAnswer). Routed
// topk still ships every shard's depth-L census (Index.PrefixCounts) and ranks
// the sum here.
package era

import (
	"context"
	"fmt"

	"era/internal/alphabet"
)

// Stitch is the virtual global string a segmented corpus serves, reduced to
// what junction scanning needs: the total length (content plus the single
// virtual terminator), the ascending interior junction offsets, and a way
// to materialize any [lo, hi) window. The router builds one from replica
// metadata and remote slice fetches.
type Stitch struct {
	ss stitchString
}

// NewStitch assembles a Stitch. totalLen counts the concatenated content
// plus the single terminator; bounds are the ascending interior junction
// offsets; slice must return the window [lo, hi) of the virtual string,
// reusing buf when convenient (it is never retained across calls).
func NewStitch(totalLen int, bounds []int, slice func(buf []byte, lo, hi int) []byte) *Stitch {
	return &Stitch{ss: stitchString{totalLen: totalLen, bounds: bounds, slice: slice}}
}

// TotalLen returns the virtual global string's length (content + terminator).
func (s *Stitch) TotalLen() int { return s.ss.totalLen }

// CrossingOccurrences returns the sorted global start offsets of pattern
// occurrences that cross a junction — the matches no per-shard index can
// see. max > 0 caps the number returned.
func (s *Stitch) CrossingOccurrences(pattern []byte, max int) []int {
	return s.ss.crossingOccurrences(pattern, max)
}

// CrossingWindows invokes fn for every length-m content window crossing a
// junction (terminator-touching windows excluded), deduplicated across
// junctions; start is the global window offset.
func (s *Stitch) CrossingWindows(m int, fn func(start int, window []byte)) {
	s.ss.crossingWindows(m, fn)
}

// MergeOccurrences merges per-shard occurrence lists (each sorted, in
// globally ascending shard order) with the sorted crossing list; max > 0
// caps the output length. It is the in-process executor's merge, not a copy.
func MergeOccurrences(perShard [][]int, crossing []int, max int) []int {
	return mergeOccurrences(perShard, crossing, max)
}

// TopAnswer ranks aggregated substring counts exactly as every index layer
// does: count descending, then pattern ascending, top k win.
func TopAnswer(agg map[string]int, k int) Answer {
	return topAnswer(agg, k)
}

// LongestRepeatContent computes the canonical longest-repeated-substring
// answer over materialized content, the way the in-process partitioned
// executor does: the router holds the fetched corpus but no trees. A canceled
// ctx abandons the scan and returns its error.
func LongestRepeatContent(ctx context.Context, content []byte) (label []byte, occ []int, err error) {
	text := append(content[:len(content):len(content)], alphabet.Terminator)
	ans, err := suffixOrderAnswer(ctx, text, Query{Kind: OpLongestRepeat})
	return ans.Pattern, ans.Occurrences, err
}

// LCSTwoStrings computes the canonical longest-common-substring answer for
// two raw document byte strings: longest first, lexicographically smallest
// among equals, smallest occurrence offset in each document (-1, -1 when
// the documents share nothing).
func LCSTwoStrings(a, b []byte) (label []byte, offA, offB int) {
	return lcsTwoStrings(a, b)
}

// HammingAtMost reports whether two equal-length byte windows differ in at
// most k positions.
func HammingAtMost(a, b []byte, k int) bool {
	return hammingAtMost(a, b, k)
}

// MismatchAnswer finalizes a sorted global mismatch match list under the
// occurrence cap, with the same zero-Answer-when-empty discipline as every
// index layer.
func MismatchAnswer(occ []int, max int) Answer {
	return mismatchAnswer(occ, max)
}

// ContentSlice returns a copy of the raw content bytes [lo, hi) — the
// terminator is not addressable, so offsets are bounded by Len()-1. The
// HTTP shard-serving endpoint exposes this so the router can materialize
// junction stitch windows and full shard content for analytics merges.
func (x *Index) ContentSlice(lo, hi int) ([]byte, error) {
	contentLen := len(x.data) - 1
	if lo < 0 || hi < lo || hi > contentLen {
		return nil, fmt.Errorf("era: content slice [%d, %d) out of range [0, %d)", lo, hi, contentLen)
	}
	return append([]byte(nil), x.data[lo:hi]...), nil
}

// DocBytes returns a copy of one document's raw content by local ordinal.
func (x *Index) DocBytes(ord int) ([]byte, error) {
	if ord < 0 || ord >= len(x.docEnds) {
		return nil, fmt.Errorf("era: document ordinal %d out of range [0, %d)", ord, len(x.docEnds))
	}
	start := 0
	if ord > 0 {
		start = int(x.docEnds[ord-1])
	}
	return append([]byte(nil), x.data[start:x.docEnds[ord]]...), nil
}

// PrefixCounts enumerates every distinct length-L content substring with
// its occurrence count — the building block of an exact routed top-k merge,
// since a globally frequent substring can rank below k in every shard. A
// canceled ctx abandons the walk and returns its error.
func (x *Index) PrefixCounts(ctx context.Context, L int) (map[string]int, error) {
	if err := x.CheckErr(); err != nil {
		return nil, err
	}
	if L < 1 {
		return nil, fmt.Errorf("era: prefix length %d < 1", L)
	}
	stop := ctxStop(ctx)
	counts := make(map[string]int)
	collectPrefixCounts(x.tree, x.data, L, stop, func(label []byte, count int) {
		counts[string(label)] += count
	})
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return counts, nil
}

// The terminator the virtual global string ends with; routers count it when
// computing total lengths from per-shard content lengths.
const TerminatorByte = alphabet.Terminator
