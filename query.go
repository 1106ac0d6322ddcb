package era

import (
	"bytes"
	"context"
	"fmt"
	"slices"
	"sort"

	"era/internal/suffixtree"
)

// Concurrency: every query method on Index (Contains, Count, Occurrences,
// DocOccurrences, LongestRepeatedSubstring, Repeats, LongestCommonSubstring,
// Batch, WriteTo) is a pure read of the immutable tree and string built by
// Build/BuildCorpus/ReadIndex. Any number of goroutines may query one Index
// concurrently without synchronization; the concurrent query server in
// internal/server relies on this, the partitioned executor queries one tier
// Index from a goroutine per tier (tombstone.go), and TestConcurrentQueries
// pins it under the race detector.

// Contains reports whether pattern occurs in the indexed string — the
// O(|P|) search that motivates suffix trees (§1 of the paper). For corpus
// indexes, matches spanning a document boundary are still reported by
// Contains; use DocOccurrences for per-document semantics.
func (x *Index) Contains(pattern []byte) bool {
	if !x.healthy() {
		return false
	}
	return x.tree.Contains(pattern)
}

// Count returns the number of occurrences of pattern.
func (x *Index) Count(pattern []byte) int {
	if !x.healthy() {
		return 0
	}
	return x.tree.Count(pattern)
}

// Occurrences returns the start offsets of every occurrence of pattern in
// the concatenated input, sorted ascending. A corrupt index surfaces
// ErrCorruptIndex instead of silently answering empty.
func (x *Index) Occurrences(pattern []byte) ([]int, error) {
	if err := x.CheckErr(); err != nil {
		return nil, err
	}
	loc, ok := x.tree.Find(pattern)
	if !ok {
		return []int{}, nil
	}
	return x.tree.FirstOccurrences(loc.Node, 0), nil
}

// OpKind selects the operation a query plan performs.
type OpKind int

const (
	// OpContains answers Answer.Found only.
	OpContains OpKind = iota
	// OpCount fills Answer.Count (and Found).
	OpCount
	// OpOccurrences fills Answer.Occurrences (and Count, Found).
	OpOccurrences
	// OpTopK ranks the K most frequent substrings of length MinLen.
	OpTopK
	// OpLongestRepeat finds the longest substring occurring at least twice.
	OpLongestRepeat
	// OpCommonSubstring finds the longest substring shared by DocA and DocB.
	OpCommonSubstring
	// OpDocFreq aggregates per-document stats for a pattern set.
	OpDocFreq
	// OpMismatch finds pattern occurrences within K symbol mismatches.
	OpMismatch
)

// String returns the wire name of the kind ("contains", "count",
// "occurrences", "topk", "lrs", "lcs", "docfreq", "mismatch"), as used by
// the JSON query API.
func (k OpKind) String() string {
	switch k {
	case OpContains:
		return "contains"
	case OpCount:
		return "count"
	case OpOccurrences:
		return "occurrences"
	case OpTopK:
		return "topk"
	case OpLongestRepeat:
		return "lrs"
	case OpCommonSubstring:
		return "lcs"
	case OpDocFreq:
		return "docfreq"
	case OpMismatch:
		return "mismatch"
	}
	return fmt.Sprintf("OpKind(%d)", int(k))
}

// ParseOpKind resolves a wire name to an OpKind.
func ParseOpKind(s string) (OpKind, error) {
	switch s {
	case "contains":
		return OpContains, nil
	case "count":
		return OpCount, nil
	case "occurrences":
		return OpOccurrences, nil
	case "topk":
		return OpTopK, nil
	case "lrs":
		return OpLongestRepeat, nil
	case "lcs":
		return OpCommonSubstring, nil
	case "docfreq":
		return OpDocFreq, nil
	case "mismatch":
		return OpMismatch, nil
	}
	return 0, fmt.Errorf("era: unknown query op %q (want contains, count, occurrences, topk, lrs, lcs, docfreq or mismatch)", s)
}

// Batch answers many queries in one call, amortizing tree descents:
// patterns are processed in lexicographic order and each descent resumes
// from the longest common prefix it shares with its predecessor, so a batch
// of similar or duplicate patterns costs far less than one Find each.
// Results are returned in the order of ops. Like the single-query methods,
// Batch is safe for any number of concurrent callers on one Index.
//
// A batch allocates its []Result and its occurrence lists and nothing else:
// a count is read from the locus node's record, and a capped list is the
// smallest offsets of the node's window of the suffix array, picked in place
// (FlatTree.FirstOccurrences). Ops landing on the same tree locus may share
// one Occurrences backing array — treat returned Occurrences as read-only.
func (x *Index) Batch(ops []Op) []Result {
	results := make([]Result, len(ops))
	if len(ops) == 0 || !x.healthy() {
		return results
	}

	// The op order and the descent trace live on the stack up to
	// batchStackOps ops and pattern symbols; only longer ones allocate.
	var orderBuf [batchStackOps]int
	order := orderBuf[:0]
	maxLen := 0
	for i, op := range ops {
		if op.Kind.IsAnalytic() {
			// Analytics plans dispatch through the tree executor; a
			// malformed plan leaves the zero Answer.
			if a, err := x.Analytics(context.Background(), op); err == nil {
				results[i] = a
			}
			continue
		}
		order = append(order, i)
		maxLen = max(maxLen, len(op.Pattern))
	}
	slices.SortFunc(order, func(a, b int) int {
		return bytes.Compare(ops[a].Pattern, ops[b].Pattern)
	})

	t := x.tree
	var traceBuf [batchStackOps]suffixtree.Locus
	trace := traceBuf[:]
	if maxLen > len(trace) {
		trace = make([]suffixtree.Locus, maxLen)
	}
	var prev []byte
	prevMatched := 0
	// The occurrence list last picked and the locus it lists: ops on one
	// locus are adjacent in pattern order (a found pattern sorting between
	// two on one locus lands on it too), so one entry memoizes them all.
	memoNode, memo := suffixtree.None, []int(nil)

	for _, oi := range order {
		op := &ops[oi]
		p := op.Pattern

		// Longest prefix shared with the previous pattern whose trace is
		// still valid (a failed match only vouches for its matched part).
		l := min(lcp(p, prev), prevMatched)
		matched := t.MatchTrace(p, l, trace)
		prev, prevMatched = p, matched

		if matched != len(p) {
			continue // results[oi] stays the zero Result: not found
		}
		loc := suffixtree.Locus{Node: t.Root()}
		if len(p) > 0 {
			loc = trace[len(p)-1]
		}
		r := &results[oi]
		r.Found = true
		if op.Kind == OpContains {
			continue
		}
		r.Count = t.CountLeaves(loc.Node)
		if op.Kind == OpOccurrences {
			want := r.Count
			if op.MaxOccurrences > 0 {
				want = min(want, op.MaxOccurrences)
			}
			if memoNode != loc.Node || len(memo) < want {
				memoNode, memo = loc.Node, t.FirstOccurrences(loc.Node, op.MaxOccurrences)
			}
			r.Occurrences = memo[:want:want]
		}
	}
	return results
}

// batchStackOps is how many ops, and how many pattern symbols, Batch orders
// and traces in stack arrays before it allocates.
const batchStackOps = 64

// lcp returns the length of the longest common prefix of a and b.
func lcp(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	i := 0
	for i < n && a[i] == b[i] {
		i++
	}
	return i
}

// DocHit locates a pattern occurrence within a document.
type DocHit struct {
	Doc    int // document index as passed to BuildCorpus
	Offset int // offset within that document
}

// DocOccurrences returns the per-document occurrences of pattern, excluding
// matches that cross document boundaries (the standard generalized suffix
// tree discipline when documents are concatenated without separators). A
// corrupt index surfaces ErrCorruptIndex instead of silently answering empty.
func (x *Index) DocOccurrences(pattern []byte) ([]DocHit, error) {
	occ, err := x.Occurrences(pattern)
	if err != nil {
		return nil, err
	}
	return docHits(x.docEnds, occ, len(pattern)), nil
}

// docHits cuts the ascending global offsets of an m-byte pattern's
// occurrences into per-document hits at the documents' exclusive ends, in
// (document, offset) order, dropping the matches that cross a document's end
// and those that start past the last one (the terminator's own suffix).
func docHits[E int | int32](ends []E, occ []int, m int) []DocHit {
	hits := make([]DocHit, 0, len(occ))
	d := 0
	for _, o := range occ {
		// The first document ending after o; occ ascends, so d only advances.
		for d < len(ends) && int(ends[d]) <= o {
			d++
		}
		if d == len(ends) {
			break
		}
		if o+m <= int(ends[d]) {
			start := 0
			if d > 0 {
				start = int(ends[d-1])
			}
			hits = append(hits, DocHit{Doc: d, Offset: o - start})
		}
	}
	return hits
}

// LongestRepeatedSubstring returns the longest substring occurring at least
// twice, with its occurrence offsets ascending — OpLongestRepeat's answer, of
// which it is a shorthand. No repeat, or a corrupt index, answers nil and an
// empty list.
func (x *Index) LongestRepeatedSubstring() ([]byte, []int) {
	ans, err := x.Analytics(context.Background(), Query{Kind: OpLongestRepeat})
	if err != nil || !ans.Found {
		return nil, []int{}
	}
	return ans.Pattern, ans.Occurrences
}

// Repeat is a repeated substring found by Repeats.
type Repeat struct {
	Pattern     []byte
	Occurrences []int
}

// Repeats enumerates maximal repeated substrings of length ≥ minLen that
// occur at least minOcc times, longest first. Each reported repeat is
// right-maximal (extending it by one symbol loses occurrences). This powers
// the time-series motif discovery example (the paper's §1 motivates suffix
// trees for exactly such periodicity mining [15]).
func (x *Index) Repeats(minLen, minOcc int) []Repeat {
	if !x.healthy() {
		return nil
	}
	var out []Repeat
	suffixtree.VisitRepeats(x.tree, int32(minLen), minOcc, func(node int32, depth int32, occ int) bool {
		out = append(out, Repeat{Pattern: x.tree.PathLabel(node), Occurrences: x.tree.FirstOccurrences(node, 0)})
		return true
	})
	sort.SliceStable(out, func(i, j int) bool { return len(out[i].Pattern) > len(out[j].Pattern) })
	return out
}

// LongestCommonSubstring returns the longest substring common to documents
// a and b of a corpus index, with its first occurrence offset in each —
// OpCommonSubstring's answer, of which it is a shorthand. Crossing matches are
// excluded. Documents that share nothing answer nil, 0, 0.
func (x *Index) LongestCommonSubstring(a, b int) ([]byte, int, int, error) {
	if a < 0 || a >= len(x.docEnds) || b < 0 || b >= len(x.docEnds) {
		return nil, 0, 0, fmt.Errorf("era: document index out of range")
	}
	if err := x.CheckErr(); err != nil {
		return nil, 0, 0, err
	}
	ans, err := commonSubstring(context.Background(), x.docBytes(a), x.docBytes(b))
	if err != nil || !ans.Found {
		return nil, 0, 0, err
	}
	return ans.Pattern, ans.OffsetA, ans.OffsetB, nil
}
