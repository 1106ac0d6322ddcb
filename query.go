package era

import (
	"bytes"
	"context"
	"fmt"
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
	occ := x.tree.Occurrences(pattern)
	out := make([]int, len(occ))
	for i, o := range occ {
		out[i] = int(o)
	}
	sort.Ints(out)
	return out, nil
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
// Batch is safe for any number of concurrent callers on one Index. Ops
// landing on the same tree locus share one Occurrences backing array —
// treat returned Occurrences as read-only.
func (x *Index) Batch(ops []Op) []Result {
	results := make([]Result, len(ops))
	if len(ops) == 0 || !x.healthy() {
		return results
	}

	order := make([]int, 0, len(ops))
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
		if len(op.Pattern) > maxLen {
			maxLen = len(op.Pattern)
		}
	}
	sort.Slice(order, func(a, b int) bool {
		return bytes.Compare(ops[order[a]].Pattern, ops[order[b]].Pattern) < 0
	})

	t := x.tree
	trace := make([]suffixtree.Locus, maxLen)
	var prev []byte
	prevMatched := 0
	// Leaf counts and sorted occurrence lists below a locus node are shared
	// by every op that lands on it; memoize them so duplicate
	// Count/Occurrences patterns pay once.
	var counts map[int32]int
	var occLists map[int32][]int

	for _, oi := range order {
		op := &ops[oi]
		p := op.Pattern

		// Longest prefix shared with the previous pattern whose trace is
		// still valid (a failed match only vouches for its matched part).
		l := lcp(p, prev)
		if l > prevMatched {
			l = prevMatched
		}
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
		if counts == nil {
			counts = make(map[int32]int)
		}
		c, ok := counts[loc.Node]
		if !ok {
			c = t.CountLeaves(loc.Node)
			counts[loc.Node] = c
		}
		r.Count = c
		if op.Kind == OpOccurrences {
			if occLists == nil {
				occLists = make(map[int32][]int)
			}
			out, ok := occLists[loc.Node]
			if !ok {
				occ := t.Leaves(loc.Node)
				out = make([]int, len(occ))
				for i, o := range occ {
					out[i] = int(o)
				}
				sort.Ints(out)
				occLists[loc.Node] = out
			}
			// The memoized slice is shared across results; ops only ever
			// re-slice it, so every result views the same backing array.
			if op.MaxOccurrences > 0 && len(out) > op.MaxOccurrences {
				out = out[:op.MaxOccurrences]
			}
			r.Occurrences = out
		}
	}
	return results
}

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
	return x.docHits(occ, len(pattern)), nil
}

// docHits cuts the ascending global offsets of an m-byte pattern's
// occurrences into per-document hits, in (document, offset) order, dropping
// the matches that cross a document's end and the terminator's own suffix.
func (x *Index) docHits(occ []int, m int) []DocHit {
	hits := make([]DocHit, 0, len(occ))
	d := 0
	for _, o := range occ {
		// The first document ending after o; occ ascends, so d only advances.
		for d < len(x.docEnds) && int(x.docEnds[d]) <= o {
			d++
		}
		if d == len(x.docEnds) {
			break
		}
		if o+m <= int(x.docEnds[d]) {
			start := 0
			if d > 0 {
				start = int(x.docEnds[d-1])
			}
			hits = append(hits, DocHit{Doc: d, Offset: o - start})
		}
	}
	return hits
}

// LongestRepeatedSubstring returns the longest substring occurring at least
// twice, with its occurrence offsets.
func (x *Index) LongestRepeatedSubstring() ([]byte, []int) {
	if !x.healthy() {
		return nil, []int{}
	}
	lbl, occ := x.tree.LongestRepeatedSubstring()
	out := make([]int, len(occ))
	for i, o := range occ {
		out[i] = int(o)
	}
	sort.Ints(out)
	return lbl, out
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
	x.tree.MaximalRepeats(int32(minLen), minOcc, func(node int32, depth int32, occ int) bool {
		label := x.tree.PathLabel(node)
		leaves := x.tree.Leaves(node)
		positions := make([]int, len(leaves))
		for i, l := range leaves {
			positions[i] = int(l)
		}
		sort.Ints(positions)
		out = append(out, Repeat{Pattern: label, Occurrences: positions})
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
