package era

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
)

// Naive scan oracles for the analytics ops, computed directly over the raw
// document bytes — no trees, no hashing, no stitching. Every layer's
// Analytics must be byte-identical to these: the answers are pure functions
// of the virtual global string (the documents' concatenation) and the
// document cuts. The oracles share only the packaging helper mismatchAnswer
// with the real executors; every count, candidate and rank is derived
// independently.

// topAnswer ranks aggregated substring counts the canonical way: count
// descending, then pattern ascending; the top k entries win.
func topAnswer(agg map[string]int, k int) Answer {
	entries := make([]TopEntry, 0, len(agg))
	for s, c := range agg {
		entries = append(entries, TopEntry{Pattern: []byte(s), Count: c})
	}
	if len(entries) == 0 {
		return Answer{}
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].Count != entries[j].Count {
			return entries[i].Count > entries[j].Count
		}
		return bytes.Compare(entries[i].Pattern, entries[j].Pattern) < 0
	})
	if len(entries) > k {
		entries = entries[:k]
	}
	return Answer{Found: true, Top: entries, Count: len(entries)}
}

func naiveTopK(global []byte, L, k int) Answer {
	agg := map[string]int{}
	for i := 0; i+L <= len(global); i++ {
		agg[string(global[i:i+L])]++
	}
	return topAnswer(agg, k)
}

func naiveLRS(global []byte) Answer {
	n := len(global)
	for m := n - 1; m >= 1; m-- {
		pos := map[string][]int{}
		for i := 0; i+m <= n; i++ {
			s := string(global[i : i+m])
			pos[s] = append(pos[s], i)
		}
		best := ""
		for s, p := range pos {
			if len(p) >= 2 && (best == "" || s < best) {
				best = s
			}
		}
		if best != "" {
			return Answer{Found: true, Pattern: []byte(best), Occurrences: pos[best], Count: len(pos[best])}
		}
	}
	return Answer{}
}

func naiveLCS(a, b []byte) Answer {
	maxLen := len(a)
	if len(b) < maxLen {
		maxLen = len(b)
	}
	for m := maxLen; m >= 1; m-- {
		inA := map[string]bool{}
		for i := 0; i+m <= len(a); i++ {
			inA[string(a[i:i+m])] = true
		}
		best, found := "", false
		for j := 0; j+m <= len(b); j++ {
			s := string(b[j : j+m])
			if inA[s] && (!found || s < best) {
				best, found = s, true
			}
		}
		if found {
			lbl := []byte(best)
			return Answer{Found: true, Pattern: lbl, OffsetA: bytes.Index(a, lbl), OffsetB: bytes.Index(b, lbl), Count: m}
		}
	}
	return Answer{OffsetA: -1, OffsetB: -1}
}

func naiveDocFreq(docs [][]byte, patterns [][]byte) Answer {
	ans := Answer{Stats: make([]PatternStat, len(patterns))}
	for i, p := range patterns {
		st := &ans.Stats[i]
		for _, d := range docs {
			c := 0
			for j := 0; j+len(p) <= len(d); j++ {
				if bytes.Equal(d[j:j+len(p)], p) {
					c++
				}
			}
			if c > 0 {
				st.Docs++
			}
			st.Count += c
		}
		ans.Count += st.Count
		if st.Count > 0 {
			ans.Found = true
		}
	}
	return ans
}

func naiveMismatch(global, pattern []byte, k, max int) Answer {
	m := len(pattern)
	var occ []int
	for i := 0; i+m <= len(global); i++ {
		if hammingAtMost(global[i:i+m], pattern, k) {
			occ = append(occ, i)
		}
	}
	return mismatchAnswer(occ, max)
}

func naiveAnswer(docs [][]byte, q Query) Answer {
	global := bytes.Join(docs, nil)
	switch q.Kind {
	case OpTopK:
		return naiveTopK(global, q.MinLen, q.K)
	case OpLongestRepeat:
		return naiveLRS(global)
	case OpCommonSubstring:
		return naiveLCS(docs[q.DocA], docs[q.DocB])
	case OpDocFreq:
		return naiveDocFreq(docs, q.Patterns)
	case OpMismatch:
		return naiveMismatch(global, q.Pattern, q.K, q.MaxOccurrences)
	}
	panic("not an analytics kind")
}

// analyticsQuerySet is the differential workload: every op kind, several
// parameterizations each, including absent patterns, and lcs over every
// ordered document pair.
func analyticsQuerySet(numDocs int) []Query {
	qs := []Query{
		{Kind: OpTopK, K: 1, MinLen: 2},
		{Kind: OpTopK, K: 5, MinLen: 3},
		{Kind: OpTopK, K: 64, MinLen: 4},
		{Kind: OpTopK, K: 3, MinLen: 1},
		{Kind: OpLongestRepeat},
		{Kind: OpDocFreq, Patterns: [][]byte{[]byte("GATTACA"), []byte("TT"), []byte("CCC"), []byte("AAAAAAAGG")}},
		{Kind: OpDocFreq, Patterns: [][]byte{[]byte("G")}},
		{Kind: OpMismatch, Pattern: []byte("GATTACA"), K: 0},
		{Kind: OpMismatch, Pattern: []byte("GATTACA"), K: 1},
		{Kind: OpMismatch, Pattern: []byte("GGTG"), K: 2},
		{Kind: OpMismatch, Pattern: []byte("TTAA"), K: 1, MaxOccurrences: 3},
		{Kind: OpMismatch, Pattern: []byte("NOPE"), K: 0},
	}
	for a := 0; a < numDocs; a++ {
		for b := 0; b < numDocs; b++ {
			if a != b {
				qs = append(qs, Query{Kind: OpCommonSubstring, DocA: a, DocB: b})
			}
		}
	}
	return qs
}

// TestAnalyticsDifferential pins every analytics op byte-identical across
// the four layers — monolithic as built and as reopened from its mapped file,
// sharded into K ∈ {1, 2, 3, 5, 8} prefix ranges, and live after appends and
// deletes — against the naive scan oracle, and the sharded layer again over
// corpora whose cuts are awkward (one document, periodic text, an empty
// document, more shards than DNA has symbols). The corpus carries the lcs
// edge pairs: an empty document, two identical documents, a document inside
// another and two that share nothing. Its periodic sub-test
// (testPeriodicAnalytics) adds the corpora on which a suffix order must not
// be had by comparing suffixes.
func TestAnalyticsDifferential(t *testing.T) {
	docs := [][]byte{
		[]byte("GATTACAGATTACAGGTT"),
		[]byte("CCCGATTACACCCTTG"),
		[]byte("TTTTGGTTAACC"),
		[]byte("ACGTACGTACGTGATT"),
		[]byte("TGGTGGTGGTGCGGTGATGGTGC"),
		nil,                          // empty: lcs with it finds nothing
		[]byte("GATTACAGATTACAGGTT"), // document 0 again: lcs is all of it
		[]byte("CCGATTACAC"),         // inside document 1
		[]byte("AAAAAAA"),
		[]byte("CCGGCCG"), // shares nothing with the one before
	}

	mono, err := BuildCorpus(docs, nil)
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "analytics.idx")
	if err := mono.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	mapped, err := OpenIndex(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()

	// The live index accumulates the same corpus through appends interleaved
	// with extra documents that are then deleted, so the surviving corpus —
	// spread over several tiers, with tombstones in place — matches docs.
	// MemtableMaxDocs 2 forces multiple tiers.
	lx, err := NewLive("analytics-diff", &LiveConfig{Dir: t.TempDir(), MemtableMaxDocs: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer lx.Close()
	extra := [][]byte{[]byte("AAAAACCCCC"), []byte("GGGGTTTTAA"), []byte("CAGTCAGT")}
	var dead []uint64
	appendOne := func(d []byte) uint64 {
		t.Helper()
		ids, err := lx.Append([][]byte{d})
		if err != nil {
			t.Fatal(err)
		}
		return ids[0]
	}
	appendOne(docs[0])
	dead = append(dead, appendOne(extra[0]))
	appendOne(docs[1])
	appendOne(docs[2])
	dead = append(dead, appendOne(extra[1]))
	appendOne(docs[3])
	dead = append(dead, appendOne(extra[2]))
	appendOne(docs[4])
	appendOne(docs[5])
	appendOne(docs[6])
	dead = append(dead, appendOne(extra[0]))
	for _, d := range docs[7:] {
		appendOne(d)
	}
	for _, id := range dead {
		if ok, err := lx.Delete(id); err != nil || !ok {
			t.Fatalf("Delete(%d) = %v, %v", id, ok, err)
		}
	}
	if lx.NumDocs() != len(docs) {
		t.Fatalf("live NumDocs = %d, want %d", lx.NumDocs(), len(docs))
	}

	type layer struct {
		name string
		q    Queryable
	}
	shardedLayers := func(docs [][]byte) []layer {
		var out []layer
		for _, k := range []int{1, 2, 3, 5, 8} {
			sx, err := BuildShardedCorpus(docs, &ShardConfig{Shards: k})
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, layer{fmt.Sprintf("sharded-%d", k), sx})
		}
		return out
	}
	layers := append([]layer{{"mono", mono}, {"mapped-mono", mapped}, {"live", lx}}, shardedLayers(docs)...)
	check := func(docs [][]byte, layers []layer) {
		t.Helper()
		for _, q := range analyticsQuerySet(len(docs)) {
			want := naiveAnswer(docs, q)
			for _, l := range layers {
				got, err := l.q.Analytics(context.Background(), q)
				if err != nil {
					t.Fatalf("%s: Analytics(%s %+v): %v", l.name, q.Kind, q, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s: Analytics(%s %+v)\n got %+v\nwant %+v", l.name, q.Kind, q, got, want)
				}
			}
		}
	}
	check(docs, layers)
	for _, awkward := range [][][]byte{
		{[]byte("GATTACAGATTACAGGTTCCCGATTACACCCTTGTTTTGGTTAACC")},
		{bytes.Repeat([]byte("GATTACA"), 12), bytes.Repeat([]byte("TG"), 20)},
		{[]byte("GATTACAGATTACAGGTT"), nil, []byte("CCCGATTACACCCTTG")},
		{[]byte("ACGTAC"), []byte("GTACGT"), []byte("TTGACA")},
	} {
		check(awkward, shardedLayers(awkward))
	}

	// Periodic corpora, far too long for the naive oracles: the partitioned
	// layers against the monolithic index, inside a time bound.
	t.Run("periodic", testPeriodicAnalytics)
}

// TestAnalyticsBatchDispatch pins the mutual dispatch: an analytics op
// inside Batch answers exactly like Analytics, on every layer, including
// mixed batches with membership ops around it.
func TestAnalyticsBatchDispatch(t *testing.T) {
	docs := [][]byte{
		[]byte("GATTACAGATTACA"),
		[]byte("CCCGATTACACCC"),
		[]byte("ACGTACGTACGT"),
	}
	heap, err := BuildCorpus(docs, nil)
	if err != nil {
		t.Fatal(err)
	}
	sx, err := BuildShardedCorpus(docs, &ShardConfig{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	lx, err := NewLive("analytics-batch", &LiveConfig{Dir: t.TempDir(), MemtableMaxDocs: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer lx.Close()
	if _, err := lx.Append(docs); err != nil {
		t.Fatal(err)
	}

	ops := []Op{
		{Kind: OpCount, Pattern: []byte("GATTACA")},
		{Kind: OpTopK, K: 4, MinLen: 3},
		{Kind: OpOccurrences, Pattern: []byte("ACGT"), MaxOccurrences: 2},
		{Kind: OpLongestRepeat},
		{Kind: OpMismatch, Pattern: []byte("GATT"), K: 1},
		{Kind: OpCommonSubstring, DocA: 0, DocB: 1},
		{Kind: OpDocFreq, Patterns: [][]byte{[]byte("CCC"), []byte("TACA")}},
	}
	for _, layer := range []struct {
		name string
		q    Queryable
	}{{"heap", heap}, {"sharded", sx}, {"live", lx}} {
		batched := layer.q.Batch(ops)
		for i, op := range ops {
			if !op.Kind.IsAnalytic() {
				continue
			}
			direct, err := layer.q.Analytics(context.Background(), op)
			if err != nil {
				t.Fatalf("%s: Analytics(%s): %v", layer.name, op.Kind, err)
			}
			if !reflect.DeepEqual(batched[i], direct) {
				t.Errorf("%s: Batch op %d (%s)\n got %+v\nwant %+v", layer.name, i, op.Kind, batched[i], direct)
			}
		}
	}
}

// TestQueryValidate covers the per-op validation surface: pattern-less ops
// validate without a pattern, and each kind rejects its own malformed
// parameters.
func TestQueryValidate(t *testing.T) {
	cases := []struct {
		name string
		q    Query
		ok   bool
	}{
		{"lrs no pattern", Query{Kind: OpLongestRepeat}, true},
		{"topk ok", Query{Kind: OpTopK, K: 10, MinLen: 4}, true},
		{"topk zero k", Query{Kind: OpTopK, K: 0, MinLen: 4}, false},
		{"topk huge k", Query{Kind: OpTopK, K: MaxTopK + 1, MinLen: 4}, false},
		{"topk zero minlen", Query{Kind: OpTopK, K: 10}, false},
		{"lcs ok", Query{Kind: OpCommonSubstring, DocA: 0, DocB: 2}, true},
		{"lcs same doc", Query{Kind: OpCommonSubstring, DocA: 1, DocB: 1}, false},
		{"lcs out of range", Query{Kind: OpCommonSubstring, DocA: 0, DocB: 3}, false},
		{"lcs negative", Query{Kind: OpCommonSubstring, DocA: -1, DocB: 1}, false},
		{"docfreq ok", Query{Kind: OpDocFreq, Patterns: [][]byte{[]byte("A")}}, true},
		{"docfreq empty set", Query{Kind: OpDocFreq}, false},
		{"docfreq empty pattern", Query{Kind: OpDocFreq, Patterns: [][]byte{nil}}, false},
		{"mismatch ok", Query{Kind: OpMismatch, Pattern: []byte("ACG"), K: 2}, true},
		{"mismatch no pattern", Query{Kind: OpMismatch, K: 1}, false},
		{"mismatch k too big", Query{Kind: OpMismatch, Pattern: []byte("ACG"), K: MaxMismatches + 1}, false},
		{"membership lenient without alphabet", Query{Kind: OpCount}, true},
	}
	for _, c := range cases {
		err := c.q.Validate(nil, 3)
		if (err == nil) != c.ok {
			t.Errorf("%s: Validate = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

// TestFingerprintInjective spot-checks that distinct plans get distinct
// fingerprints (the serving cache's correctness hinges on it).
func TestFingerprintInjective(t *testing.T) {
	qs := []Query{
		{Kind: OpCount, Pattern: []byte("AC")},
		{Kind: OpOccurrences, Pattern: []byte("AC")},
		{Kind: OpOccurrences, Pattern: []byte("AC"), MaxOccurrences: 5},
		{Kind: OpTopK, K: 5, MinLen: 3},
		{Kind: OpTopK, K: 3, MinLen: 5},
		{Kind: OpMismatch, Pattern: []byte("AC"), K: 1},
		{Kind: OpCommonSubstring, DocA: 0, DocB: 1},
		{Kind: OpCommonSubstring, DocA: 1, DocB: 0},
		{Kind: OpDocFreq, Patterns: [][]byte{[]byte("A"), []byte("C")}},
		{Kind: OpDocFreq, Patterns: [][]byte{[]byte("AC")}},
		{Kind: OpDocFreq, Patterns: [][]byte{[]byte("A"), []byte("")}},
	}
	seen := map[string]int{}
	for i, q := range qs {
		fp := q.Fingerprint()
		if j, dup := seen[fp]; dup {
			t.Errorf("plans %d and %d share fingerprint %q", j, i, fp)
		}
		seen[fp] = i
	}
}

// TestFingerprintStable pins the fingerprint's bytes — cache keys of one
// deployment's replicas must agree across versions — and AppendFingerprint
// to the same encoding behind whatever the buffer already holds.
func TestFingerprintStable(t *testing.T) {
	for _, c := range []struct {
		q    Query
		want string
	}{
		{Query{Kind: OpCount, Pattern: []byte("AC")}, "1|0|0|0|0|0|2:AC"},
		{Query{Kind: OpOccurrences, Pattern: []byte("a|b"), MaxOccurrences: 5}, "2|5|0|0|0|0|3:a|b"},
		{Query{Kind: OpTopK, K: 5, MinLen: 3}, "3|0|5|3|0|0|0:"},
		{Query{Kind: OpCommonSubstring, DocA: 1, DocB: 0}, "5|0|0|0|1|0|0:"},
		{Query{Kind: OpDocFreq, Patterns: [][]byte{[]byte("A"), nil, []byte("CG")}}, "6|0|0|0|0|0|0:|1:A|0:|2:CG"},
	} {
		if got := c.q.Fingerprint(); got != c.want {
			t.Errorf("Fingerprint(%+v) = %q, want %q", c.q, got, c.want)
		}
		if got := string(c.q.AppendFingerprint([]byte("7|"))); got != "7|"+c.want {
			t.Errorf("AppendFingerprint(%+v) behind a prefix = %q, want %q", c.q, got, "7|"+c.want)
		}
	}
}
