package era

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"era/internal/alphabet"
	"era/internal/suffixtree"
	"era/internal/workload"
)

// Tests for the partitioned lrs / topk — the live index's suffix order, one
// per snapshot (textOrder and suffixOrderAnswer, analytics.go) and the sharded index's merge of
// per-shard tree answers (MergeShards) — and the cost pins of the analytics
// walks.

// suffixCorpus returns n bytes of one of the inputs that stress a suffix
// order: random text, periodic texts (every suffix repeats for as long as the
// text lasts) and a low-entropy text in between.
func suffixCorpus(kind string, n int, rng *rand.Rand) []byte {
	out := make([]byte, n)
	for i := range out {
		switch kind {
		case "random":
			out[i] = "ACGT"[rng.Intn(4)]
		case "one-symbol":
			out[i] = 'A'
		case "period-2":
			out[i] = "AC"[i%2]
		case "period-7":
			out[i] = "ACGTTGA"[i%7]
		case "low-entropy":
			out[i] = 'A'
			if rng.Intn(9) == 0 {
				out[i] = 'C'
			}
		default:
			panic("unknown corpus kind " + kind)
		}
	}
	return out
}

var suffixCorpusKinds = []string{"random", "one-symbol", "period-2", "period-7", "low-entropy"}

// cutDocs splits text into nDocs consecutive documents at random cuts; with
// empties, roughly every third document is empty.
func cutDocs(text []byte, nDocs int, empties bool, rng *rand.Rand) [][]byte {
	cuts := make([]int, nDocs+1)
	cuts[nDocs] = len(text)
	for i := 1; i < nDocs; i++ {
		cuts[i] = rng.Intn(len(text) + 1)
	}
	for i := 1; i < nDocs; i++ { // insertion sort: nDocs is small
		for j := i; j > 0 && cuts[j] < cuts[j-1]; j-- {
			cuts[j], cuts[j-1] = cuts[j-1], cuts[j]
		}
	}
	if empties {
		for i := 1; i < nDocs; i += 3 {
			cuts[i] = cuts[i-1]
		}
	}
	docs := make([][]byte, nDocs)
	for i := range docs {
		docs[i] = text[cuts[i]:cuts[i+1]]
	}
	return docs
}

// tombstonedLive appends docs (24 of them) to a fresh live index sealing
// every five, so five tiers result, and tombstones eight: the head, the
// tail, an adjacent pair inside a tier, both sides of a tier cut, and one in
// each remaining tier. With memtable set, four more documents derived from
// docs follow unsealed — one empty — and one of them is tombstoned too. It
// returns the index and the surviving documents in order.
func tombstonedLive(t *testing.T, docs [][]byte, memtable bool) (*LiveIndex, [][]byte) {
	t.Helper()
	lx, err := NewLive("merge", &LiveConfig{MemtableMaxDocs: 5, MemtableMaxBytes: 1 << 40})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range docs {
		if _, err := lx.Append([][]byte{d}); err != nil {
			t.Fatal(err)
		}
	}
	if err := lx.Seal(); err != nil {
		t.Fatal(err)
	}
	dead := map[int]bool{0: true, 4: true, 5: true, 7: true, 8: true, 12: true, 17: true, 23: true}
	all := docs
	if memtable {
		extra := [][]byte{docs[3], {}, docs[1], docs[20]}
		if _, err := lx.Append(extra); err != nil {
			t.Fatal(err)
		}
		all = append(append([][]byte(nil), docs...), extra...)
		dead[26] = true
	}
	for id := range dead {
		if ok, err := lx.Delete(uint64(id)); err != nil || !ok {
			t.Fatalf("Delete(%d) = %v, %v", id, ok, err)
		}
	}
	st := lx.Stats()
	if want := map[bool]int{false: 0, true: 4}[memtable]; st.Tiers != 5 || st.DeadDocs != len(dead) || st.MemtableDocs != want {
		t.Fatalf("live layout: %d tiers, %d tombstones, %d memtable docs; want 5, %d, %d", st.Tiers, st.DeadDocs, st.MemtableDocs, len(dead), want)
	}
	var live [][]byte
	for i, d := range all {
		if !dead[i] {
			live = append(live, d)
		}
	}
	return lx, live
}

// requireSuffixOrderAnswers checks lrs and a spread of topk queries on a
// partitioned layer against the monolithic index over the same documents.
func requireSuffixOrderAnswers(t *testing.T, label string, mono *Index, got Queryable) {
	t.Helper()
	ctx := context.Background()
	for _, q := range []Query{{Kind: OpLongestRepeat}, {Kind: OpTopK, K: 3, MinLen: 1}, {Kind: OpTopK, K: 5, MinLen: 4}, {Kind: OpTopK, K: MaxTopK, MinLen: 2}} {
		want, err := mono.Analytics(ctx, q)
		if err != nil {
			t.Fatalf("%s: mono %s: %v", label, q.Kind, err)
		}
		ans, err := got.Analytics(ctx, q)
		if err != nil {
			t.Fatalf("%s: %s: %v", label, q.Kind, err)
		}
		if !reflect.DeepEqual(ans, want) {
			t.Fatalf("%s: %s k=%d L=%d\n got %+v\nwant %+v", label, q.Kind, q.K, q.MinLen, ans, want)
		}
	}
}

// TestPartitionedSuffixOrderAnswers pins partitioned lrs and topk to the
// monolithic index — itself pinned to the naive oracles here — over random
// and periodic corpora, document counts below and above the shard count,
// empty documents, and a live index whose every tier carries tombstones,
// with and without a tombstoned memtable behind the tiers. The suffix order
// answers the same lrs and topk whether the string comes as one segment or
// several, and no answer aliases the order its snapshot keeps.
func TestPartitionedSuffixOrderAnswers(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	ctx := context.Background()
	for _, kind := range suffixCorpusKinds {
		text := suffixCorpus(kind, 600, rng)
		for _, nDocs := range []int{1, 2, 5, 17} {
			for _, empties := range []bool{false, true} {
				docs := cutDocs(text, nDocs, empties && nDocs > 2, rng)
				mono, err := BuildCorpus(docs, nil)
				if err != nil {
					t.Fatal(err)
				}
				for shards := 1; shards <= 6; shards++ {
					sx, err := BuildShardedCorpus(docs, &ShardConfig{Shards: shards})
					if err != nil {
						t.Fatal(err)
					}
					requireSuffixOrderAnswers(t, fmt.Sprintf("%s, %d docs (empties %v), %d shards", kind, nDocs, empties, shards), mono, sx)
				}
			}
		}
		for _, memtable := range []bool{false, true} {
			lx, live := tombstonedLive(t, cutDocs(text, 24, memtable, rng), memtable)
			mono, err := BuildCorpus(live, nil)
			if err != nil {
				t.Fatal(err)
			}
			global := bytes.Join(live, nil)
			if got, _ := mono.Analytics(ctx, Query{Kind: OpLongestRepeat}); !reflect.DeepEqual(got, naiveLRS(global)) {
				t.Fatalf("%s: mono lrs differs from the naive oracle", kind)
			}
			if got, _ := mono.Analytics(ctx, Query{Kind: OpTopK, K: 5, MinLen: 4}); !reflect.DeepEqual(got, naiveTopK(global, 4, 5)) {
				t.Fatalf("%s: mono topk differs from the naive oracle", kind)
			}
			requireSuffixOrderAnswers(t, fmt.Sprintf("%s, live (memtable %v)", kind, memtable), mono, lx)
			a, b := len(global)/3, len(global)/2
			whole := []run{{Off: 0, Data: global}}
			cut := []run{{Off: 0, Data: global[:a]}, {Off: a, Data: global[a:b]}, {Off: b, Data: global[b:]}}
			for _, q := range []Query{{Kind: OpLongestRepeat}, {Kind: OpTopK, K: 5, MinLen: 4}, {Kind: OpTopK, K: MaxTopK, MinLen: 2}} {
				want, _ := mono.Analytics(ctx, q)
				for name, segs := range map[string][]run{"one segment": whole, "three segments": cut} {
					o, err := newTextOrder(segs)
					if err != nil {
						t.Fatal(err)
					}
					if got, err := suffixOrderAnswer(ctx, q, o); err != nil || !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: suffixOrderAnswer(%s, %s) = %+v, %v; want %+v", kind, q.Kind, name, got, err, want)
					}
				}
				// Scribbling over an answer leaves the order the snapshot keeps
				// as it was: the next call on it answers as before.
				got, err := lx.Analytics(ctx, q)
				if err != nil {
					t.Fatal(err)
				}
				clear(got.Pattern)
				for i := range got.Occurrences {
					got.Occurrences[i] = -1
				}
				for _, e := range got.Top {
					clear(e.Pattern)
				}
				if again, err := lx.Analytics(ctx, q); err != nil || !reflect.DeepEqual(again, want) {
					t.Fatalf("%s: live %s after its last answer was overwritten = %+v, %v; want %+v", kind, q.Kind, again, err, want)
				}
			}
			lx.Close()
		}
	}
}

// analyticsLive lays docs out as the analytics benchmark does: over three
// sealed tiers, with two extra documents appended among them (after the 10th
// and the 30th) and tombstoned again, so the first two tiers each hold a dead
// document between live ones.
func analyticsLive(t *testing.T, docs, extra [][]byte) *LiveIndex {
	t.Helper()
	all := append(append(append([][]byte{}, docs[:10]...), extra[0]), docs[10:30]...)
	all = append(append(all, extra[1]), docs[30:]...)
	third := (len(all) + 2) / 3
	lx, err := NewLive("analytics", &LiveConfig{MemtableMaxDocs: third, MemtableMaxBytes: 1 << 40})
	if err != nil {
		t.Fatal(err)
	}
	var ids []uint64
	for rest := all; len(rest) > 0; rest = rest[min(third, len(rest)):] {
		got, err := lx.Append(rest[:min(third, len(rest))])
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, got...)
	}
	if err := lx.Seal(); err != nil {
		t.Fatal(err)
	}
	for _, id := range []uint64{ids[10], ids[31]} {
		if ok, err := lx.Delete(id); err != nil || !ok {
			t.Fatalf("Delete(%d) = %v, %v", id, ok, err)
		}
	}
	if st := lx.Stats(); st.Tiers != 3 || st.DeadDocs != 2 || st.LiveDocs != len(docs) {
		t.Fatalf("live layout: %d tiers, %d tombstones, %d live documents; want 3, 2, %d", st.Tiers, st.DeadDocs, st.LiveDocs, len(docs))
	}
	return lx
}

// TestAnalyticsCostPins pins the allocation costs this layer was rewritten
// for: mono topk reads L bytes per distinct L-mer rather than copying a
// suffix, and live lrs and topk read the suffix order their snapshot sorted
// once rather than allocating a suffix array of the corpus (about 14 B per
// symbol) per call, so none of the three grows with the corpus — at 128 Ki
// symbols each allocates at most a quarter more than at 32 Ki, plus 4 KiB.
// Each cost is the least of a few calls: the first live call sorts the order
// the later ones read.
func TestAnalyticsCostPins(t *testing.T) {
	ctx := context.Background()
	topk := Query{Kind: OpTopK, K: 16, MinLen: 8}
	type pin struct {
		name string
		q    Queryable
		op   Query
	}
	allocs := map[string][]uint64{}
	for _, n := range []int{32 << 10, 128 << 10} {
		docs, err := workload.SliceDocs(workload.MustGenerate(workload.DNA, n, 3)[:n], 48)
		if err != nil {
			t.Fatal(err)
		}
		extra, err := workload.SliceDocs(workload.MustGenerate(workload.DNA, 2*len(docs[0]), 4)[:2*len(docs[0])], 2)
		if err != nil {
			t.Fatal(err)
		}
		mono, err := BuildCorpus(docs, nil)
		if err != nil {
			t.Fatal(err)
		}
		lx := analyticsLive(t, docs, extra)
		defer lx.Close()
		for _, p := range []pin{{"mono topk", mono, topk}, {"live topk", lx, topk}, {"live lrs", lx, Query{Kind: OpLongestRepeat}}} {
			want, err := mono.Analytics(ctx, p.op)
			if err != nil {
				t.Fatal(err)
			}
			var got Answer
			run := func() {
				if got, err = p.q.Analytics(ctx, p.op); err != nil {
					t.Error(err)
				}
			}
			run()
			least := allocatedBy(run)
			for range 7 {
				least = min(least, allocatedBy(run))
			}
			allocs[p.name] = append(allocs[p.name], least)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s over %d symbols differs from mono: %+v vs %+v", p.name, n, got, want)
			}
		}
	}
	for name, a := range allocs {
		t.Logf("%s: %d B at 32 Ki symbols, %d B at 128 Ki", name, a[0], a[1])
		if small, large := a[0], a[1]; large > small+small/4+4096 {
			t.Errorf("%s allocated %d B at 32 Ki symbols and %d B at 128 Ki: it grows with the corpus", name, small, large)
		}
	}
}

// TestLiveDocFreqIsOneBatchPerChunk pins live docfreq at one snapshot batch
// per chunk of patterns: 64 patterns on a 3-tier live index with tombstones
// are one OpOccurrences batch, whose per-call set-up (op classes, results,
// the per-tier fan-out, the junction windows) is paid once, not once per
// pattern. What is left per pattern is its occurrence lists — per tier,
// translated, merged — and its document hits: at most 10 allocations.
func TestLiveDocFreqIsOneBatchPerChunk(t *testing.T) {
	const n, patterns = 32 << 10, 64
	docs, err := workload.SliceDocs(workload.MustGenerate(workload.DNA, n, 3)[:n], 48)
	if err != nil {
		t.Fatal(err)
	}
	extra, err := workload.SliceDocs(workload.MustGenerate(workload.DNA, 2*len(docs[0]), 4)[:2*len(docs[0])], 2)
	if err != nil {
		t.Fatal(err)
	}
	mono, err := BuildCorpus(docs, nil)
	if err != nil {
		t.Fatal(err)
	}
	lx := analyticsLive(t, docs, extra)
	defer lx.Close()
	q := Query{Kind: OpDocFreq}
	for i := range patterns {
		d := docs[i%len(docs)]
		o := (i * 97) % (len(d) - 8)
		q.Patterns = append(q.Patterns, d[o:o+4+i%5])
	}
	ctx := context.Background()
	want, err := mono.Analytics(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	var got Answer
	allocs := testing.AllocsPerRun(5, func() {
		if got, err = lx.Analytics(ctx, q); err != nil {
			t.Fatal(err)
		}
	})
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("live docfreq differs from mono:\n got %+v\nwant %+v", got, want)
	}
	t.Logf("a %d-pattern live docfreq: %.0f allocations, %.1f per pattern", patterns, allocs, allocs/patterns)
	// ≈ 8.2 per pattern; a batch per pattern allocated ≈ 23.
	if allocs > 10*patterns {
		t.Errorf("a %d-pattern live docfreq allocated %.0f objects, want ≤ %d: the snapshot batch is not shared by the patterns", patterns, allocs, 10*patterns)
	}
}

// TestLiveAnalyticsSortsOncePerSnapshot: lrs and topk asked of one live
// snapshot at once sort its suffix order once between them and answer as the
// monolithic index does; a mutation's snapshot sorts its own on the next
// call; and a call that waits for the index's sort slot gives up when its
// context ends, sorting nothing.
func TestLiveAnalyticsSortsOncePerSnapshot(t *testing.T) {
	const n = 32 << 10
	docs, err := workload.SliceDocs(workload.MustGenerate(workload.DNA, n, 3)[:n], 48)
	if err != nil {
		t.Fatal(err)
	}
	more := workload.MustGenerate(workload.DNA, 3*len(docs[0]), 4)[:3*len(docs[0])]
	extra := [][]byte{more[:len(docs[0])], more[len(docs[0]) : 2*len(docs[0])]}
	lx := analyticsLive(t, docs, extra)
	defer lx.Close()
	ctx := context.Background()
	queries := []Query{{Kind: OpLongestRepeat}, {Kind: OpTopK, K: 16, MinLen: 8}}
	// requireMono asks every query of lx as many times at once and holds each
	// answer to the monolithic index over docs.
	requireMono := func(label string, docs [][]byte, times int) {
		t.Helper()
		mono, err := BuildCorpus(docs, nil)
		if err != nil {
			t.Fatal(err)
		}
		start := make(chan struct{})
		var wg sync.WaitGroup
		for _, q := range queries {
			want, err := mono.Analytics(ctx, q)
			if err != nil {
				t.Fatal(err)
			}
			for range times {
				wg.Add(1)
				go func() {
					defer wg.Done()
					<-start
					if got, err := lx.Analytics(ctx, q); err != nil || !reflect.DeepEqual(got, want) {
						t.Errorf("%s: live %s = %+v, %v; the monolithic index answers %+v", label, q.Kind, got, err, want)
					}
				}()
			}
		}
		close(start)
		wg.Wait()
	}

	requireMono("one snapshot", docs, 8)
	if got := lx.sorts.Load(); got != 1 {
		t.Fatalf("8 lrs and 8 topk at once on one snapshot sorted %d times; want 1", got)
	}
	docs = append(docs, more[2*len(docs[0]):])
	if _, err := lx.Append(docs[len(docs)-1:]); err != nil {
		t.Fatal(err)
	}
	requireMono("after an append", docs, 1)
	if got := lx.sorts.Load(); got != 2 {
		t.Fatalf("after an append, the next calls brought the sorts to %d; want 2", got)
	}

	if _, err := lx.Append([][]byte{docs[0]}); err != nil {
		t.Fatal(err)
	}
	lx.sortSlot <- struct{}{}
	wait, cancel := context.WithTimeout(ctx, 20*time.Millisecond)
	defer cancel()
	if ans, err := lx.Analytics(wait, queries[0]); !errors.Is(err, context.DeadlineExceeded) || ans.Found {
		t.Errorf("lrs waiting for a held sort slot: %+v, %v; want context.DeadlineExceeded", ans, err)
	}
	<-lx.sortSlot
	if got := lx.sorts.Load(); got != 2 {
		t.Errorf("a call that gave up waiting for the sort slot brought the sorts to %d; want 2", got)
	}
}

// countdownCtx reports no error for its first n Err calls and Canceled from
// then on — a cancellation that lands while a walk is under way, whichever
// goroutine schedule the test runs under. Like any context it may be polled
// from several goroutines at once (the sharded layer walks its shards
// concurrently), so the count is atomic.
type countdownCtx struct {
	context.Context
	n atomic.Int64
}

func (c *countdownCtx) Done() <-chan struct{} { return make(chan struct{}) }

func (c *countdownCtx) Err() error {
	if c.n.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestPartitionedAnalyticsCancelMidWalk: a context canceled after the scan
// started — past the executor's entry check — ends lrs and topk on the
// sharded and live layers with the context's error, not with an answer. The
// live layer is asked with tombstoned tiers alone and with a tombstoned
// memtable behind them.
func TestPartitionedAnalyticsCancelMidWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	docs := cutDocs(suffixCorpus("random", 24*stopCheckInterval, rng), 24, false, rng)
	sx, err := BuildShardedCorpus(docs, &ShardConfig{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	tiers, _ := tombstonedLive(t, docs, false)
	defer tiers.Close()
	memtable, _ := tombstonedLive(t, docs, true)
	defer memtable.Close()
	for _, layer := range []struct {
		name string
		q    Queryable
	}{{"sharded", sx}, {"live tiers", tiers}, {"live tiers + memtable", memtable}} {
		for _, q := range []Query{{Kind: OpLongestRepeat}, {Kind: OpTopK, K: 4, MinLen: 6}} {
			if _, err := layer.q.Analytics(context.Background(), q); err != nil {
				t.Fatalf("%s %s: %v", layer.name, q.Kind, err)
			}
			// Four checks pass. Live, they are the entry check and three polls
			// (the call above sorted the snapshot's order, so this one sorts
			// nothing), so the scan is 4·stopCheckInterval suffixes in when
			// the next poll cancels it.
			ctx := &countdownCtx{Context: context.Background()}
			ctx.n.Store(4)
			ans, err := layer.q.Analytics(ctx, q)
			if err != context.Canceled || ans.Found {
				t.Errorf("%s %s canceled mid-walk: answer %+v, err %v; want context.Canceled", layer.name, q.Kind, ans, err)
			}
			if ctx.n.Load() >= 0 {
				t.Errorf("%s %s: the scan finished without polling its context to cancellation", layer.name, q.Kind)
			}
		}
	}
}

// periodicAnalyticsBound is a loose guard on one lrs or topk over the 64 KiB
// periodic corpora below: the suffix array answers in tens of milliseconds (a
// few hundred under -race), an executor that orders suffixes by comparing
// them needs 10 s and more on the same text.
const periodicAnalyticsBound = 5 * time.Second

// testPeriodicAnalytics is TestAnalyticsDifferential's periodic-corpus case:
// on text where every suffix repeats for as long as the text lasts, lrs and
// topk on the sharded and the tombstoned live layer answer as the monolithic
// index does, in time that does not depend on the repeat length. Every index
// here fits the default budget and is built from a suffix array; one smaller
// period-7 corpus is also built by ERA (asked for by mode — its work grows
// with the square of the repeat length, which is why it stays small) and must
// answer the same.
func testPeriodicAnalytics(t *testing.T) {
	queries := []Query{{Kind: OpLongestRepeat}, {Kind: OpTopK, K: 5, MinLen: 8}, {Kind: OpTopK, K: 64, MinLen: 3}}
	rng := rand.New(rand.NewSource(41))
	for _, kind := range []string{"one-symbol", "period-2", "period-7"} {
		docs := cutDocs(suffixCorpus(kind, 64<<10, rng), 16, false, rng)
		mono, err := BuildCorpus(docs, nil)
		if err != nil {
			t.Fatal(err)
		}
		sx, err := BuildShardedCorpus(docs, &ShardConfig{Shards: 3})
		if err != nil {
			t.Fatal(err)
		}
		// Both layers serve the same 16 documents: the live index holds them
		// around 8 more that are tombstoned again.
		var all [][]byte
		for id, next := 0, 0; id < 24; id++ {
			switch id {
			case 0, 4, 5, 7, 8, 12, 17, 23: // the ids tombstonedLive deletes
				all = append(all, docs[id%len(docs)][:64])
			default:
				all = append(all, docs[next])
				next++
			}
		}
		lx, live := tombstonedLive(t, all, false)
		defer lx.Close()
		if !reflect.DeepEqual(live, docs) {
			t.Fatal("the live index's survivors are not the sharded corpus")
		}
		for _, l := range []struct {
			name string
			q    Queryable
		}{{"sharded", sx}, {"live", lx}} {
			for _, q := range queries {
				want, err := mono.Analytics(context.Background(), q)
				if err != nil {
					t.Fatal(err)
				}
				t0 := time.Now()
				got, err := l.q.Analytics(context.Background(), q)
				took := time.Since(t0)
				if err != nil {
					t.Fatalf("%s, %s: Analytics(%s): %v", kind, l.name, q.Kind, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s, %s: Analytics(%s %+v) differs from the monolithic index: %d-byte pattern, %d occurrences, top %v; want %d, %d, %v",
						kind, l.name, q.Kind, q, len(got.Pattern), got.Count, got.Top, len(want.Pattern), want.Count, want.Top)
				}
				if took > periodicAnalyticsBound {
					t.Errorf("%s, %s: Analytics(%s) took %v, bound %v", kind, l.name, q.Kind, took, periodicAnalyticsBound)
				}
			}
		}
	}

	docs := cutDocs(suffixCorpus("period-7", 8<<10, rng), 4, false, rng)
	mono, err := BuildCorpus(docs, nil)
	if err != nil {
		t.Fatal(err)
	}
	byERA, err := BuildCorpus(docs, &Config{Mode: SharedDisk, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !mono.Stats().InMemory || byERA.Stats().InMemory {
		t.Fatalf("builders: zero Config in memory = %v, SharedDisk in memory = %v", mono.Stats().InMemory, byERA.Stats().InMemory)
	}
	for _, q := range queries {
		want, _ := mono.Analytics(context.Background(), q)
		if got, err := byERA.Analytics(context.Background(), q); err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("period-7 by ERA: Analytics(%s) = %+v, %v; the suffix-array build answers %+v", q.Kind, got, err, want)
		}
	}
}

// TestWalkAllocationsDoNotScale pins the read-side walks' allocation count:
// no closure per visited node, and a mismatch search appends its loci's
// windows of the suffix array to one answer rather than copying each.
func TestWalkAllocationsDoNotScale(t *testing.T) {
	var allocs [2][3]float64
	for i, n := range []int{2 << 10, 16 << 10} {
		data := workload.MustGenerate(workload.DNA, n, 11)
		docs, err := workload.SliceDocs(data[:n], 4)
		if err != nil {
			t.Fatal(err)
		}
		x, err := BuildCorpus(docs, nil)
		if err != nil {
			t.Fatal(err)
		}
		allocs[i][0] = testing.AllocsPerRun(3, func() { suffixtree.LongestRepeated(x.tree, nil) })
		allocs[i][1] = testing.AllocsPerRun(3, func() {
			suffixtree.PrefixLoci(x.tree, 6, func(int32) bool { return true })
		})
		allocs[i][2] = testing.AllocsPerRun(3, func() {
			suffixtree.MismatchSearch(x.tree, x.data, data[:8], 2, alphabet.Terminator, nil)
		})
	}
	for j, name := range []string{"LongestRepeated", "PrefixLoci", "MismatchSearch"} {
		// Stacks and result slices may grow a few more times on the larger
		// tree; a closure per node would add thousands.
		if small, large := allocs[0][j], allocs[1][j]; large > small+16 {
			t.Errorf("%s: %.0f allocations on the 2 Ki-symbol tree, %.0f on the 16 Ki one", name, small, large)
		}
	}
}

// TestLCSAllocationPerSymbol pins what one lcs call allocates per symbol of
// its sorted text a '$' b '#'. A warmed call sorts into the kept scratch, so
// it allocates SA-IS's LMS bits and bucket arrays and the answer's label:
// ≈ 1 B, bound 1.5. A pair above lcsKeepSymbols sorts into fresh arrays: the
// text, its suffix array and one LCP array, permuted and read through the
// suffix array: 9 B, ≈ 10.8 with the SA-IS state and the allocator's page
// rounding. A rank-order copy of the LCPs adds 4 B more (≈ 15), which that
// pair's bound of 12.5 refuses. The least of a few calls is the call's own.
func TestLCSAllocationPerSymbol(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's allocator changes allocation counts")
	}
	for _, c := range []struct {
		n     int
		bound float64
	}{{16 << 10, 1.5}, {lcsKeepSymbols / 2, 12.5}} {
		perSym := float64(lcsAllocated(t, c.n)) / float64(2*c.n+2)
		t.Logf("lcs of two %d-symbol DNA documents: %.2f B per symbol of the pair", c.n, perSym)
		if perSym > c.bound {
			t.Errorf("lcs of two %d-symbol DNA documents allocated %.2f B per symbol of the pair, want ≤ %g", c.n, perSym, c.bound)
		}
	}
}

// lcsAllocated is what a warmed lcs of two n-symbol DNA documents
// allocates: the least of a few calls.
func lcsAllocated(t *testing.T, n int) uint64 {
	a := workload.MustGenerate(workload.DNA, n, 31)[:n]
	b := workload.MustGenerate(workload.DNA, n, 32)[:n]
	x, err := BuildCorpus([][]byte{a, b}, nil)
	if err != nil {
		t.Fatal(err)
	}
	q := Query{Kind: OpCommonSubstring, DocA: 0, DocB: 1}
	run := func() {
		if _, err := x.Analytics(context.Background(), q); err != nil {
			t.Error(err)
		}
	}
	run()
	least := allocatedBy(run)
	for range 4 {
		least = min(least, allocatedBy(run))
	}
	return least
}

// TestLCSAllocationFollowsTheDocuments pins lcs to its two documents: the
// same pair inside a 2 Ki- and a 64 Ki-symbol corpus costs the same bytes
// (within 2×) and objects (within 4), and answers the same.
func TestLCSAllocationFollowsTheDocuments(t *testing.T) {
	data := workload.MustGenerate(workload.DNA, 64<<10, 29)
	pair := [][]byte{data[:768], data[768:1536]}
	q := Query{Kind: OpCommonSubstring, DocA: 0, DocB: 1}
	var bytesOf, objectsOf [2]float64
	var answers [2]Answer
	for i, n := range []int{2 << 10, 64 << 10} {
		docs := append([][]byte{}, pair...)
		for off := 1536; off < n; off += 512 {
			docs = append(docs, data[off:min(off+512, n)])
		}
		x, err := BuildCorpus(docs, nil)
		if err != nil {
			t.Fatal(err)
		}
		run := func() {
			if answers[i], err = x.Analytics(context.Background(), q); err != nil {
				t.Error(err)
			}
		}
		run()
		bytesOf[i] = float64(allocatedBy(run))
		objectsOf[i] = testing.AllocsPerRun(3, run)
	}
	if !reflect.DeepEqual(answers[0], answers[1]) || !answers[0].Found {
		t.Errorf("one pair, two corpora: lcs %+v and %+v", answers[0], answers[1])
	}
	if bytesOf[1] > 2*bytesOf[0] || objectsOf[1] > objectsOf[0]+4 {
		t.Errorf("lcs of two 768-byte documents: %.0f B in %.0f objects in a 2 Ki corpus, %.0f B in %.0f in a 64 Ki one: it grows with the corpus",
			bytesOf[0], objectsOf[0], bytesOf[1], objectsOf[1])
	}
}

// TestLCSKeptScratchConcurrent runs lcs from eight goroutines at once on a
// monolithic, a sharded and a live index, over pairs on both sides of the
// kept scratch's cap (lowered here so that brute force can check them): some
// calls sort into the kept scratch, others, finding it held or the pair too
// large, into fresh arrays. Every answer must be the brute-force one, and
// must still be once every call has returned, so that no answer aliases a
// scratch a later call sorted into.
func TestLCSKeptScratchConcurrent(t *testing.T) {
	defer func(keep int) { lcsKeepSymbols = keep }(lcsKeepSymbols)
	lcsKeepSymbols = 512
	data := workload.MustGenerate(workload.DNA, 4<<10, 37)
	shared := data[:48]
	var docs [][]byte
	for i, n := range []int{90, 140, 200, 250, 310, 380} {
		d := append([]byte(nil), data[1024*(i%3)+100*i:][:n]...)
		if i%2 == 0 {
			copy(d[n/3:], shared[:20+4*i])
		}
		docs = append(docs, d)
	}
	type pair struct{ a, b int }
	var pairs []pair
	want := map[pair]Answer{}
	below := 0
	for a := range docs {
		for b := range docs {
			if a != b {
				p := pair{a, b}
				pairs = append(pairs, p)
				want[p] = naiveLCS(docs[a], docs[b])
				if len(docs[a])+len(docs[b])+2 <= lcsKeepSymbols {
					below++
				}
			}
		}
	}
	if below == 0 || below == len(pairs) {
		t.Fatalf("%d of %d pairs fit the kept scratch: want both sides of its cap", below, len(pairs))
	}

	mono, err := BuildCorpus(docs, nil)
	if err != nil {
		t.Fatal(err)
	}
	sx, err := BuildShardedCorpus(docs, &ShardConfig{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	lx, err := NewLive("lcs-scratch", &LiveConfig{MemtableMaxDocs: 1 << 20, MemtableMaxBytes: 1 << 40})
	if err != nil {
		t.Fatal(err)
	}
	defer lx.Close()
	if _, err := lx.Append(docs[:3]); err != nil {
		t.Fatal(err)
	}
	if err := lx.Seal(); err != nil {
		t.Fatal(err)
	}
	if _, err := lx.Append(docs[3:]); err != nil {
		t.Fatal(err)
	}

	for _, layer := range []struct {
		name string
		ask  func(context.Context, Query) (Answer, error)
	}{{"mono", mono.Analytics}, {"sharded", sx.Analytics}, {"live", lx.Analytics}} {
		const workers, rounds = 8, 3
		got := make([][]Answer, workers)
		var wg sync.WaitGroup
		for w := range workers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for r := range rounds * len(pairs) {
					p := pairs[(r*(2*w+1)+w)%len(pairs)]
					ans, err := layer.ask(context.Background(), Query{Kind: OpCommonSubstring, DocA: p.a, DocB: p.b})
					if err != nil {
						t.Errorf("%s: lcs(%d, %d): %v", layer.name, p.a, p.b, err)
						return
					}
					if !reflect.DeepEqual(ans, want[p]) {
						t.Errorf("%s: lcs(%d, %d) = %+v, brute force gives %+v", layer.name, p.a, p.b, ans, want[p])
					}
					got[w] = append(got[w], ans)
				}
			}()
		}
		wg.Wait()
		for w, answers := range got {
			for r, ans := range answers {
				if p := pairs[(r*(2*w+1)+w)%len(pairs)]; !reflect.DeepEqual(ans, want[p]) {
					t.Errorf("%s: lcs(%d, %d) answered %+v, which later calls turned into %+v", layer.name, p.a, p.b, want[p], ans)
				}
			}
		}
	}
}
