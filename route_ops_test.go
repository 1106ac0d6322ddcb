package era

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// routeOpsFixture is a K=3 sharded index, the monolithic index over the same
// corpus, and a batch mixing every op kind: membership ops on sampled
// patterns and on every proper prefix of a key (several owners), and every
// valid analytics query.
type routeOpsFixture struct {
	sx   *ShardedIndex
	mono *Index
	ops  []Op
}

func newRouteOpsFixture(t *testing.T) *routeOpsFixture {
	t.Helper()
	// Cut into three, this corpus's keys are "", "C" and "GG": a boundary
	// 1-mer, "G", that shard 0 does not own.
	docs := shardTestCorpus(t, 6, 7)
	sx, err := BuildShardedCorpus(docs, &ShardConfig{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	mono, err := BuildCorpus(docs, nil)
	if err != nil {
		t.Fatal(err)
	}
	f := &routeOpsFixture{sx: sx, mono: mono}
	for i, p := range append(shardTestPatterns(docs, 5)[:24], keyPatterns(sx)...) {
		f.ops = append(f.ops,
			Op{Kind: OpContains, Pattern: p},
			Op{Kind: OpCount, Pattern: p},
			Op{Kind: OpOccurrences, Pattern: p, MaxOccurrences: i % 4})
	}
	for _, q := range analyticsQuerySet(sx.NumDocs()) {
		if q.Validate(nil, sx.NumDocs()) == nil {
			f.ops = append(f.ops, q)
		}
	}
	return f
}

// ask is the shards' own ask, with shard s reported down whenever isDown
// says so.
func (f *routeOpsFixture) ask(isDown func(s int, ops []Op) bool) func(context.Context, int, []Op) ([]Result, error) {
	return func(ctx context.Context, s int, ops []Op) ([]Result, error) {
		if isDown != nil && isDown(s, ops) {
			return nil, fmt.Errorf("every replica of shard %d failed: %w", s, ErrShardDown)
		}
		return f.sx.ask(ctx, s, ops)
	}
}

// needs reports whether op's answer asks shard s: its owners for a
// membership op, its patterns' owners for docfreq, every shard for topk, lrs
// and mismatch, and for lcs no single shard.
func (f *routeOpsFixture) needs(op Op, s int) bool {
	switch op.Kind {
	case OpCommonSubstring:
		return false
	case OpTopK, OpLongestRepeat, OpMismatch:
		return true
	}
	pats := op.Patterns
	if op.Kind != OpDocFreq {
		pats = [][]byte{op.Pattern}
	}
	return slices.ContainsFunc(pats, func(p []byte) bool {
		first, last := Owners(f.sx.keys, p)
		return first <= s && s <= last
	})
}

// TestRouteOps pins the partitioned executor's contract over a fake ask on a
// real K=3 sharded index: with every shard up, the answers are the
// monolithic index's; a shard that is down flags partial exactly the ops
// that need it — a topk included when only its boundary count does — and is
// named in down; a done context and any other error fail the call; lcs
// falls through to the next shard; and the shards one call touches are asked
// concurrently, each first for the membership ops it owns, in caller order.
func TestRouteOps(t *testing.T) {
	f := newRouteOpsFixture(t)
	ctx := context.Background()
	want := f.mono.Batch(f.ops)

	t.Run("up", func(t *testing.T) {
		var mu sync.Mutex
		asked := map[int][][]Op{}
		got, partial, down, err := RouteOps(ctx, f.sx.keys, f.ops, func(ctx context.Context, s int, ops []Op) ([]Result, error) {
			mu.Lock()
			asked[s] = append(asked[s], ops)
			mu.Unlock()
			return f.sx.ask(ctx, s, ops)
		})
		if err != nil || down != nil || slices.Contains(partial, true) {
			t.Fatalf("err %v, down %v, partial %v", err, down, partial)
		}
		for i := range f.ops {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Errorf("op %d %+v:\n got %+v\nwant %+v", i, f.ops[i], got[i], want[i])
			}
		}
		// The batch's membership ops reach each shard as its first ask, the
		// ops it owns in caller order.
		for s := range f.sx.keys {
			var own []Op
			for _, op := range f.ops {
				if !op.Kind.IsAnalytic() && f.needs(op, s) {
					own = append(own, op)
				}
			}
			if len(asked[s]) == 0 || !reflect.DeepEqual(asked[s][0], own) {
				t.Errorf("shard %d was not first asked the %d ops it owns", s, len(own))
			}
		}
	})

	t.Run("shard-down", func(t *testing.T) {
		for dead := range f.sx.keys {
			got, partial, down, err := RouteOps(ctx, f.sx.keys, f.ops, f.ask(func(s int, _ []Op) bool { return s == dead }))
			if err != nil {
				t.Fatal(err)
			}
			for s, e := range down {
				if (e != nil) != (s == dead) || (e != nil && !errors.Is(e, ErrShardDown)) {
					t.Errorf("shard %d down: down[%d] = %v", dead, s, e)
				}
			}
			for i, op := range f.ops {
				if partial[i] != f.needs(op, dead) {
					t.Errorf("shard %d down, op %d %+v: partial %v", dead, i, op, partial[i])
				}
				if !partial[i] && !reflect.DeepEqual(got[i], want[i]) {
					t.Errorf("shard %d down, op %d %+v (complete):\n got %+v\nwant %+v", dead, i, op, got[i], want[i])
				}
			}
		}
	})

	t.Run("topk-boundary-count", func(t *testing.T) {
		// Shard s answers its own top-k but not the count of a boundary
		// L-mer (a proper prefix of a key, whose occurrences straddle a
		// cut): the topk is partial exactly when some boundary L-mer's
		// owners include s.
		longest := 0
		for _, key := range f.sx.keys {
			longest = max(longest, len(key))
		}
		seen := map[bool]int{}
		for dead := range f.sx.keys {
			memberDown := func(s int, ops []Op) bool { return s == dead && !ops[0].Kind.IsAnalytic() }
			for l := 1; l <= longest; l++ {
				wantPartial := false
				for _, key := range f.sx.keys[1:] {
					if len(key) > l {
						first, last := Owners(f.sx.keys, key[:l])
						wantPartial = wantPartial || (first <= dead && dead <= last)
					}
				}
				_, partial, down, err := RouteOps(ctx, f.sx.keys, []Op{{Kind: OpTopK, K: 4, MinLen: l}}, f.ask(memberDown))
				if err != nil {
					t.Fatal(err)
				}
				if partial[0] != wantPartial || (down != nil) != wantPartial {
					t.Errorf("shard %d down to membership asks, topk L=%d: partial %v, down %v, want partial %v", dead, l, partial[0], down, wantPartial)
				}
				seen[wantPartial]++
			}
		}
		if seen[true] == 0 || seen[false] == 0 {
			t.Fatalf("the corpus's keys give no topk both with and without a boundary count on a down shard: %v", seen)
		}
	})

	t.Run("errors-fail-the-call", func(t *testing.T) {
		canceled, cancel := context.WithCancel(ctx)
		cancel()
		broken := errors.New("broken shard")
		for _, op := range []Op{f.ops[0], {Kind: OpTopK, K: 3, MinLen: 2}, {Kind: OpCommonSubstring, DocA: 0, DocB: 1}} {
			// A shard that looks down because the request ended is the
			// request's end, not a partial answer.
			_, _, _, err := RouteOps(canceled, f.sx.keys, []Op{op}, f.ask(func(int, []Op) bool { return true }))
			if !errors.Is(err, context.Canceled) {
				t.Errorf("%s on a canceled context: err %v", op.Kind, err)
			}
			_, _, _, err = RouteOps(ctx, f.sx.keys, []Op{op}, func(context.Context, int, []Op) ([]Result, error) { return nil, broken })
			if !errors.Is(err, broken) {
				t.Errorf("%s on a broken shard: err %v", op.Kind, err)
			}
		}
	})

	t.Run("lcs-falls-through", func(t *testing.T) {
		q := Op{Kind: OpCommonSubstring, DocA: 0, DocB: f.sx.NumDocs() - 1}
		wantLCS := f.mono.Batch([]Op{q})[0]
		var asked []int
		got, partial, down, err := RouteOps(ctx, f.sx.keys, []Op{q}, func(ctx context.Context, s int, ops []Op) ([]Result, error) {
			asked = append(asked, s)
			if s == 0 {
				return nil, ErrShardDown
			}
			return f.sx.ask(ctx, s, ops)
		})
		if err != nil || partial[0] || down != nil || !reflect.DeepEqual(got[0], wantLCS) || !slices.Equal(asked, []int{0, 1}) {
			t.Errorf("shard 0 down: asked %v, err %v, partial %v, down %v\n got %+v\nwant %+v", asked, err, partial[0], down, got[0], wantLCS)
		}
		got, partial, down, err = RouteOps(ctx, f.sx.keys, []Op{q}, f.ask(func(int, []Op) bool { return true }))
		if err != nil || !partial[0] || got[0].OffsetA != -1 || got[0].OffsetB != -1 || slices.Contains(down, nil) {
			t.Errorf("every shard down: err %v, partial %v, down %v, answer %+v", err, partial[0], down, got[0])
		}
	})

	t.Run("concurrent", func(t *testing.T) {
		// The first three asks wait for each other: asked one after
		// another, the first would wait out the timeout. The empty pattern
		// is owned by every shard, and lrs asks every shard.
		for _, ops := range [][]Op{{{Kind: OpCount}}, {{Kind: OpLongestRepeat}}} {
			var arrived sync.WaitGroup
			arrived.Add(len(f.sx.keys))
			var n atomic.Int32
			_, _, _, err := RouteOps(ctx, f.sx.keys, ops, func(ctx context.Context, s int, sub []Op) ([]Result, error) {
				if int(n.Add(1)) <= len(f.sx.keys) {
					arrived.Done()
					all := make(chan struct{})
					go func() { arrived.Wait(); close(all) }()
					select {
					case <-all:
					case <-time.After(5 * time.Second):
						return nil, fmt.Errorf("%s: the shards were not asked concurrently", ops[0].Kind)
					}
				}
				return f.sx.ask(ctx, s, sub)
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	})
}
