package core

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"era/internal/alphabet"
	"era/internal/sim"
	"era/internal/suffixtree"
	"era/internal/workload"
)

// workCounters strips the fields that legitimately depend on the worker
// count (the modeled times) from a Stats, leaving the deterministic work
// counters that must be byte-identical across worker counts.
func workCounters(s Stats) Stats {
	s.VirtualTime = 0
	s.VPTime = 0
	return s
}

// schedulerInputs are skewed workloads: deep repeats concentrate frequency
// in few prefixes (one huge group), Zipfian symbol distributions (English
// letters, amino-acid composition) skew the group sizes.
func schedulerInputs() map[string]struct {
	a    *alphabet.Alphabet
	data []byte
} {
	return map[string]struct {
		a    *alphabet.Alphabet
		data []byte
	}{
		"deep-repeats": {alphabet.DNA, deepRepeatData(4000)},
		"zipf-english": {alphabet.English, workload.MustGenerate(workload.English, 4000, 9)},
		"zipf-protein": {alphabet.Protein, workload.MustGenerate(workload.Protein, 3000, 5)},
	}
}

// TestParallelDeterministicAcrossWorkerCounts is the scheduler's contract:
// with the per-worker memory share held constant, every worker count 1–8
// must produce an image byte-identical to the serial build's — which is the
// Ukkonen oracle's — and identical work counters — whichever worker pulled which group from the queue. (The
// shared-memory driver divides its budget by the worker count, so the test
// scales the total to keep the per-core share — and with it the group set —
// fixed.)
func TestParallelDeterministicAcrossWorkerCounts(t *testing.T) {
	const perCore = 48 * 1024
	counts := []int{1, 2, 3, 4, 5, 6, 7, 8}
	if testing.Short() {
		counts = []int{1, 3, 8} // keep the -race -short gate fast
	}
	for name, in := range schedulerInputs() {
		name, in := name, in
		t.Run(name, func(t *testing.T) {
			serial, err := BuildSerial(publish(t, in.a, in.data), testOptions(perCore))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(serial.Flat, oracleFlat(t, in.a, in.data)) {
				t.Fatal("serial image differs from the Ukkonen oracle's")
			}

			var ref Stats
			for _, workers := range counts {
				opts := ParallelOptions{Options: testOptions(perCore * int64(workers)), Workers: workers}
				res, err := BuildParallel(publish(t, in.a, in.data), opts)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if !reflect.DeepEqual(res.Flat, serial.Flat) {
					t.Errorf("workers=%d: image differs from the serial build's", workers)
				}
				if res.Stats.VirtualTime <= 0 || res.Stats.VPTime <= 0 {
					t.Errorf("workers=%d: missing modeled times %+v", workers, res.Stats)
				}
				got := workCounters(res.Stats)
				if ref == (Stats{}) {
					ref = got
				} else if got != ref {
					t.Errorf("workers=%d: work counters drifted:\n got %+v\nwant %+v", workers, got, ref)
				}
				// Against the serial reference: the construction counters
				// must agree exactly (serial Scans/BytesFetched additionally
				// include the VP passes, which the chunked VP prices per
				// round instead of counting, so those two are compared via
				// the cross-worker check above instead, and Scans for one
				// worker below).
				if got.Prefixes != serial.Stats.Prefixes || got.Groups != serial.Stats.Groups ||
					got.VPIterations != serial.Stats.VPIterations ||
					got.SubTrees != serial.Stats.SubTrees || got.TreeNodes != serial.Stats.TreeNodes ||
					got.Rounds != serial.Stats.Rounds || got.SymbolsRead != serial.Stats.SymbolsRead ||
					got.MinRange != serial.Stats.MinRange || got.MaxRange != serial.Stats.MaxRange {
					t.Errorf("workers=%d: counters differ from serial:\n got %+v\nwant %+v", workers, got, serial.Stats)
				}
				// The serial build is the queue's one-worker run: its group
				// phase is modeled alike, and only its VP counts its passes.
				// (VP times differ: the chunked VP prices its rounds.)
				if workers == 1 {
					if g, w := res.Stats.VirtualTime-res.Stats.VPTime, serial.Stats.VirtualTime-serial.Stats.VPTime; g != w {
						t.Errorf("one worker: group phase modeled at %v, serial at %v", g, w)
					}
					if g := res.Stats.Scans + res.Stats.VPIterations; g != serial.Stats.Scans {
						t.Errorf("one worker: %d group scans + %d VP passes, serial counts %d scans", res.Stats.Scans, res.Stats.VPIterations, serial.Stats.Scans)
					}
				}
			}
		})
	}
}

// TestDistributedDeterministicAcrossNodeCounts is the same contract for the
// shared-nothing driver (whose budget is per node already).
func TestDistributedDeterministicAcrossNodeCounts(t *testing.T) {
	const perNode = 48 * 1024
	counts := []int{1, 2, 3, 5, 8}
	if testing.Short() {
		counts = []int{1, 5} // keep the -race -short gate fast
	}
	for name, in := range schedulerInputs() {
		name, in := name, in
		t.Run(name, func(t *testing.T) {
			serial, err := BuildSerial(publish(t, in.a, in.data), testOptions(perNode))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(serial.Flat, oracleFlat(t, in.a, in.data)) {
				t.Fatal("serial image differs from the Ukkonen oracle's")
			}
			var ref Stats
			for _, nodes := range counts {
				res, err := BuildDistributed(publish(t, in.a, in.data), DistributedOptions{Options: testOptions(perNode), Nodes: nodes})
				if err != nil {
					t.Fatalf("nodes=%d: %v", nodes, err)
				}
				if !reflect.DeepEqual(res.Flat, serial.Flat) {
					t.Errorf("nodes=%d: image differs from the serial build's", nodes)
				}
				got := workCounters(res.Stats)
				if ref == (Stats{}) {
					ref = got
				} else if got != ref {
					t.Errorf("nodes=%d: work counters drifted:\n got %+v\nwant %+v", nodes, got, ref)
				}
			}
		})
	}
}

// TestSchedulerBalancesSkew checks the demand-aware schedule against the old
// static round-robin split on a skewed input: the modeled makespan (slowest
// worker) of the LPT assignment reported in WorkerStats must not exceed what
// round-robin dealing of the same demands would produce.
func TestSchedulerBalancesSkew(t *testing.T) {
	data := deepRepeatData(6000)
	const workers = 4
	res, err := BuildParallel(publish(t, alphabet.DNA, data),
		ParallelOptions{Options: Options{MemoryBudget: workers * 32 * 1024}, Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Groups < workers {
		t.Skipf("only %d groups; nothing to balance", res.Stats.Groups)
	}
	var worst time.Duration
	var total time.Duration
	for _, w := range res.Workers {
		if d := w.CPU + w.IO; d > worst {
			worst = d
		}
		total += w.CPU + w.IO
	}
	// LPT guarantees a makespan within 4/3 of optimal; optimal is at least
	// total/workers. Allow the one-indivisible-group slack on top.
	bound := total/workers + total/2
	if worst > bound {
		t.Errorf("modeled makespan %v exceeds balance bound %v (total %v over %d workers)", worst, bound, total, workers)
	}
}

// TestWorkQueueRace hammers the shared group queue: a tiny per-core budget
// fragments the tree into many small groups, far more than the 16 workers
// pulling them, while several builds run concurrently. Run with -race (CI
// does) this exercises the cursor, the per-worker contexts and the shared
// result slices under real contention.
func TestWorkQueueRace(t *testing.T) {
	data := workload.MustGenerate(workload.DNA, 4000, 21)
	want := oracleFlat(t, alphabet.DNA, data)

	const builds = 3
	var wg sync.WaitGroup
	for i := 0; i < builds; i++ {
		pf, df := publish(t, alphabet.DNA, data), publish(t, alphabet.DNA, data)
		wg.Add(2)
		go func() {
			defer wg.Done()
			res, err := BuildParallel(pf, ParallelOptions{Options: testOptions(16 * 16 * 1024), Workers: 16})
			if err != nil {
				t.Error(err)
				return
			}
			if !reflect.DeepEqual(res.Flat, want) {
				t.Error("parallel build under queue contention diverged from oracle")
			}
		}()
		go func() {
			defer wg.Done()
			res, err := BuildDistributed(df, DistributedOptions{Options: testOptions(16 * 1024), Nodes: 16})
			if err != nil {
				t.Error(err)
				return
			}
			if !reflect.DeepEqual(res.Flat, want) {
				t.Error("distributed build under queue contention diverged from oracle")
			}
		}()
	}
	wg.Wait()
}

// TestGroupRoundsSteadyStateZeroAllocs is the build-context acceptance bound:
// with a warmed per-worker context, extra prepare/branch rounds must cost
// exactly zero allocations (the PR 2 bound without contexts was ≤ 2 per
// round; reusing the schedule, heap, batch and arenas across groups closes
// the gap).
func TestGroupRoundsSteadyStateZeroAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement is load-sensitive")
	}
	model := sim.DefaultModel()
	data := workload.MustGenerate(workload.Genome, 20000, 7)
	f := publish(t, alphabet.DNA, data)
	sc, clock := matcherScanner(t, f)
	groups, _, err := VerticalPartition(f, sc, clock, model, 512, true)
	if err != nil {
		t.Fatal(err)
	}
	g := groups[0]
	for _, cand := range groups {
		if cand.Freq > g.Freq {
			g = cand
		}
	}
	view, err := f.View()
	if err != nil {
		t.Fatal(err)
	}

	ctx := new(buildContext)
	measure := func(name string, static int) (float64, int) {
		var rounds int
		allocs := testing.AllocsPerRun(3, func() {
			scR, clockR := matcherScanner(t, f)
			switch name {
			case "prepare":
				_, stats, err := GroupPrepare(ctx, f, scR, clockR, model, g, 1<<20, static)
				if err != nil {
					t.Fatal(err)
				}
				rounds = stats.Rounds
			case "branch":
				_, stats, err := GroupBranch(ctx, f, view, scR, clockR, model, g, 1<<20, static)
				if err != nil {
					t.Fatal(err)
				}
				rounds = stats.Rounds
			}
		})
		return allocs, rounds
	}

	for _, name := range []string{"prepare", "branch"} {
		measure(name, 3) // warm the context at the narrow round count
		aWide, rWide := measure(name, 9)
		aNarrow, rNarrow := measure(name, 3)
		if rNarrow <= rWide {
			t.Fatalf("%s: narrow range did not add rounds (%d vs %d)", name, rNarrow, rWide)
		}
		if perRound := (aNarrow - aWide) / float64(rNarrow-rWide); perRound != 0 {
			t.Errorf("%s: %.2f allocations per extra round (wide %.0f over %d rounds, narrow %.0f over %d rounds); steady-state rounds must be allocation-free",
				name, perRound, aWide, rWide, aNarrow, rNarrow)
		}
	}
}

// TestRecycledSubTreeMatchesFresh pins the arena-backed tree reuse: building
// each prepared sub-tree into one recycled tree (Reset between builds) must
// produce exactly the shape a fresh build produces, with identical clock
// accounting.
func TestRecycledSubTreeMatchesFresh(t *testing.T) {
	model := sim.DefaultModel()
	data := workload.MustGenerate(workload.DNA, 3000, 3)
	f := publish(t, alphabet.DNA, data)
	sc, clock := matcherScanner(t, f)
	groups, _, err := VerticalPartition(f, sc, clock, model, 64, true)
	if err != nil {
		t.Fatal(err)
	}
	view, err := f.View()
	if err != nil {
		t.Fatal(err)
	}
	ctx := new(buildContext)
	recycled := suffixtree.New(view)
	for _, g := range groups {
		prepared, _, err := GroupPrepare(ctx, f, sc, clock, model, g, 1<<20, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range prepared {
			freshClock, reusedClock := new(sim.Clock), new(sim.Clock)
			fresh, err := BuildSubTree(view, freshClock, model, p)
			if err != nil {
				t.Fatal(err)
			}
			got, err := buildSubTreeInto(recycled, reusedClock, model, p)
			if err != nil {
				t.Fatal(err)
			}
			if !treesEqual(got, fresh) {
				t.Fatalf("recycled build of %q differs from fresh build", p.Prefix.Label)
			}
			if freshClock.Now() != reusedClock.Now() {
				t.Fatalf("recycled build of %q charged %v, fresh %v", p.Prefix.Label, reusedClock.Now(), freshClock.Now())
			}
		}
	}
}
