package core

import (
	"runtime"
	"testing"

	"era/internal/alphabet"
	"era/internal/seq"
	"era/internal/sim"
	"era/internal/workload"
)

// TestPerGroupPooledAllocs is the regression bound for the pooled per-group
// storage (ROADMAP "Hot paths, further"): with a warmed build context, a
// full collect+prepare sweep over every group must not allocate per group —
// the collect matcher, occurrence/chunk lists and subState arrays all come
// from the context's slabs. The bound is small-constant rather than zero to
// leave room for the round loop's deferred scratch hand-back.
func TestPerGroupPooledAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement is load-sensitive")
	}
	model := sim.DefaultModel()
	data := workload.MustGenerate(workload.Genome, 24000, 11)
	f := publish(t, alphabet.DNA, data)
	sc, clock := matcherScanner(t, f)
	groups, _, err := VerticalPartition(f, sc, clock, model, 384, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) < 4 {
		t.Fatalf("test setup: only %d groups; want enough to average over", len(groups))
	}

	ctx := new(buildContext)
	scR, clockR := matcherScanner(t, f)
	sweep := func() {
		for _, g := range groups {
			if _, _, err := GroupPrepare(ctx, f, scR, clockR, model, g, 1<<18, 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	sweep() // warm: slabs grow to the largest group once
	allocs := testing.AllocsPerRun(5, sweep)
	perGroup := allocs / float64(len(groups))
	t.Logf("%d groups, %.1f allocs/sweep, %.3f allocs/group", len(groups), allocs, perGroup)
	if perGroup > 1.0 {
		t.Fatalf("warmed per-group prepare allocates %.3f objects/group (%.1f per %d-group sweep); the pooled storage regressed",
			perGroup, allocs, len(groups))
	}
}

// TestPooledCollectMatchesFresh pins the recycled collect matcher and the
// pooled subState slabs to the exact outputs of the fresh-allocation path:
// same occurrence lists, same prepared L/B arrays, same clock accounting.
func TestPooledCollectMatchesFresh(t *testing.T) {
	model := sim.DefaultModel()
	data := workload.MustGenerate(workload.English, 12000, 23)
	f := publish(t, alphabet.English, data)
	sc, clock := matcherScanner(t, f)
	groups, _, err := VerticalPartition(f, sc, clock, model, 256, true)
	if err != nil {
		t.Fatal(err)
	}

	ctx := new(buildContext) // pooled across iterations
	for gi, g := range groups {
		// Fresh file handles per run: scanners over one simulated disk share
		// head position, which would skew the seek accounting being compared.
		fP := publish(t, alphabet.English, data)
		scP, clockP := matcherScanner(t, fP)
		pooled, pstats, err := GroupPrepare(ctx, fP, scP, clockP, model, g, 1<<18, 0)
		if err != nil {
			t.Fatal(err)
		}
		fF := publish(t, alphabet.English, data)
		scF, clockF := matcherScanner(t, fF)
		fresh, fstats, err := GroupPrepare(nil, fF, scF, clockF, model, g, 1<<18, 0)
		if err != nil {
			t.Fatal(err)
		}
		if clockP.Now() != clockF.Now() {
			t.Fatalf("group %d: pooled clock %v != fresh %v", gi, clockP.Now(), clockF.Now())
		}
		if pstats != fstats {
			t.Fatalf("group %d: pooled stats %+v != fresh %+v", gi, pstats, fstats)
		}
		if len(pooled) != len(fresh) {
			t.Fatalf("group %d: %d prepared vs %d", gi, len(pooled), len(fresh))
		}
		for i := range fresh {
			if string(pooled[i].Prefix.Label) != string(fresh[i].Prefix.Label) {
				t.Fatalf("group %d sub %d: prefix %q != %q", gi, i, pooled[i].Prefix.Label, fresh[i].Prefix.Label)
			}
			if len(pooled[i].L) != len(fresh[i].L) || len(pooled[i].B) != len(fresh[i].B) {
				t.Fatalf("group %d sub %d: array sizes diverge", gi, i)
			}
			for j := range fresh[i].L {
				if pooled[i].L[j] != fresh[i].L[j] {
					t.Fatalf("group %d sub %d: L[%d] = %d != %d", gi, i, j, pooled[i].L[j], fresh[i].L[j])
				}
			}
			for j := 1; j < len(fresh[i].B); j++ {
				if pooled[i].B[j] != fresh[i].B[j] {
					t.Fatalf("group %d sub %d: B[%d] = %+v != %+v", gi, i, j, pooled[i].B[j], fresh[i].B[j])
				}
			}
		}
	}
}

// TestFlatBuildAllocatesItsOutput is the allocation pin of a direct-to-flat
// build at the benchmark's tight budget (4 bytes per symbol): 256 Ki DNA
// symbols must not cost more than 145 allocated bytes each (≈ 280 when the
// flat assembly grew its columns by append and R was a table of slice
// headers; ≈ 120 while every leaf took a 32-byte record; ≈ 97 now, 38 of it
// the image itself), and the assembly
// alone — builder tables sized once from the collected counts, plus the
// sections — must stay within a handful of allocations however many nodes
// it emits.
func TestFlatBuildAllocatesItsOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("builds 256 Ki symbols")
	}
	const n = 256 << 10
	data := workload.MustGenerate(workload.DNA, n, 42)
	f := publish(t, alphabet.DNA, data)
	opts := Options{MemoryBudget: 4 * n, AssembleFlat: true}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := BuildSerial(f, opts)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	perSym := float64(after.TotalAlloc-before.TotalAlloc) / n
	image := len(res.Flat.Nodes) + len(res.Flat.Sym)
	t.Logf("%.1f B allocated per symbol, %.1f B of image per symbol", perSym, float64(image)/n)
	if perSym > 145 {
		t.Errorf("a %d-symbol flat build allocated %.1f B per symbol, want ≤ 145", n, perSym)
	}

	// Re-collect the sub-trees and count the assembly's allocations.
	clock := new(sim.Clock)
	sc, err := f.NewScanner(clock, seq.ScannerConfig{BufSize: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	layout, err := PlanMemory(opts.MemoryBudget, 0, f.Alphabet().Bits())
	if err != nil {
		t.Fatal(err)
	}
	collected := new(Result)
	ctx := new(buildContext)
	for gi, g := range res.Groups {
		if err := processGroup(ctx, f, sc, clock, clock, sim.DefaultModel(), layout, opts, g, gi, collected); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := f.Disk().Bytes(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1, func() {
		if _, err := assembleFlatSubs(raw, collected.flatSubs, 1); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%d sub-trees assembled in %.0f allocations", len(collected.flatSubs), allocs)
	if allocs > 40 { // growing the tables by append would take well over a hundred
		t.Errorf("assembling %d sub-trees took %.0f allocations; the builder's tables must be sized once, not grown", len(collected.flatSubs), allocs)
	}
}
