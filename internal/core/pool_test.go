package core

import (
	"testing"

	"era/internal/alphabet"
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
// same occurrence lists, same prepared L/LCP arrays, same clock accounting.
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
			if len(pooled[i].L) != len(fresh[i].L) || len(pooled[i].LCP) != len(fresh[i].LCP) {
				t.Fatalf("group %d sub %d: array sizes diverge", gi, i)
			}
			for j := range fresh[i].L {
				if pooled[i].L[j] != fresh[i].L[j] {
					t.Fatalf("group %d sub %d: L[%d] = %d != %d", gi, i, j, pooled[i].L[j], fresh[i].L[j])
				}
			}
			for j := 1; j < len(fresh[i].LCP); j++ {
				if pooled[i].LCP[j] != fresh[i].LCP[j] {
					t.Fatalf("group %d sub %d: LCP[%d] = %d != %d", gi, i, j, pooled[i].LCP[j], fresh[i].LCP[j])
				}
			}
		}
	}
}

// TestFlatBuildAllocatesItsOutput is the allocation pin of a direct-to-flat
// build of 256 Ki DNA symbols, in bytes allocated per symbol:
//
//   - serial at the benchmark's tight budget (4 bytes per symbol): ≈ 280 when
//     the flat assembly grew its columns by append and R was a table of slice
//     headers, ≈ 120 while every leaf took a 32-byte record, 59.4 while every
//     fill took a 40-byte request record and R was regrown to each round's
//     need, 53.3 while B, its defined flags and a copy of every group's L
//     and LCP sat beside the suffix order, 47.4 while internal records were
//     32 bytes, 35.5 while the image copied the suffix array, 31.5 while
//     the serial build ran its groups in VP order, 31.7 now that it drains
//     the cost-sorted queue (the context's prepare slabs and sort scratch
//     regrow in another sequence). Array by array: the suffix array (the
//     image's leaf section) and its LCP 8.0, the image's node and symbol
//     sections 14.3, the largest group's P/I/R-slot, area flags and fill
//     schedule 4.7, its sort scratch 1.4, R 1.0, the VP counter 0.8, the
//     collect-scan window 0.6, the rest 0.9. The bound is 35, 10 % above;
//   - SharedDisk with two workers at the default 64 MiB, the shape of the
//     benchmark's parallel cell — one group, a worker's 32 MiB share holding
//     the whole tree: 118.9 with the request records, 107.7 with B and the
//     copies, 91.7 with 32-byte internal records, 79.8 with the suffix array
//     copied into the image, 75.8 now. The node and symbol sections 14.3,
//     the 8 MiB R the plan gives a worker 32.0, P/I/R-slot 12.0, the suffix
//     array and its LCP 8.0, the sort scratch 5.4, the area flags 1.0, the
//     scanners 1.0, the fill schedule 0.8 (its second round's active
//     leaves), the rest 1.3. The bound is 82, 8 % above.
//
// The assembly alone — builder tables sized once from the collected counts,
// plus the sections — must stay within a handful of allocations however many
// nodes it emits.
func TestFlatBuildAllocatesItsOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("builds 256 Ki symbols")
	}
	const n = 256 << 10
	data := workload.MustGenerate(workload.DNA, n, 42)
	f := publish(t, alphabet.DNA, data)
	opts := Options{MemoryBudget: 4 * n, AssembleFlat: true}

	var res *Result
	perSym := bytesPerRun(1, func() {
		var err error
		if res, err = BuildSerial(f, opts); err != nil {
			t.Fatal(err)
		}
	}) / n
	image := len(res.Flat.Nodes) + len(res.Flat.Sym) + len(res.Flat.LeafData)
	t.Logf("serial: %.1f B allocated per symbol, %.1f B of image per symbol", perSym, float64(image)/n)
	if perSym > 35 {
		t.Errorf("a %d-symbol serial flat build allocated %.1f B per symbol, want ≤ 35", n, perSym)
	}
	var pres *Result
	par := bytesPerRun(1, func() {
		var err error
		if pres, err = BuildParallel(f, ParallelOptions{Options: Options{MemoryBudget: 64 << 20, AssembleFlat: true}, Workers: 2}); err != nil {
			t.Fatal(err)
		}
	}) / n
	t.Logf("SharedDisk: %.1f B allocated per symbol, %d groups", par, pres.Stats.Groups)
	if par > 82 {
		t.Errorf("a %d-symbol SharedDisk flat build allocated %.1f B per symbol, want ≤ 82", n, par)
	}

	// Assemble the build's suffix order again and count the allocations.
	raw, err := f.Disk().Bytes(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1, func() {
		if _, _, err := res.order.assemble(raw, 1, sinkOf(Options{})); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%d sub-trees assembled in %.0f allocations", res.Stats.SubTrees, allocs)
	if allocs > 40 { // growing the tables by append would take well over a hundred
		t.Errorf("assembling %d sub-trees took %.0f allocations; the builder's tables must be sized once, not grown", res.Stats.SubTrees, allocs)
	}
}
