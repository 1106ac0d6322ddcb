package core

import (
	"bytes"
	"reflect"
	"testing"

	"era/internal/alphabet"
	"era/internal/diskio"
	"era/internal/seq"
	"era/internal/sim"
	"era/internal/workload"
)

// deepRepeatData builds a highly repetitive DNA string — long exact motif
// runs broken by periodic point mutations — that drives vertical
// partitioning through many refinement rounds and produces strongly skewed
// prefix frequencies.
func deepRepeatData(n int) []byte {
	motif := []byte("TTAGGGTTAGGG")
	data := make([]byte, 0, n)
	for i := 0; len(data) < n-1; i++ {
		sym := motif[i%len(motif)]
		if i%97 == 53 { // rare breaks keep the repeat depth finite
			sym = "ACGT"[(i/97)%4]
		}
		data = append(data, sym)
	}
	return append(data, alphabet.Terminator)
}

// chunkedContexts builds one worker context per requested worker, each with
// a private disk copy of data, mirroring what the parallel drivers do.
func chunkedContexts(t testing.TB, a *alphabet.Alphabet, data []byte, workers int, layout MemoryLayout) []*buildContext {
	t.Helper()
	ctxs := make([]*buildContext, workers)
	for w := range ctxs {
		disk := diskio.NewDisk(sim.DefaultModel())
		disk.CreateFile("input.seq", data)
		f, err := seq.Attach(disk, "input.seq", a)
		if err != nil {
			t.Fatal(err)
		}
		ctxs[w], err = newChunkContext(f, layout, Options{})
		if err != nil {
			t.Fatal(err)
		}
	}
	return ctxs
}

// requireSameGroups fails the test unless the chunked partitioning produced
// the serial reference's groups: composition, order and frequencies.
func requireSameGroups(t *testing.T, workers int, got, want []Group) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("workers=%d: %d groups, want %d", workers, len(got), len(want))
	}
	for gi := range got {
		g, w := got[gi], want[gi]
		if g.Freq != w.Freq || len(g.Prefixes) != len(w.Prefixes) {
			t.Fatalf("workers=%d group %d: freq %d/%d prefixes, want %d/%d",
				workers, gi, g.Freq, len(g.Prefixes), w.Freq, len(w.Prefixes))
		}
		for pi := range g.Prefixes {
			if !bytes.Equal(g.Prefixes[pi].Label, w.Prefixes[pi].Label) || g.Prefixes[pi].Freq != w.Prefixes[pi].Freq {
				t.Errorf("workers=%d group %d prefix %d: %q/%d, want %q/%d", workers, gi, pi,
					g.Prefixes[pi].Label, g.Prefixes[pi].Freq, w.Prefixes[pi].Label, w.Prefixes[pi].Freq)
			}
		}
	}
}

// TestChunkedScanSeamsAtTightBudgets is the budget × workers × alphabet
// property test for the seams between a worker's 64 KiB scan steps. Each
// step opens with the previous step's last k-1 symbols, so when a worker's
// first window start lo sits just below a 64 KiB multiple — the scanner's
// buffer is one block-aligned 64 KiB window at every budget up to 64 MiB —
// that overlap straddles a block boundary from the second step on. Tight
// budgets are what push refinement to k ≥ 3, where the overlap is wide
// enough to straddle; string lengths put worker 1's lo one symbol below a
// block multiple (the seam that used to panic with "seq: refill backwards")
// and one symbol above it (the control), with spans longer than one step.
// Every cell must partition exactly like the serial reference; the
// tightest cell of each alphabet is also built end to end and its tree
// compared with BuildSerial's.
func TestChunkedScanSeamsAtTightBudgets(t *testing.T) {
	const blk = 64 * 1024
	model := sim.DefaultModel()
	reached := map[int]bool{}
	for _, in := range []struct {
		kind workload.Kind
		a    *alphabet.Alphabet
	}{{workload.DNA, alphabet.DNA}, {workload.Protein, alphabet.Protein}} {
		for _, workers := range []int{1, 2, 3, 4} {
			for _, side := range []int{-1, +1} {
				// Round k splits n-k window starts; with n = W·(2·blk+side)+4
				// worker 1 starts at 2·blk+side (side = +1) or one to three
				// symbols below 2·blk (side = -1) in rounds 3 to 5.
				n := workers*(2*blk+side) + 4
				data := workload.MustGenerate(in.kind, n-1, int64(7+workers)) // + terminator = n
				for _, perSym := range []float64{0.25, 1, 4, 16} {
					budget := int64(perSym * float64(n))
					layout, err := PlanMemory(budget, 0, in.a.Bits())
					if err != nil {
						t.Fatal(err)
					}
					f := publish(t, in.a, data)
					clock := new(sim.Clock)
					sc, err := f.NewScanner(clock, seq.ScannerConfig{BufSize: int(layout.InputBuf)})
					if err != nil {
						t.Fatal(err)
					}
					wantGroups, wantStats, err := VerticalPartition(f, sc, clock, model, layout.FM, true)
					if err != nil {
						t.Fatal(err)
					}
					reached[wantStats.Iterations] = true
					ctxs := chunkedContexts(t, in.a, data, workers, layout)
					gotGroups, gotStats, _, err := verticalPartitionChunked(ctxs, n, model, layout.FM, true, sim.CombineSharedDisk, nil)
					if err != nil {
						t.Fatalf("%s workers=%d n=%d budget=%d: %v", in.a.Name(), workers, n, budget, err)
					}
					if gotStats != wantStats {
						t.Errorf("%s workers=%d n=%d budget=%d: stats %+v, want %+v", in.a.Name(), workers, n, budget, gotStats, wantStats)
					}
					requireSameGroups(t, workers, gotGroups, wantGroups)
				}
			}
		}
		if testing.Short() {
			continue
		}
		n := 2*(2*blk-1) + 4
		data := workload.MustGenerate(in.kind, n-1, 9)
		opts := testOptions(int64(n))
		opts.Validate = false
		want, err := BuildSerial(publish(t, in.a, data), opts)
		if err != nil {
			t.Fatal(err)
		}
		got, err := BuildParallel(publish(t, in.a, data), ParallelOptions{Options: opts, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Flat, want.Flat) {
			t.Errorf("%s: shared-disk tree at %d B budget differs from the serial tree", in.a.Name(), opts.MemoryBudget)
		}
	}
	for k := 2; k <= 5; k++ {
		if !reached[k] {
			t.Errorf("no cell refined to k = %d (reached %v): the budgets no longer cover the overlap widths", k, reached)
		}
	}
}

// TestChunkedVPMatchesSerial pins the chunked vertical partitioning to the
// serial reference: identical groups (composition, order, frequencies) and
// identical refinement statistics for every worker count, across workloads,
// string lengths (chunk-boundary edges included) and a deep-repeat input
// that exercises many refinement rounds and the dense-table fallback.
func TestChunkedVPMatchesSerial(t *testing.T) {
	type input struct {
		name string
		a    *alphabet.Alphabet
		data []byte
		fm   int64
	}
	inputs := []input{
		{"tiny", alphabet.DNA, []byte("AC$"), 4},
		{"short", alphabet.DNA, workload.MustGenerate(workload.DNA, 130, 3), 8},
		{"dna", alphabet.DNA, workload.MustGenerate(workload.DNA, 3000, 11), 64},
		{"english", alphabet.English, workload.MustGenerate(workload.English, 3000, 7), 64},
		{"protein", alphabet.Protein, workload.MustGenerate(workload.Protein, 2500, 5), 48},
		{"deep-repeats", alphabet.DNA, deepRepeatData(4000), 24},
	}
	for _, in := range inputs {
		in := in
		t.Run(in.name, func(t *testing.T) {
			model := sim.DefaultModel()
			layout, err := PlanMemory(64*1024, 0, in.a.Bits())
			if err != nil {
				t.Fatal(err)
			}
			f := publish(t, in.a, in.data)
			clock := new(sim.Clock)
			sc, err := f.NewScanner(clock, seq.ScannerConfig{BufSize: int(layout.InputBuf)})
			if err != nil {
				t.Fatal(err)
			}
			wantGroups, wantStats, err := VerticalPartition(f, sc, clock, model, in.fm, true)
			if err != nil {
				t.Fatal(err)
			}

			for _, workers := range []int{1, 2, 3, 5, 8} {
				ctxs := chunkedContexts(t, in.a, in.data, workers, layout)
				gotGroups, gotStats, vpTime, err := verticalPartitionChunked(ctxs, len(in.data), model, in.fm, true, sim.CombineSharedDisk, nil)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if gotStats != wantStats {
					t.Errorf("workers=%d: stats %+v, want %+v", workers, gotStats, wantStats)
				}
				if vpTime <= 0 {
					t.Errorf("workers=%d: no modeled VP time", workers)
				}
				requireSameGroups(t, workers, gotGroups, wantGroups)
			}
		})
	}
}

// TestChunkedVPSharedNothingScales sanity-checks the modeled VP bounds: with
// local copies (shared nothing) more workers must not slow partitioning
// down, and the multi-worker time must beat the serial cpu+io sum once the
// CPU share parallelizes.
func TestChunkedVPSharedNothingScales(t *testing.T) {
	a := alphabet.English
	data := workload.MustGenerate(workload.English, 20000, 13)
	model := sim.DefaultModel()
	layout, err := PlanMemory(64*1024, 0, a.Bits())
	if err != nil {
		t.Fatal(err)
	}
	times := map[int]float64{}
	for _, workers := range []int{1, 4} {
		ctxs := chunkedContexts(t, a, data, workers, layout)
		_, _, vpTime, err := verticalPartitionChunked(ctxs, len(data), model, layout.FM, true, sim.CombineSharedNothing, nil)
		if err != nil {
			t.Fatal(err)
		}
		times[workers] = float64(vpTime)
	}
	if times[4] >= times[1] {
		t.Errorf("shared-nothing VP did not speed up: 1 worker %.0f, 4 workers %.0f", times[1], times[4])
	}
}

// TestVerticalPartitionAllocs pins what vertical partitioning allocates,
// worker contexts included, on 512 Ki DNA symbols at the FM of a 4 B/symbol
// budget (three refinement rounds): 61 allocations at one worker — the
// serial build's context and VP — and 87 at two, a shared-disk pair. The
// bounds, 65 and 117, are the counts from before the serial build ran the
// one-worker VP, when it had a refinement loop of its own and the chunked
// VP allocated its per-worker slices every round.
func TestVerticalPartitionAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement is load-sensitive")
	}
	const n = 512 << 10
	data := workload.MustGenerate(workload.DNA, n-1, 42) // + terminator = n
	layout, err := PlanMemory(4*n, 0, alphabet.DNA.Bits())
	if err != nil {
		t.Fatal(err)
	}
	model := sim.DefaultModel()
	for _, c := range []struct{ workers, bound int }{{1, 65}, {2, 117}} {
		files := make([]*seq.File, c.workers)
		for w := range files {
			files[w] = publish(t, alphabet.DNA, data)
		}
		var rounds int
		allocs := testing.AllocsPerRun(3, func() {
			ctxs := make([]*buildContext, c.workers)
			for w := range ctxs {
				var err error
				if c.workers == 1 {
					ctxs[w], err = newNodeContext(files[w], layout, Options{})
				} else {
					ctxs[w], err = newChunkContext(files[w], layout, Options{})
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			_, vs, _, err := verticalPartitionChunked(ctxs, n, model, layout.FM, true, sim.CombineSharedDisk, nil)
			if err != nil {
				t.Fatal(err)
			}
			rounds = vs.Iterations
		})
		t.Logf("workers=%d: %d rounds, %.0f allocations", c.workers, rounds, allocs)
		if rounds != 3 {
			t.Errorf("workers=%d: %d refinement rounds, want 3: the input no longer measures what the bound was set on", c.workers, rounds)
		}
		if allocs > float64(c.bound) {
			t.Errorf("workers=%d: vertical partitioning took %.0f allocations, want ≤ %d", c.workers, allocs, c.bound)
		}
	}
}
