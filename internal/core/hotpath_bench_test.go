package core

import (
	"fmt"

	"testing"

	"era/internal/alphabet"
	"era/internal/diskio"
	"era/internal/seq"
	"era/internal/sim"
	"era/internal/workload"
)

// The hot-path benchmarks pin the construction inner loops: the vertical
// partitioning window scan, the fused collect+fill scan, and the per-round
// fill/branch loops of the two horizontal builders. Run with -benchmem; the
// AllocsPerRun regression tests in matcher_test.go keep the steady-state
// loops allocation-free.

type benchEnv struct {
	f     *seq.File
	model sim.CostModel
	group Group
	fm    int64
}

func newBenchEnv(b *testing.B, n int, fm int64) *benchEnv {
	b.Helper()
	data := workload.MustGenerate(workload.DNA, n, 42)
	disk := diskio.NewDisk(sim.DefaultModel())
	f, err := seq.Publish(disk, "bench.seq", alphabet.DNA, data)
	if err != nil {
		b.Fatal(err)
	}
	env := &benchEnv{f: f, model: sim.DefaultModel(), fm: fm}
	clock := new(sim.Clock)
	sc, err := f.NewScanner(clock, seq.ScannerConfig{BufSize: 1 << 20})
	if err != nil {
		b.Fatal(err)
	}
	groups, _, err := VerticalPartition(f, sc, clock, env.model, fm, true)
	if err != nil {
		b.Fatal(err)
	}
	// The largest group exercises the round loops hardest.
	env.group = groups[0]
	for _, g := range groups {
		if len(g.Prefixes) > len(env.group.Prefixes) {
			env.group = g
		}
	}
	return env
}

func (e *benchEnv) scanner(b *testing.B) (*seq.Scanner, *sim.Clock) {
	b.Helper()
	clock := new(sim.Clock)
	sc, err := e.f.NewScanner(clock, seq.ScannerConfig{BufSize: 1 << 20})
	if err != nil {
		b.Fatal(err)
	}
	return sc, clock
}

// BenchmarkWindowScan is the vertical partitioning hot loop: one hash/table
// probe per window position per refinement round (§4.1).
func BenchmarkWindowScan(b *testing.B) {
	env := newBenchEnv(b, 1<<18, 1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc, clock := env.scanner(b)
		if _, _, err := VerticalPartition(env.f, sc, clock, env.model, env.fm, true); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCollectFill is the fused occurrence-collection + first fill round
// scan shared by a whole virtual tree (§4.1, §4.2.2 line 1).
func BenchmarkCollectFill(b *testing.B) {
	env := newBenchEnv(b, 1<<18, 1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc, clock := env.scanner(b)
		if _, _, err := CollectWithFill(nil, env.f, sc, clock, env.model, env.group, 32); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRoundFill is SubTreePrepare (ERa-str+mem, §4.2.2) for one virtual
// tree: the per-round fill schedule, batch fetch and area refinement. The
// static range forces many rounds so per-round costs dominate.
func BenchmarkRoundFill(b *testing.B) {
	env := newBenchEnv(b, 1<<18, 1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc, clock := env.scanner(b)
		if _, _, err := GroupPrepare(nil, env.f, sc, clock, env.model, env.group, 1<<20, 8); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSortArea is the kernel of a prepare round (§4.2.2 lines 13–15):
// one 64 Ki-leaf active area of 32-symbol DNA chunks, as round one of a
// wide-budget build meets it, sorted on packed keys.
func BenchmarkSortArea(b *testing.B) {
	const m, rng = 1 << 16, 32
	data := workload.MustGenerate(workload.DNA, m+rng, 42)
	var ch chunkBuf
	ch.reset(m, rng)
	pristine := &subState{L: make([]int32, m), P: make([]int32, m), R: make([]int32, m)}
	for i := 0; i < m; i++ {
		copy(ch.fill(i, rng), data[i:])
		pristine.L[i], pristine.P[i], pristine.R[i] = int32(i), int32(i), int32(i)
	}
	st := &subState{L: make([]int32, m), P: make([]int32, m), R: make([]int32, m), I: make([]int32, m)}
	var scr sortScratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(st.L, pristine.L)
		copy(st.P, pristine.P)
		copy(st.R, pristine.R)
		st.sortArea(&ch, &scr, 0, m)
	}
}

// BenchmarkBranchRounds is ERa-str (§4.2.1) for the same virtual tree: the
// per-round chunk table and the in-tree branching loop.
func BenchmarkBranchRounds(b *testing.B) {
	env := newBenchEnv(b, 1<<18, 1024)
	view, err := env.f.View()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc, clock := env.scanner(b)
		if _, _, err := GroupBranch(nil, env.f, view, sc, clock, env.model, env.group, 1<<20, 8); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBuildParallel is the end-to-end scale-out scenario on a skewed
// input (heavily skewed symbol distribution → uneven group costs): chunked
// VP, the work-stealing scheduler and the per-worker build contexts all in
// play. Memory is fixed per core so every worker count builds the identical
// group set; modeled (virtual) speedups for the same sweep are recorded by
// `era-bench -exp scaling`, machine-independently. Wall-clock scaling here
// additionally needs real cores (GOMAXPROCS ≥ workers).
func BenchmarkBuildParallel(b *testing.B) {
	data := workload.MustGenerate(workload.English, 1<<17, 12003)
	a, err := workload.AlphabetOf(workload.English)
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			disk := diskio.NewDisk(sim.DefaultModel())
			f, err := seq.Publish(disk, "bench.seq", a, data)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := BuildParallel(f, ParallelOptions{
					Options: Options{MemoryBudget: int64(workers) * 96 * 1024},
					Workers: workers,
				})
				if err != nil {
					b.Fatal(err)
				}
				_ = res
			}
		})
	}
}
