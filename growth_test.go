package era

import (
	"runtime"
	"testing"

	"era/internal/alphabet"
	"era/internal/core"
	"era/internal/diskio"
	"era/internal/seq"
	"era/internal/sim"
	"era/internal/workload"
)

// TestGrowthPins runs each deterministic cost at n and 4n symbols and holds
// the ratio of the two to the cost's class. A linear cost grows 4× from one
// size to the other, a quadratic one 16×, while at one size they look
// alike; each row states the slack its linear class allows. Rows that count
// allocated bytes skip under the race detector, whose allocator changes them.
func TestGrowthPins(t *testing.T) {
	const n = 16 << 10
	for _, row := range []struct {
		name   string
		cost   func(t *testing.T, n int) uint64
		slack  float64
		allocs bool
	}{
		{"ERA serial at 13 B/symbol, DNA: bytes fetched", func(t *testing.T, n int) uint64 {
			st, _ := eraCost(t, n, 1)
			return uint64(st.BytesFetched)
		}, 1.1, false},
		{"ERA serial at 13 B/symbol, DNA: bytes allocated", func(t *testing.T, n int) uint64 {
			_, alloc := eraCost(t, n, 1)
			return alloc
		}, 1.1, true},
		// Two workers at 13 B/symbol each: five groups at both sizes, so the
		// multi-group queue, not the idle-worker loan, is what grows.
		{"ERA SharedDisk-2 at 26 B/symbol, DNA: bytes fetched", func(t *testing.T, n int) uint64 {
			st, _ := eraCost(t, n, 2)
			return uint64(st.BytesFetched)
		}, 1.1, false},
		{"ERA SharedDisk-2 at 26 B/symbol, DNA: bytes allocated", func(t *testing.T, n int) uint64 {
			_, alloc := eraCost(t, n, 2)
			return alloc
		}, 1.1, true},
		{"warmed lcs of two n-symbol DNA documents: bytes allocated", lcsAllocated, 1.25, true},
	} {
		if row.allocs && raceEnabled {
			t.Logf("%s: skipped under the race detector", row.name)
			continue
		}
		small, large := row.cost(t, n), row.cost(t, 4*n)
		ratio := float64(large) / float64(small)
		t.Logf("%s: %d at %d symbols, %d at %d: ×%.2f", row.name, small, n, large, 4*n, ratio)
		if ratio > 4*row.slack {
			t.Errorf("%s grew ×%.2f from %d to %d symbols (%d to %d), want ≤ %.2f: it is not linear",
				row.name, ratio, n, 4*n, small, large, 4*row.slack)
		}
	}
}

// eraCost builds the flat tree of n DNA symbols with ERA at a budget of
// 13 B/symbol per worker, below the in-memory builder's — serially for one
// worker, SharedDisk for more — and returns the build's Stats and the bytes
// it allocated: the least of a few builds.
func eraCost(t *testing.T, n, workers int) (core.Stats, uint64) {
	data := workload.MustGenerate(workload.DNA, n, 1)
	f, err := seq.Publish(diskio.NewDisk(sim.DefaultModel()), "input.seq", alphabet.DNA, data)
	if err != nil {
		t.Fatal(err)
	}
	opts := core.Options{MemoryBudget: 13 * int64(workers*n), AssembleFlat: true}
	var st core.Stats
	least := ^uint64(0)
	for range 3 {
		least = min(least, allocatedBy(func() {
			var res *core.Result
			if workers == 1 {
				res, err = core.BuildSerial(f, opts)
			} else {
				res, err = core.BuildParallel(f, core.ParallelOptions{Options: opts, Workers: workers})
			}
			if err != nil {
				t.Fatal(err)
			}
			st = res.Stats
		}))
	}
	runtime.KeepAlive(f)
	t.Logf("ERA with %d worker(s) over %d symbols: %d groups, %d scans", workers, n, st.Groups, st.Scans)
	return st, least
}
