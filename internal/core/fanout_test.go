package core

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"era/internal/alphabet"
	"era/internal/sim"
	"era/internal/suffixtree"
	"era/internal/workload"
)

// oneGroupCorpus is an input a wide budget partitions into one group.
type oneGroupCorpus struct {
	name string
	a    *alphabet.Alphabet
	data []byte
}

// gattaca is n symbols of GATTACA repeated, terminated: every area stays
// tied to the end of its chunks for as many rounds as the string is long.
func gattaca(n int) []byte {
	return append(bytes.Repeat([]byte("GATTACA"), n/7), alphabet.Terminator)
}

// dup is one random DNA document of n symbols followed by a copy of itself:
// half the suffixes share an n-symbol prefix with their twin.
func dup(n int) []byte {
	doc := workload.MustGenerate(workload.DNA, n+1, 42)[:n]
	return append(append(slices.Clip(doc), doc...), alphabet.Terminator)
}

// oneGroupCorpora are random DNA, English and protein, GATTACA and dup, at
// sizes a -short -race run builds in seconds.
func oneGroupCorpora() []oneGroupCorpus {
	return []oneGroupCorpus{
		{"dna", alphabet.DNA, workload.MustGenerate(workload.DNA, 16<<10, 3)},
		{"english", alphabet.English, workload.MustGenerate(workload.English, 16<<10, 4)},
		{"protein", alphabet.Protein, workload.MustGenerate(workload.Protein, 16<<10, 5)},
		{"gattaca", alphabet.DNA, gattaca(2 << 10)},
		{"dup", alphabet.DNA, dup(2 << 10)},
	}
}

// TestFannedRoundsMatchOneWorker holds the lent workers to the contract of
// the group queue: a SharedDisk build whose one group's rounds run on every
// worker gives the image, the Stats (modeled times included) and the
// per-worker demands of the same build with the group on its one worker, at
// every worker count, and the image is the one-worker build's. The per-core
// share is fixed, so every worker count plans the same R and the same group.
func TestFannedRoundsMatchOneWorker(t *testing.T) {
	const perCore = 8 << 20
	for _, c := range oneGroupCorpora() {
		t.Run(c.name, func(t *testing.T) {
			var image *suffixtree.Flat
			for _, workers := range []int{1, 2, 3, 8} {
				opts := ParallelOptions{Options: Options{MemoryBudget: perCore * int64(workers), AssembleFlat: true}, Workers: workers}
				fanned, err := BuildParallel(publish(t, c.a, c.data), opts)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if len(fanned.Groups) != 1 {
					t.Fatalf("test setup: workers=%d: %d groups, want one", workers, len(fanned.Groups))
				}
				f := publish(t, c.a, c.data)
				p, err := sharedDisk(f, opts)
				if err != nil {
					t.Fatal(err)
				}
				p.lend = false
				alone, err := p.run(f, opts.Options)
				if err != nil {
					t.Fatalf("workers=%d, not lent: %v", workers, err)
				}

				if image == nil {
					image = alone.Flat
				}
				if !reflect.DeepEqual(fanned.Flat, image) || !reflect.DeepEqual(alone.Flat, image) {
					t.Errorf("workers=%d: image differs from the one-worker build's", workers)
				}
				if fanned.Stats != alone.Stats {
					t.Errorf("workers=%d: Stats of the lent rounds\n %+v\nof the group on one worker\n %+v", workers, fanned.Stats, alone.Stats)
				}
				if !reflect.DeepEqual(fanned.Workers, alone.Workers) {
					t.Errorf("workers=%d: worker demands of the lent rounds %+v, of the group on one worker %+v", workers, fanned.Workers, alone.Workers)
				}
			}
		})
	}
}

// TestLendIdle pins who is lent to whom: ⌊w/g⌋−1 idle workers per group,
// none when a group queue keeps more than half the workers busy.
func TestLendIdle(t *testing.T) {
	for _, c := range []struct{ workers, groups, owners, crew int }{
		{1, 1, 1, 0}, {2, 1, 1, 1}, {3, 1, 1, 2}, {8, 1, 1, 7},
		{3, 2, 3, 0}, {4, 2, 2, 1}, {8, 3, 3, 1}, {8, 8, 8, 0}, {2, 5, 2, 0}, {4, 0, 4, 0},
	} {
		ctxs := make([]*buildContext, c.workers)
		for i := range ctxs {
			ctxs[i] = new(buildContext)
		}
		owners := lendIdle(ctxs, c.groups)
		lent := map[*buildContext]bool{}
		for _, o := range owners {
			if len(o.crew) != c.crew {
				t.Errorf("%d workers, %d groups: a crew of %d, want %d", c.workers, c.groups, len(o.crew), c.crew)
			}
			for _, h := range o.crew {
				if lent[h] || slices.Contains(owners, h) {
					t.Errorf("%d workers, %d groups: a context is lent twice or also pulls groups", c.workers, c.groups)
				}
				lent[h] = true
			}
		}
		if len(owners) != c.owners {
			t.Errorf("%d workers, %d groups: %d contexts pull groups, want %d", c.workers, c.groups, len(owners), c.owners)
		}
	}
}

// TestAreasAscendInP backs sortArea's tie order with the round loop's own
// state: before every area sort of real GroupPrepare runs — every group, at
// static ranges 1, 3 and 8 and at the elastic range — P ascends across the
// area, so breaking ties by P is the stable order.
func TestAreasAscendInP(t *testing.T) {
	model := sim.DefaultModel()
	corpora := map[string][]byte{
		"dna":     workload.MustGenerate(workload.DNA, 8<<10, 6),
		"english": workload.MustGenerate(workload.English, 8<<10, 7),
		"gattaca": gattaca(1 << 10),
		"dup":     dup(512),
	}
	for name, data := range corpora {
		a := alphabet.DNA
		if name == "english" {
			a = alphabet.English
		}
		f := publish(t, a, data)
		sc, clock := matcherScanner(t, f)
		groups, _, err := VerticalPartition(f, sc, clock, model, int64(len(data)), true)
		if err != nil {
			t.Fatal(err)
		}
		for _, static := range []int{1, 3, 8, 0} {
			sorts, largest := 0, 0
			ctx := new(buildContext)
			ctx.sortScratch.inspect = func(p []int32) {
				sorts++
				largest = max(largest, len(p))
				if !slices.IsSorted(p) {
					t.Fatalf("%s, static range %d: an area of %d leaves is not in P order", name, static, len(p))
				}
			}
			for _, g := range groups {
				scR, clockR := matcherScanner(t, f)
				if _, _, err := GroupPrepare(ctx, f, scR, clockR, model, g, 4<<10, static); err != nil {
					t.Fatal(err)
				}
			}
			if sorts == 0 {
				t.Fatalf("%s, static range %d: no area was sorted", name, static)
			}
			t.Logf("%s, static range %d: %d area sorts, the largest of %d leaves", name, static, sorts, largest)
		}
	}
}

// TestSortScratchIsFixed pins the area sort's memory: a prepare whose one
// sub-tree is one area of ≈ 64 Ki leaves leaves the scratch at bucketCap
// records, where the scratch it replaced grew to 20 B per leaf of the
// largest area.
func TestSortScratchIsFixed(t *testing.T) {
	data := workload.MustGenerate(workload.DNA, 256<<10, 42)
	f := publish(t, alphabet.DNA, data)
	freq := int64(bytes.Count(data, []byte("A")))
	g := Group{Prefixes: []Prefix{{Label: []byte("A"), Freq: freq}}, Freq: freq}
	ctx := new(buildContext)
	sc, clock := matcherScanner(t, f)
	if _, _, err := GroupPrepare(ctx, f, sc, clock, sim.DefaultModel(), g, 1<<20, 0); err != nil {
		t.Fatal(err)
	}
	scr := &ctx.sortScratch
	if got := fmt.Sprint(cap(scr.recs), cap(scr.perm)); got != fmt.Sprint(bucketCap, bucketCap) {
		t.Errorf("after sorting an area of %d leaves the scratch holds %s records and permutation slots, want %d of each", freq, got, bucketCap)
	}
}
