package wavefront

import (
	"bytes"
	"testing"
	"testing/quick"

	"era/internal/alphabet"
	"era/internal/diskio"
	"era/internal/seq"
	"era/internal/sim"
	"era/internal/suffixarray"
	"era/internal/suffixtree"
	"era/internal/workload"
)

func publish(t testing.TB, a *alphabet.Alphabet, data []byte) *seq.File {
	t.Helper()
	disk := diskio.NewDisk(sim.DefaultModel())
	f, err := seq.Publish(disk, "input.seq", a, data)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// matchesSuffixArray reports whether tr, flattened, is byte for byte the
// image assembled from data's suffix array and LCP array, which share no
// code with the builder under test: leaf order, branching depths and edges.
func matchesSuffixArray(t testing.TB, tr *suffixtree.Tree, data []byte) bool {
	t.Helper()
	got, err := suffixtree.Flatten(tr, data)
	if err != nil {
		t.Fatal(err)
	}
	sa, err := suffixarray.Build(data)
	if err != nil {
		t.Fatal(err)
	}
	shards, err := suffixtree.AssembleShards(data, sa, suffixarray.LCP(data, sa), 1, suffixtree.HeapSink{})
	if err != nil {
		t.Fatal(err)
	}
	want := shards[0].Flat
	return bytes.Equal(got.Nodes, want.Nodes) && bytes.Equal(got.Sym, want.Sym) && bytes.Equal(got.LeafData, want.LeafData)
}

func TestBuildSerialMatchesOracle(t *testing.T) {
	for _, k := range workload.Kinds {
		k := k
		t.Run(string(k), func(t *testing.T) {
			a, err := workload.AlphabetOf(k)
			if err != nil {
				t.Fatal(err)
			}
			data := workload.MustGenerate(k, 2500, 13)
			f := publish(t, a, data)
			res, err := BuildSerial(f, Options{MemoryBudget: 32 * 1024, Assemble: true})
			if err != nil {
				t.Fatal(err)
			}
			if err := res.Tree.Validate(true); err != nil {
				t.Fatal(err)
			}
			if !matchesSuffixArray(t, res.Tree, data) {
				t.Error("WaveFront tree differs from the suffix array's")
			}
		})
	}
}

func TestBuildSerialQuick(t *testing.T) {
	f := func(core []byte) bool {
		data := make([]byte, len(core)+1)
		for i, c := range core {
			data[i] = "ACGT"[c%4]
		}
		data[len(core)] = alphabet.Terminator
		file := publish(t, alphabet.DNA, data)
		res, err := BuildSerial(file, Options{MemoryBudget: 8 * 1024, Assemble: true})
		if err != nil {
			return false
		}
		if res.Tree.Validate(true) != nil {
			return false
		}
		return matchesSuffixArray(t, res.Tree, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestParallelAgreesWithSerialStats(t *testing.T) {
	data := workload.MustGenerate(workload.DNA, 3000, 31)
	f := publish(t, alphabet.DNA, data)
	serial, err := BuildSerial(f, Options{MemoryBudget: 64 * 1024})
	if err != nil {
		t.Fatal(err)
	}
	f2 := publish(t, alphabet.DNA, data)
	par, err := BuildParallel(f2, Options{MemoryBudget: 64 * 1024}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if par.Stats.SubTrees == 0 || serial.Stats.SubTrees == 0 {
		t.Fatal("no sub-trees built")
	}
	// With budget/4 per core the parallel run has more (smaller) sub-trees.
	if par.Stats.SubTrees < serial.Stats.SubTrees {
		t.Errorf("parallel built %d sub-trees, serial %d; per-core memory division should not reduce the count",
			par.Stats.SubTrees, serial.Stats.SubTrees)
	}
	if par.ModeledTime <= 0 {
		t.Error("modeled time not positive")
	}
}

func TestDistributedSpeedsUp(t *testing.T) {
	data := workload.MustGenerate(workload.DNA, 4000, 77)
	f1 := publish(t, alphabet.DNA, data)
	one, err := BuildDistributed(f1, Options{MemoryBudget: 16 * 1024}, 1)
	if err != nil {
		t.Fatal(err)
	}
	f4 := publish(t, alphabet.DNA, data)
	four, err := BuildDistributed(f4, Options{MemoryBudget: 16 * 1024}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if four.ConstructionTime >= one.ConstructionTime {
		t.Errorf("4 nodes (%v) not faster than 1 node (%v)", four.ConstructionTime, one.ConstructionTime)
	}
	if four.TransferTime == 0 {
		t.Error("multi-node run should pay the string broadcast")
	}
	if one.TransferTime != 0 {
		t.Error("single-node run should not pay the broadcast")
	}
}
