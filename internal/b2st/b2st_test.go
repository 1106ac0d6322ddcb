package b2st

import (
	"bytes"
	"testing"

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
			data := workload.MustGenerate(k, 2500, 7)
			f := publish(t, a, data)
			res, err := BuildSerial(f, Options{MemoryBudget: 8 * 1024, Assemble: true})
			if err != nil {
				t.Fatal(err)
			}
			if err := res.Tree.Validate(true); err != nil {
				t.Fatal(err)
			}
			if !matchesSuffixArray(t, res.Tree, data) {
				t.Error("the tree differs from the suffix array's")
			}
			if res.Stats.Partitions < 2 {
				t.Errorf("expected multiple partitions under a tight budget, got %d", res.Stats.Partitions)
			}
			if res.Stats.TempBytes <= int64(len(data)) {
				t.Errorf("temporary results (%d bytes) should exceed the input (%d)", res.Stats.TempBytes, len(data))
			}
		})
	}
}

func TestTempBlowupGrowsWithPartitions(t *testing.T) {
	data := workload.MustGenerate(workload.DNA, 4000, 3)
	small, err := BuildSerial(publish(t, alphabet.DNA, data), Options{MemoryBudget: 4 * 1024})
	if err != nil {
		t.Fatal(err)
	}
	large, err := BuildSerial(publish(t, alphabet.DNA, data), Options{MemoryBudget: 40 * 1024})
	if err != nil {
		t.Fatal(err)
	}
	if small.Stats.Partitions <= large.Stats.Partitions {
		t.Fatalf("partitions: small-mem %d should exceed large-mem %d", small.Stats.Partitions, large.Stats.Partitions)
	}
	if small.Stats.TempBytes <= large.Stats.TempBytes {
		t.Errorf("temp bytes: small-mem %d should exceed large-mem %d (c = 2n/M)", small.Stats.TempBytes, large.Stats.TempBytes)
	}
	if small.Stats.VirtualTime <= large.Stats.VirtualTime {
		t.Errorf("modeled time: small-mem %v should exceed large-mem %v", small.Stats.VirtualTime, large.Stats.VirtualTime)
	}
}

func TestMaxMemoryLimit(t *testing.T) {
	data := workload.MustGenerate(workload.DNA, 500, 3)
	_, err := BuildSerial(publish(t, alphabet.DNA, data), Options{MemoryBudget: 64 * 1024, MaxMemory: 32 * 1024})
	if err == nil {
		t.Fatal("expected the reference implementation's memory limit to reject the budget")
	}
}
