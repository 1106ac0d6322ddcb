package trellis

import (
	"bytes"
	"errors"
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
			data := workload.MustGenerate(k, 2000, 9)
			f := publish(t, a, data)
			res, err := BuildSerial(f, Options{MemoryBudget: 16 * 1024, Assemble: true})
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
				t.Errorf("expected multiple partitions, got %d", res.Stats.Partitions)
			}
		})
	}
}

func TestRejectsStringLargerThanMemory(t *testing.T) {
	data := workload.MustGenerate(workload.DNA, 8000, 2)
	f := publish(t, alphabet.DNA, data)
	// 8000 DNA symbols pack to 2000 bytes; a 1 KB budget cannot hold them.
	_, err := BuildSerial(f, Options{MemoryBudget: 1024})
	if !errors.Is(err, ErrStringTooLarge) {
		t.Fatalf("expected ErrStringTooLarge, got %v", err)
	}
}

func TestMergeFaultsGrowWhenMemoryShrinks(t *testing.T) {
	data := workload.MustGenerate(workload.DNA, 6000, 4)
	tight, err := BuildSerial(publish(t, alphabet.DNA, data), Options{MemoryBudget: 8 * 1024})
	if err != nil {
		t.Fatal(err)
	}
	roomy, err := BuildSerial(publish(t, alphabet.DNA, data), Options{MemoryBudget: 512 * 1024})
	if err != nil {
		t.Fatal(err)
	}
	if tight.Stats.MergeFaults <= roomy.Stats.MergeFaults {
		t.Errorf("merge faults: tight %d should exceed roomy %d", tight.Stats.MergeFaults, roomy.Stats.MergeFaults)
	}
	if tight.Stats.VirtualTime <= roomy.Stats.VirtualTime {
		t.Errorf("modeled time: tight %v should exceed roomy %v", tight.Stats.VirtualTime, roomy.Stats.VirtualTime)
	}
}
