package suffixtree_test

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"era/internal/alphabet"
	"era/internal/core"
	"era/internal/diskio"
	"era/internal/seq"
	"era/internal/sim"
	"era/internal/suffixarray"
	"era/internal/suffixtree"
)

// rankImages returns the tree of the terminated string term as each builder
// images it: the suffix-array builder's suffix and LCP arrays through AssembleShards,
// and ERA's sorted sub-trees under a budget small enough to split the string
// into several groups (nil for the bare terminator, which ERA does not build).
func rankImages(t testing.TB, a *alphabet.Alphabet, term []byte) map[string]*suffixtree.FlatTree {
	t.Helper()
	view := func(fl *suffixtree.Flat) *suffixtree.FlatTree {
		ft, err := suffixtree.NewFlatTree(term, fl.Nodes, fl.Sym, nil, nil, fl.LeafData, fl.NLeaves)
		if err != nil {
			t.Fatal(err)
		}
		return ft
	}
	sa, err := suffixarray.Build(term)
	if err != nil {
		t.Fatal(err)
	}
	shards, err := suffixtree.AssembleShards(term, sa, suffixarray.LCP(term, sa), 1, suffixtree.HeapSink{})
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]*suffixtree.FlatTree{"suffix array": view(shards[0].Flat)}
	if len(term) > 1 {
		f, err := seq.Publish(diskio.NewDisk(sim.DefaultModel()), "input.seq", a, term)
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.BuildSerial(f, core.Options{MemoryBudget: 16 << 10, AssembleFlat: true})
		if err != nil {
			t.Fatal(err)
		}
		if len(term) > 1000 && res.Stats.SubTrees < 2 {
			t.Fatalf("ERA built %d symbols as %d sub-tree", len(term), res.Stats.SubTrees)
		}
		out["ERA"] = view(res.Flat)
	}
	return out
}

// rankStream drains a cursor over ft.
func rankStream(ft *suffixtree.FlatTree) (suffixes, lcps []int32) {
	c := suffixtree.NewRankCursor(ft)
	for s, l, ok := c.Next(); ok; s, l, ok = c.Next() {
		suffixes, lcps = append(suffixes, s), append(lcps, l)
	}
	return suffixes, lcps
}

// TestRankCursorIsTheSuffixArray: a rank cursor over either builder's image
// returns the suffix array of the tree's string, and with every suffix the LCP
// the suffix array's LCP pass finds (0 for the first) — on DNA, periodic text,
// a corpus of one short document and the empty corpus, whose tree is the
// terminator alone.
func TestRankCursorIsTheSuffixArray(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	dna := make([]byte, 6000)
	for i := range dna {
		dna[i] = "ACGT"[rng.Intn(4)]
	}
	for name, data := range map[string][]byte{
		"dna":          dna,
		"period-7":     bytes.Repeat([]byte("ACGTTGA"), 500),
		"one document": []byte("GATTACA"),
		"empty":        nil,
	} {
		term := append(slices.Clip(data), alphabet.Terminator)
		wantSA, err := suffixarray.Build(term)
		if err != nil {
			t.Fatal(err)
		}
		wantLCP := suffixarray.LCP(term, wantSA)
		wantLCP[0] = 0
		images := rankImages(t, alphabet.DNA, term)
		if len(data) > 0 && images["ERA"] == nil {
			t.Fatalf("%s: no ERA image", name)
		}
		for builder, ft := range images {
			sa, lcp := rankStream(ft)
			if !slices.Equal(sa, wantSA) || !slices.Equal(lcp, wantLCP) {
				t.Errorf("%s, %s image: the cursor streams %d suffixes that differ from the suffix array's %d (or their LCPs do)", name, builder, len(sa), len(wantSA))
			}
		}
	}
}

// TestRankCursorAllocationsDoNotScale: draining a cursor allocates its frame
// stack and nothing per leaf or per node, so a 64 Ki-symbol tree costs what a
// 2 Ki one does, give or take a few regrowths of the stack.
func TestRankCursorAllocationsDoNotScale(t *testing.T) {
	var allocs [2]float64
	rng := rand.New(rand.NewSource(37))
	for i, n := range []int{2 << 10, 64 << 10} {
		term := make([]byte, n+1)
		for j := range term[:n] {
			term[j] = "ACGT"[rng.Intn(4)]
		}
		term[n] = alphabet.Terminator
		ft := rankImages(t, alphabet.DNA, term)["suffix array"]
		allocs[i] = testing.AllocsPerRun(3, func() {
			c := suffixtree.NewRankCursor(ft)
			for _, _, ok := c.Next(); ok; _, _, ok = c.Next() {
			}
		})
	}
	if small, large := allocs[0], allocs[1]; large > small+16 {
		t.Errorf("rank cursor: %.0f allocations over a 2 Ki-symbol tree, %.0f over a 64 Ki one", small, large)
	}
}
