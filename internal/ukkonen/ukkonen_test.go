package ukkonen

import (
	"bytes"
	"slices"
	"testing"
	"testing/quick"

	"era/internal/alphabet"
	"era/internal/seq"
	"era/internal/suffixarray"
	"era/internal/suffixtree"
	"era/internal/workload"
)

func memString(t *testing.T, s string) *seq.Mem {
	t.Helper()
	m, err := seq.NewMem(alphabet.DNA, []byte(s))
	if err != nil {
		t.Fatalf("NewMem(%q): %v", s, err)
	}
	return m
}

func TestBuildNaiveValidates(t *testing.T) {
	for _, c := range []string{"$", "A$", "ACGT$", "AAAA$", "GATTACA$", "TGGTGGTGGTGCGGTGATGGTGC$"} {
		tr, err := BuildNaive(memString(t, c))
		if err != nil {
			t.Fatalf("BuildNaive(%q): %v", c, err)
		}
		if err := tr.Validate(true); err != nil {
			t.Errorf("BuildNaive(%q): %v", c, err)
		}
	}
}

func TestUkkonenValidates(t *testing.T) {
	for _, c := range []string{"$", "A$", "ACGT$", "AAAA$", "GATTACA$", "TGGTGGTGGTGCGGTGATGGTGC$"} {
		tr, err := Build(memString(t, c))
		if err != nil {
			t.Fatalf("Build(%q): %v", c, err)
		}
		if err := tr.Validate(true); err != nil {
			t.Errorf("Build(%q): %v", c, err)
		}
	}
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

func TestUkkonenMatchesNaive(t *testing.T) {
	for _, k := range workload.Kinds {
		a, err := workload.AlphabetOf(k)
		if err != nil {
			t.Fatal(err)
		}
		data := workload.MustGenerate(k, 1500, 99)
		m, err := seq.NewMem(a, data)
		if err != nil {
			t.Fatal(err)
		}
		tn, err := BuildNaive(m)
		if err != nil {
			t.Fatal(err)
		}
		tu, err := Build(m)
		if err != nil {
			t.Fatal(err)
		}
		if !matchesSuffixArray(t, tu, data) {
			t.Errorf("%s: Ukkonen tree differs from the suffix array's", k)
		}
		if !matchesSuffixArray(t, tn, data) {
			t.Errorf("%s: naive tree differs from the suffix array's", k)
		}
	}
}

func TestUkkonenQuick(t *testing.T) {
	f := func(core []byte) bool {
		data := make([]byte, len(core)+1)
		for i, c := range core {
			data[i] = "ACGT"[c%4]
		}
		data[len(core)] = alphabet.Terminator
		m, err := seq.NewMem(alphabet.DNA, data)
		if err != nil {
			return false
		}
		tu, err := Build(m)
		if err != nil {
			return false
		}
		if tu.Validate(true) != nil {
			return false
		}
		// The tree must be the suffix array's, leaf order and branching.
		return matchesSuffixArray(t, tu, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestQueries answers the paper's Table 1 questions from Ukkonen's tree,
// flattened into the layout that serves.
func TestQueries(t *testing.T) {
	data := []byte("TGGTGGTGGTGCGGTGATGGTGC$")
	tr, err := Build(memString(t, string(data)))
	if err != nil {
		t.Fatal(err)
	}
	f, err := suffixtree.Flatten(tr, data)
	if err != nil {
		t.Fatal(err)
	}
	ft, err := suffixtree.NewFlatTree(data, f.Nodes, f.Sym, nil, nil, f.LeafData, f.NLeaves)
	if err != nil {
		t.Fatal(err)
	}

	if got := ft.Count([]byte("TG")); got != 7 {
		t.Errorf("Count(TG) = %d, want 7 (paper Table 1)", got)
	}
	loc, _ := ft.Find([]byte("TG"))
	occ := ft.FirstOccurrences(loc.Node, 0)
	if want := []int{0, 3, 6, 9, 14, 17, 20}; !slices.Equal(occ, want) {
		t.Errorf("Occurrences(TG) = %v, want %v", occ, want)
	}
	if !ft.Contains([]byte("GGTGATG")) {
		t.Error("Contains(GGTGATG) = false, want true")
	}
	if ft.Contains([]byte("TGT")) {
		t.Error("Contains(TGT) = true, want false (paper: fTGT = 0)")
	}
	if got := ft.Count(nil); got != len(data) {
		t.Errorf("Count(empty) = %d, want %d", got, len(data))
	}

	lrs, occs := suffixtree.LongestRepeated(ft, nil)
	// TGGTGGTG occurs at 0 and 3 (paper: B[6] offset 8 under our order),
	// listed ascending.
	if !bytes.Equal(lrs, []byte("TGGTGGTG")) || !slices.Equal(occs, []int{0, 3}) {
		t.Errorf("LongestRepeated = %q at %v, want TGGTGGTG at [0 3]", lrs, occs)
	}
}

func BenchmarkUkkonen(b *testing.B) {
	data := workload.MustGenerate(workload.DNA, 100_000, 7)
	m, err := seq.NewMem(alphabet.DNA, data)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(m); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNaive(b *testing.B) {
	data := workload.MustGenerate(workload.DNA, 100_000, 7)
	m, err := seq.NewMem(alphabet.DNA, data)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BuildNaive(m); err != nil {
			b.Fatal(err)
		}
	}
}
