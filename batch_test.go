package era

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"era/internal/workload"
)

// randomOps draws a mixed pool of n present and absent patterns over data,
// then adds a run of ops on the prefixes of data's first 48 symbols — one
// locus where data repeats them (TestBatchMatchesSingleQueries plants
// copies) — and one pattern past Batch's stack-held trace.
func randomOps(data []byte, n int, seed int64) []Op {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]Op, n, n+9)
	for i := range ops {
		var p []byte
		switch i % 3 {
		case 0, 1: // substring of the corpus (possibly empty)
			l := rng.Intn(8)
			off := rng.Intn(len(data) - l)
			p = data[off : off+l]
		case 2: // random pattern, usually absent for longer lengths
			p = make([]byte, 1+rng.Intn(10))
			for j := range p {
				p[j] = "ACGT"[rng.Intn(4)]
			}
		}
		ops[i] = Op{Kind: OpKind(rng.Intn(3)), Pattern: p, MaxOccurrences: rng.Intn(4)}
	}
	// Nested prefixes with caps that grow and then shrink along the pattern
	// order, a duplicate, and — sorting between them — a Contains and a miss
	// ('#' sorts below every symbol of data).
	miss := append(slices.Clone(data[:25]), '#')
	return append(ops,
		Op{Kind: OpOccurrences, Pattern: data[:20], MaxOccurrences: 2},
		Op{Kind: OpOccurrences, Pattern: data[:40], MaxOccurrences: 1},
		Op{Kind: OpContains, Pattern: data[:25]},
		Op{Kind: OpOccurrences, Pattern: data[:30]},
		Op{Kind: OpCount, Pattern: miss},
		Op{Kind: OpOccurrences, Pattern: data[:40], MaxOccurrences: 3},
		Op{Kind: OpOccurrences, Pattern: data[:22], MaxOccurrences: 4},
		Op{Kind: OpOccurrences, Pattern: data[:20], MaxOccurrences: 2},
		Op{Kind: OpOccurrences, Pattern: data[:70], MaxOccurrences: 1},
	)
}

// batchLayouts serves the same string as built and as reopened from its
// mapped file, so the batch suite runs its prefix-resumed descent over both.
func batchLayouts(t *testing.T, data []byte, cfg *Config) map[string]Queryable {
	t.Helper()
	built, err := Build(data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := filepath.Join(t.TempDir(), "batch.idx")
	if err := built.WriteFile(p); err != nil {
		t.Fatal(err)
	}
	mapped, err := OpenIndex(p)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mapped.Close() })
	return map[string]Queryable{"built": built, "mapped": mapped}
}

// TestBatchMatchesSingleQueries holds Batch, op by op, to a scan of the
// string.
func TestBatchMatchesSingleQueries(t *testing.T) {
	data := workload.MustGenerate(workload.DNA, 4000, 3)
	data = data[:len(data)-1]
	for _, at := range []int{900, 1700, 2500, 3300} {
		copy(data[at:], data[:48]) // randomOps's nested prefixes share a locus
	}
	ops := randomOps(data, 300, 17)
	oracle := newScanOracle([][]byte{data})
	layouts := batchLayouts(t, data, &Config{MemoryBudget: 64 * 1024})
	ft := layouts["built"].(*Index).tree
	short, _ := ft.Find(data[:20])
	long, _ := ft.Find(data[:40])
	if short.Node != long.Node || ft.CountLeaves(short.Node) <= 4 {
		t.Fatalf("the nested prefixes land on nodes %d and %d, %d leaves", short.Node, long.Node, ft.CountLeaves(short.Node))
	}
	for name, idx := range layouts {
		oracle.assertAnswersLike(t, name, idx, nil, ops)
	}
}

// TestFirstOccurrencesIsTheSortedWindow holds the capped-occurrence kernel
// to sort-then-truncate of each node's window of the suffix array, at every
// node — the root and every leaf included — and at ids outside the tree.
func TestFirstOccurrencesIsTheSortedWindow(t *testing.T) {
	dna := workload.MustGenerate(workload.DNA, 2000, 5)
	for name, docs := range map[string][][]byte{
		"dna":        {dna[:len(dna)-1]},
		"high-bytes": highByteCorpus(),
		"periodic":   {bytes.Repeat([]byte("ACGTTGA"), 150), bytes.Repeat([]byte("AC"), 200)},
	} {
		x, err := BuildCorpus(docs, nil)
		if err != nil {
			t.Fatal(err)
		}
		ft := x.tree
		all := make([]int, x.Len())
		for i := range all {
			all[i] = i
		}
		if got := ft.FirstOccurrences(ft.Root(), 0); !slices.Equal(got, all) {
			t.Fatalf("%s: the root's occurrences are not every offset: %v", name, got)
		}
		for _, u := range []int32{-1, int32(ft.NumNodes()), math.MaxInt32} {
			if got := ft.FirstOccurrences(u, 1); got != nil {
				t.Fatalf("%s: invalid id %d answers %v", name, u, got)
			}
		}
		for u := int32(0); u < int32(ft.NumNodes()); u++ {
			var window []int
			for _, s := range ft.Leaves(u) {
				window = append(window, int(s))
			}
			slices.Sort(window)
			n := len(window)
			// A leaf's path label runs from its suffix to the end of the string.
			if suffix := x.Len() - len(ft.PathLabel(u)); ft.IsLeaf(u) && (n != 1 || window[0] != suffix) {
				t.Fatalf("%s: leaf %d's window is %v, its suffix %d", name, u, window, suffix)
			}
			for _, k := range []int{0, 1, 2, n - 1, n, n + 5} {
				want := window
				if k > 0 && k < n {
					want = window[:k]
				}
				if got := ft.FirstOccurrences(u, k); !slices.Equal(got, want) {
					t.Fatalf("%s: FirstOccurrences(%d, %d) = %v, want %v", name, u, k, got, want)
				}
			}
		}
	}
}

// TestBatchAllocatesItsAnswers pins what a batch allocates: its []Result
// and one list per distinct occurrence answer — no op order, descent trace,
// count memo or copy of a whole suffix-array window.
func TestBatchAllocatesItsAnswers(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's allocator changes allocation counts")
	}
	data := workload.MustGenerate(workload.DNA, 20000, 7)
	data = data[:len(data)-1]
	x, err := Build(data, nil)
	if err != nil {
		t.Fatal(err)
	}
	allocs := func(ops []Op) float64 {
		return testing.AllocsPerRun(50, func() { x.Batch(ops) })
	}
	member := make([]Op, 32)
	for i := range member {
		off := i * 601
		member[i] = Op{Kind: OpKind(i % 2), Pattern: data[off : off+4+i%9]}
	}
	if got := allocs(member); got != 1 {
		t.Errorf("a 32-op contains/count batch allocates %v objects, want 1", got)
	}
	// Distinct 2-mers are distinct loci of hundreds of leaves each; an op
	// repeating one of them shares its list.
	ops := member
	for i, p := range []string{"AC", "CG", "GT", "TA"} {
		ops = append(ops, Op{Kind: OpOccurrences, Pattern: []byte(p), MaxOccurrences: 8})
		if got, want := allocs(ops), float64(i+2); got != want {
			t.Errorf("%d distinct occurrence answers: %v allocations, want %v", i+1, got, want)
		}
	}
	ops = append(ops, Op{Kind: OpOccurrences, Pattern: []byte("GT"), MaxOccurrences: 8})
	if got := allocs(ops); got != 5 {
		t.Errorf("a repeated occurrence answer: %v allocations, want 5", got)
	}
	one := []Op{{Kind: OpOccurrences, Pattern: data[100:103], MaxOccurrences: 16}}
	if got := allocs(one); got != 2 {
		t.Errorf("a capped Occurrences op allocates %v objects, want 2", got)
	}
}

func TestBatchEdgeCases(t *testing.T) {
	for name, idx := range batchLayouts(t, []byte("TGGTGGTGGTGCGGTGATGGTGC"), nil) {
		if got := idx.Batch(nil); len(got) != 0 {
			t.Errorf("%s: Batch(nil) = %v", name, got)
		}
		res := idx.Batch([]Op{
			{Kind: OpCount, Pattern: nil},                                                   // empty pattern matches everywhere
			{Kind: OpCount, Pattern: []byte("TG")},                                          // paper Table 1
			{Kind: OpCount, Pattern: []byte("TG")},                                          // duplicate
			{Kind: OpContains, Pattern: []byte("TGT")},                                      // fTGT = 0
			{Kind: OpOccurrences, Pattern: []byte("TGGTGGTG")},                              // the LRS
			{Kind: OpContains, Pattern: bytes.Repeat([]byte("TGGTGGTGGTGCGGTGATGGTGC"), 2)}, // longer than S
			{Kind: OpCount, Pattern: []byte("$")},                                           // terminator probe
			{Kind: OpContains, Pattern: []byte{0xFF}},                                       // out-of-alphabet byte
			{Kind: OpContains, Pattern: []byte("TG\xffTG")},                                 // out-of-alphabet mid-pattern
		})
		if res[0].Count != idx.Len() { // every position incl. terminator starts a suffix
			t.Errorf("%s: Count(empty) = %d, want %d", name, res[0].Count, idx.Len())
		}
		if res[1].Count != 7 || res[2].Count != 7 {
			t.Errorf("%s: Count(TG) = %d/%d, want 7", name, res[1].Count, res[2].Count)
		}
		if res[3].Found {
			t.Errorf("%s: Contains(TGT) = true", name)
		}
		if len(res[4].Occurrences) != 2 {
			t.Errorf("%s: Occurrences(TGGTGGTG) = %v, want 2 offsets", name, res[4].Occurrences)
		}
		if res[5].Found {
			t.Errorf("%s: pattern longer than S reported found", name)
		}
		if res[6].Count != 1 {
			t.Errorf("%s: Count($) = %d, want 1", name, res[6].Count)
		}
		if res[7].Found || res[8].Found {
			t.Errorf("%s: out-of-alphabet pattern reported found (%v/%v)", name, res[7].Found, res[8].Found)
		}
	}
}

// TestConcurrentQueries pins the documented guarantee that one Index may be
// queried from many goroutines with no synchronization (run under -race in
// CI): 8 goroutines issue every query kind, including Batch, and check the
// answers against a serial pass.
func TestConcurrentQueries(t *testing.T) {
	data := workload.MustGenerate(workload.DNA, 3000, 9)
	data = data[:len(data)-1]
	idx, err := Build(data, &Config{MemoryBudget: 64 * 1024})
	if err != nil {
		t.Fatal(err)
	}
	ops := randomOps(data, 100, 23)
	want := idx.Batch(ops)
	wantLRS, _ := idx.LongestRepeatedSubstring()

	const goroutines = 8
	var wg sync.WaitGroup
	errc := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 20; round++ {
				got := idx.Batch(ops)
				for i := range want {
					if got[i].Found != want[i].Found || got[i].Count != want[i].Count {
						t.Errorf("goroutine %d: result %d = %+v, want %+v", g, i, got[i], want[i])
						return
					}
				}
				op := ops[(g*7+round)%len(ops)]
				if idx.Contains(op.Pattern) != want[(g*7+round)%len(ops)].Found {
					t.Errorf("goroutine %d: Contains(%q) diverged", g, op.Pattern)
					return
				}
				if lrs, _ := idx.LongestRepeatedSubstring(); !bytes.Equal(lrs, wantLRS) {
					t.Errorf("goroutine %d: LRS diverged", g)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

func TestPersistNamedRoundTrip(t *testing.T) {
	idx, err := Build([]byte("GATTACA"), nil)
	if err != nil {
		t.Fatal(err)
	}
	idx.SetName("tiny-genome")
	var buf bytes.Buffer
	if _, err := idx.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadIndex(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name() != "tiny-genome" {
		t.Errorf("Name = %q, want tiny-genome", got.Name())
	}
	if got.Alphabet().Name() != idx.Alphabet().Name() {
		t.Errorf("alphabet name %q not preserved (want %q)", got.Alphabet().Name(), idx.Alphabet().Name())
	}
}

// TestReadIndexCorruptHeader pins that hostile or truncated length fields
// fail cleanly instead of attempting giant allocations.
func TestReadIndexCorruptHeader(t *testing.T) {
	idx, err := Build([]byte("GATTACA"), nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := idx.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// The header's length and count fields (u64 each): image, meta, string,
	// documents, nodes, leaf index, leaf data, leaves. The header CRC is
	// restamped so the field itself is what the reader refuses.
	for _, off := range []int{16, 32, 48, 64, 80, 104, 120, 128} {
		c := append([]byte(nil), raw...)
		binary.LittleEndian.PutUint64(c[off:], 0xFFFFFFFFFFFF)
		if _, err := ReadIndex(bytes.NewReader(fixV4HeaderCRC(c))); err == nil {
			t.Errorf("corrupt length at offset %d accepted", off)
		}
	}
	if _, err := ReadIndex(bytes.NewReader(raw[:20])); err == nil {
		t.Error("truncated index accepted")
	}
}

func TestOpKindWireNames(t *testing.T) {
	for _, k := range []OpKind{OpContains, OpCount, OpOccurrences} {
		parsed, err := ParseOpKind(k.String())
		if err != nil || parsed != k {
			t.Errorf("ParseOpKind(%s) = %v, %v", k, parsed, err)
		}
	}
	if _, err := ParseOpKind("frobnicate"); err == nil {
		t.Error("unknown op kind accepted")
	}
}
