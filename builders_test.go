package era

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"testing"
	"unsafe"

	"era/internal/alphabet"
	"era/internal/suffixtree"
	"era/internal/workload"
)

// eraBudget is tight enough that ERA cuts even these small corpora into many
// sub-trees, and — being a budget — it is also what sends a serial build of
// more than eraBudget/inMemoryBytesPerSymbol symbols to ERA.
const eraBudget = 4 * 1024

// forceERA returns the Config that builds an n-symbol terminated string with
// ERA at eraBudget: serially where the budget alone says so, and through the
// one-worker shared-disk driver where the string would fit it as a suffix
// array.
func forceERA(n int) *Config {
	cfg := &Config{MemoryBudget: eraBudget}
	if inMemoryBytesPerSymbol*int64(n) <= eraBudget {
		cfg.Mode, cfg.Workers = SharedDisk, 1
	}
	return cfg
}

// assertBuildersAgree builds docs in memory and with every ERA driver and
// holds the ERA builds to the suffix-array build's sections and serialized
// image, byte for byte — the whole tree, and the shard images of the corpus
// cut into K ∈ {2, 3, 5, 8} prefix ranges. The two builders share no code
// below suffixtree.AssembleShards, so each is the other's oracle.
func assertBuildersAgree(t *testing.T, docs [][]byte, alpha *alphabet.Alphabet) {
	t.Helper()
	image := func(idx *Index) []byte {
		idx.SetName("agree")
		var buf bytes.Buffer
		if _, err := idx.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	mem, err := BuildCorpus(docs, &Config{Alphabet: alpha})
	if err != nil {
		t.Fatalf("in-memory build: %v", err)
	}
	if st := mem.Stats(); !st.InMemory || st.SubTrees != 1 || st.Scans != 0 || st.Groups != 0 || st.ModeledTime != 0 {
		t.Fatalf("in-memory build of %d symbols reports %+v", mem.Len(), st)
	}
	want, wantImage := mem.tree.Sections(), image(mem)

	type driver struct {
		label string
		cfg   Config
	}
	shardImages := func(label string, cfg *Config) map[int][][]byte {
		out := map[int][][]byte{}
		for _, k := range []int{2, 3, 5, 8} {
			sx, err := BuildShardedCorpus(docs, &ShardConfig{Shards: k, Build: cfg})
			if err != nil {
				t.Fatalf("%s, %d shards: %v", label, k, err)
			}
			for i := 0; i < sx.NumShards(); i++ {
				sh, _ := sx.Shard(i)
				out[k] = append(out[k], image(sh))
			}
		}
		return out
	}
	wantShards := shardImages("in-memory", &Config{Alphabet: alpha})
	drivers := []driver{
		{"shared-disk-1", Config{Mode: SharedDisk, Workers: 1}},
		{"shared-disk-2", Config{Mode: SharedDisk, Workers: 2}},
		{"shared-disk-4", Config{Mode: SharedDisk, Workers: 4}},
		{"shared-nothing-2", Config{Mode: SharedNothing, Workers: 2}},
	}
	if forceERA(mem.Len()).Mode == Serial {
		drivers = append(drivers, driver{"serial", Config{}})
	}
	for _, d := range drivers {
		// The parallel drivers split the budget between their workers.
		d.cfg.MemoryBudget, d.cfg.Alphabet = eraBudget*int64(max(d.cfg.Workers, 1)), alpha
		idx, err := BuildCorpus(docs, &d.cfg)
		if err != nil {
			t.Fatalf("%s: %v", d.label, err)
		}
		if st := idx.Stats(); st.InMemory || st.Scans == 0 || st.TreeNodes != mem.Stats().TreeNodes {
			t.Fatalf("%s: not an ERA build of the same tree: %+v", d.label, st)
		}
		assertSectionsEqual(t, d.label, idx.tree.Sections(), &want)
		if !bytes.Equal(image(idx), wantImage) {
			t.Fatalf("%s: serialized image differs from the in-memory build's", d.label)
		}
		for k, imgs := range shardImages(d.label, &d.cfg) {
			if len(imgs) != len(wantShards[k]) {
				t.Fatalf("%s: %d shards asked for, %d built, %d in memory", d.label, k, len(imgs), len(wantShards[k]))
			}
			for i, img := range imgs {
				if !bytes.Equal(img, wantShards[k][i]) {
					t.Fatalf("%s: shard %d of %d: image differs from the in-memory build's", d.label, i, k)
				}
			}
		}
	}
}

// TestBuildersAgree is the differential between the two builders over the
// inputs that have broken one or the other before: every alphabet class,
// periodic text, empty documents, the smallest corpus there is, and documents
// that end in the alphabet's smallest symbol (the one the terminator ranks
// just below).
func TestBuildersAgree(t *testing.T) {
	gen := func(kind workload.Kind, n, docs int) [][]byte {
		data := workload.MustGenerate(kind, n, 29)
		out, err := workload.SliceDocs(data[:n], docs)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	custom, err := alphabet.New("punct", []byte("%&*+z"))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name  string
		alpha *alphabet.Alphabet
		docs  [][]byte
	}{
		{"dna", nil, gen(workload.DNA, 3000, 7)},
		{"protein", nil, gen(workload.Protein, 3000, 5)},
		{"english", nil, gen(workload.English, 3000, 3)},
		{"custom-detected", nil, [][]byte{[]byte("%&%&*z+%%&"), []byte("z*+%"), []byte("%")}},
		{"custom-fixed", custom, [][]byte{bytes.Repeat([]byte("+%z&*%"), 80), []byte("%%")}},
		{"period-1", nil, [][]byte{bytes.Repeat([]byte("A"), 500), []byte("AAA")}},
		{"period-2", nil, [][]byte{bytes.Repeat([]byte("AC"), 300), bytes.Repeat([]byte("CA"), 40)}},
		{"period-7", nil, [][]byte{bytes.Repeat([]byte("ACGTTGA"), 100), []byte("ACGTTGAACG")}},
		{"empty-docs", nil, shardEmptyDocsCorpus()},
		{"one-byte", nil, [][]byte{[]byte("A")}},
		{"one-doc", nil, gen(workload.DNA, 2000, 1)},
		{"ends-in-smallest", nil, [][]byte{[]byte("CGTA"), []byte("TTAA"), []byte("A"), bytes.Repeat([]byte("GA"), 200)}},
	} {
		t.Run(c.name, func(t *testing.T) { assertBuildersAgree(t, c.docs, c.alpha) })
	}
}

// FuzzBuildersAgree cuts fuzzer-chosen text over a fuzzer-chosen alphabet
// into documents (empty ones included) and holds every ERA driver to the
// in-memory build's bytes.
func FuzzBuildersAgree(f *testing.F) {
	f.Add([]byte("TGGTGGTGGTGCGGTGATGGTGC"), byte(0), uint16(0))
	f.Add([]byte("GATTACAGATTACA"), byte(0), uint16(0b1000001))
	f.Add([]byte("mississippi"), byte(2), uint16(0b11))
	f.Add([]byte{0, 1, 0, 1, 1, 0, 0, 0}, byte(3), uint16(0b10101))
	f.Add(bytes.Repeat([]byte{0}, 400), byte(0), uint16(1<<9))
	f.Add(bytes.Repeat([]byte{0, 1, 2, 3, 3, 2, 0}, 60), byte(1), uint16(0))
	f.Fuzz(func(t *testing.T, core []byte, alphaSel byte, cuts uint16) {
		if len(core) == 0 || len(core) > 2048 {
			t.Skip()
		}
		syms := fuzzAlphabets[int(alphaSel)%len(fuzzAlphabets)]
		data := make([]byte, len(core))
		for i, b := range core {
			data[i] = syms[int(b)%len(syms)]
		}
		// Bit i%16 of cuts ends a document before position i, and an empty
		// one follows it where i is even.
		var docs [][]byte
		start := 0
		for i := range data {
			if cuts>>(i%16)&1 != 0 {
				docs = append(docs, data[start:i])
				if i%2 == 0 {
					docs = append(docs, nil)
				}
				start = i
			}
		}
		docs = append(docs, data[start:])
		assertBuildersAgree(t, docs, nil)
	})
}

// TestLeafSectionIsTheSuffixArray holds the image's leaf section to an oracle
// that shares nothing with either builder — the suffix array by sort.Slice
// and bytes.Compare over the terminated corpus — on DNA, English, periodic
// text, one document and a corpus with empty documents, for the in-memory
// build, ERA serially at a tight budget, shared-disk on 1, 2 and 4 workers
// and shared-nothing on 2, and the range shards of K ∈ {1, 2, 3, 5}: the
// leaf sections, in shard order, are that array, and every probe's
// occurrences, in suffix order, are its interval of it.
func TestLeafSectionIsTheSuffixArray(t *testing.T) {
	gen := func(kind workload.Kind, n, docs int) [][]byte {
		data := workload.MustGenerate(kind, n, 31)
		out, err := workload.SliceDocs(data[:n], docs)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	var withEmpty [][]byte
	for i, d := range gen(workload.DNA, 900, 30) {
		withEmpty = append(withEmpty, nil, d)
		if i%3 == 0 {
			withEmpty = append(withEmpty, nil)
		}
	}
	for name, docs := range map[string][][]byte{
		"dna":          gen(workload.DNA, 3000, 7),
		"english":      gen(workload.English, 3000, 3),
		"period-7":     {bytes.Repeat([]byte("ACGTTGA"), 100), []byte("ACGTTGAACG")},
		"one document": gen(workload.DNA, 2000, 1),
		"empty docs":   withEmpty,
	} {
		t.Run(name, func(t *testing.T) {
			text := append(bytes.Join(docs, nil), alphabet.Terminator)
			sa := make([]int32, len(text))
			for i := range sa {
				sa[i] = int32(i)
			}
			sort.Slice(sa, func(a, b int) bool { return bytes.Compare(text[sa[a]:], text[sa[b]:]) < 0 })
			var probes [][]byte
			for i := 0; i < len(text); i += 1 + len(text)/97 {
				for _, l := range []int{1, 2, 3, 5, 8, 13, 40} {
					probes = append(probes, text[i:min(i+l, len(text))])
				}
			}
			probes = append(probes, nil, []byte("zz"), []byte("ACGTTGAACGT"))
			interval := func(p []byte) []int32 {
				lo := sort.Search(len(sa), func(r int) bool { return bytes.Compare(text[sa[r]:], p) >= 0 })
				n := sort.Search(len(sa)-lo, func(k int) bool { return !bytes.HasPrefix(text[sa[lo+k]:], p) })
				return sa[lo : lo+n]
			}
			check := func(label string, trees []*Index) {
				t.Helper()
				var leaves []int32
				for _, x := range trees {
					f := x.tree.Sections()
					for sec := f.LeafData; len(sec) > 0; sec = sec[4:] {
						leaves = append(leaves, int32(binary.LittleEndian.Uint32(sec)))
					}
				}
				if !slices.Equal(leaves, sa) {
					t.Fatalf("%s: the leaf sections are not the suffix array", label)
				}
				for _, p := range probes {
					var occ []int32
					for _, x := range trees {
						occ = append(occ, x.tree.Occurrences(p)...)
					}
					if want := interval(p); !slices.Equal(occ, want) && len(occ)+len(want) > 0 {
						t.Fatalf("%s: Occurrences(%q) = %v, the suffix array's interval %v", label, p, occ, want)
					}
				}
			}
			for _, c := range []struct {
				label string
				cfg   *Config
			}{
				{"in-memory", &Config{}},
				{"serial", &Config{MemoryBudget: eraBudget}},
				{"shared-disk-1", &Config{Mode: SharedDisk, Workers: 1, MemoryBudget: eraBudget}},
				{"shared-disk-2", &Config{Mode: SharedDisk, Workers: 2, MemoryBudget: 2 * eraBudget}},
				{"shared-disk-4", &Config{Mode: SharedDisk, Workers: 4, MemoryBudget: 4 * eraBudget}},
				{"shared-nothing-2", &Config{Mode: SharedNothing, Workers: 2, MemoryBudget: 2 * eraBudget}},
			} {
				idx, err := BuildCorpus(docs, c.cfg)
				if err != nil {
					t.Fatalf("%s: %v", c.label, err)
				}
				if st := idx.Stats(); st.InMemory != (c.label == "in-memory") {
					t.Fatalf("%s: %d symbols built in memory: %v", c.label, idx.Len(), st.InMemory)
				}
				check(c.label, []*Index{idx})
			}
			for _, k := range []int{1, 2, 3, 5} {
				sx, err := BuildShardedCorpus(docs, &ShardConfig{Shards: k})
				if err != nil {
					t.Fatal(err)
				}
				check(fmt.Sprintf("%d shards", k), sx.shards)
			}
		})
	}
}

// TestShardsShareOneSuffixArray pins the hand-over: every builder — in
// memory, ERA serially, on the shared-disk workers and on the shared-nothing
// nodes — writes the suffix array once, and the leaf sections of the trees it
// cuts are that array's consecutive windows, not copies: each starts where the
// one before it ends, and all of them lie inside the first one's capacity,
// which no slice stretches past its own allocation.
func TestShardsShareOneSuffixArray(t *testing.T) {
	if !hostLittleEndian {
		t.Skip("a big-endian host encodes the suffix array into its leaf sections")
	}
	data := workload.MustGenerate(workload.DNA, 3000, 37)
	docs, err := workload.SliceDocs(data[:3000], 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		label string
		cfg   *Config
	}{
		{"in-memory", nil},
		{"serial", &Config{MemoryBudget: eraBudget}},
		{"shared-disk-2", &Config{Mode: SharedDisk, Workers: 2, MemoryBudget: 2 * eraBudget}},
		{"shared-nothing-2", &Config{Mode: SharedNothing, Workers: 2, MemoryBudget: 2 * eraBudget}},
	} {
		for _, k := range []int{1, 3} {
			sx, err := BuildShardedCorpus(docs, &ShardConfig{Shards: k, Build: c.cfg})
			if err != nil {
				t.Fatalf("%s, %d shards: %v", c.label, k, err)
			}
			if st := sx.shards[0].Stats(); st.InMemory != (c.cfg == nil) {
				t.Fatalf("%s: built in memory = %v", c.label, st.InMemory)
			}
			addr := func(b []byte) uintptr { return uintptr(unsafe.Pointer(unsafe.SliceData(b))) }
			first := sx.shards[0].tree.Sections().LeafData
			next, end := addr(first), addr(first)+uintptr(cap(first))
			for i, sh := range sx.shards {
				leaves := sh.tree.Sections().LeafData
				if addr(leaves) != next || next+uintptr(len(leaves)) > end {
					t.Fatalf("%s, %d shards: shard %d's leaf section is not the next window of shard 0's suffix array", c.label, k, i)
				}
				next += uintptr(len(leaves))
			}
			if got := next - addr(first); got != uintptr(4*len(data)) {
				t.Fatalf("%s, %d shards: the leaf sections span %d bytes, want %d", c.label, k, got, 4*len(data))
			}
		}
	}
}

// TestInMemoryBuildHoldsOneSuffixArray pins what the hand-over saves: the
// in-memory builder of 1 Mi DNA symbols allocates what its suffix order does
// (the suffix array and the LCP array, and SA-IS's and Kasai's scratch), plus
// the node and symbol sections its internal node count sizes, plus 1 % — less
// than the 4 B/symbol a copy of the suffix array into the image would take.
func TestInMemoryBuildHoldsOneSuffixArray(t *testing.T) {
	const n = 1 << 20
	text := workload.MustGenerate(workload.DNA, n, 5)
	order := allocatedBy(func() {
		if _, _, err := suffixOrder(text); err != nil {
			t.Error(err)
		}
	})
	var shards []suffixtree.Shard
	got := allocatedBy(func() {
		var err error
		if shards, err = buildInMemory(alphabet.DNA, text, 1, heapSink{}); err != nil {
			t.Error(err)
		}
	})
	if len(shards) != 1 {
		t.Fatalf("%d trees built, want 1", len(shards))
	}
	nInt := int64(shards[0].NNodes - shards[0].NLeaves)
	sections := uint64(suffixtree.FlatNodesLen(nInt) + suffixtree.FlatSymLen(nInt))
	if limit := (order + sections) * 101 / 100; got > limit {
		t.Errorf("an in-memory build of %d symbols allocated %d bytes, want ≤ %d: its suffix order's %d, %d of node and symbol sections and 1 %%",
			len(text), got, limit, order, sections)
	}
	t.Logf("%.2f B/symbol allocated: %.2f the suffix order, %.2f the node and symbol sections",
		float64(got)/float64(len(text)), float64(order)/float64(len(text)), float64(sections)/float64(len(text)))
}

// TestBudgetPicksTheBuilder pins the regime rule at its boundary, in both
// directions: a serial build whose suffix-array working set is exactly the
// budget runs in memory, one byte less of budget runs ERA, and a parallel
// mode runs ERA however much budget there is.
func TestBudgetPicksTheBuilder(t *testing.T) {
	data := workload.MustGenerate(workload.DNA, 2000, 13)
	n := int64(len(data)) // terminated length: Build appends what the slice below drops
	data = data[:len(data)-1]
	for _, c := range []struct {
		name     string
		cfg      Config
		inMemory bool
	}{
		{"exact fit", Config{MemoryBudget: inMemoryBytesPerSymbol * n}, true},
		{"one byte short", Config{MemoryBudget: inMemoryBytesPerSymbol*n - 1}, false},
		{"default budget", Config{}, true},
		{"shared-disk at the default budget", Config{Mode: SharedDisk}, false},
		{"shared-nothing at the default budget", Config{Mode: SharedNothing, Workers: 2}, false},
	} {
		idx, err := Build(data, &c.cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := idx.Stats().InMemory; got != c.inMemory {
			t.Errorf("%s: built in memory = %v, want %v (%d symbols, budget %d)", c.name, got, c.inMemory, n, c.cfg.MemoryBudget)
		}
	}
}

// TestBenchmarkBuildCellsRunERA holds the two configurations the repository
// benchmark's build workload measures (benchmark/build.go: serial at 4 bytes
// of budget per symbol, SharedDisk on every core at 64 MiB) to the builder
// they exist to measure.
func TestBenchmarkBuildCellsRunERA(t *testing.T) {
	n := 512 << 10
	if testing.Short() {
		n = 64 << 10 // the budget scales with it, so the rule sees the same ratio
	}
	data := workload.MustGenerate(workload.DNA, n, 42)
	docs, err := workload.SliceDocs(data[:n], 64)
	if err != nil {
		t.Fatal(err)
	}
	for name, cfg := range map[string]*Config{
		"serial": {MemoryBudget: 4 * int64(n)},
		"par":    {Mode: SharedDisk, Workers: runtime.NumCPU(), MemoryBudget: 64 << 20},
	} {
		idx, err := BuildCorpus(docs, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if st := idx.Stats(); st.InMemory || st.Scans == 0 {
			t.Errorf("%s cell: %+v, want an ERA build", name, st)
		}
	}
}

// TestInMemoryWorkingSetFitsItsConstant measures what the fit rule promises,
// at a size where the kernel's fixed costs (2 KiB of byte buckets, allocator
// size classes; internal/suffixarray pins those at 4 Ki) no longer show: the
// suffix order of n symbols allocates at most inMemoryBytesPerSymbol·n bytes,
// and not so much less that the constant turns inputs away for nothing.
func TestInMemoryWorkingSetFitsItsConstant(t *testing.T) {
	const n = 1 << 20
	for name, text := range map[string][]byte{
		"dna":      workload.MustGenerate(workload.DNA, n, 5),
		"english":  workload.MustGenerate(workload.English, n, 5),
		"period-7": append(bytes.Repeat([]byte("ACGTTGA"), n/7+1)[:n], alphabet.Terminator),
	} {
		got := allocatedBy(func() {
			if _, _, err := suffixOrder(text); err != nil {
				t.Error(err)
			}
		})
		if perSym := float64(got) / float64(len(text)); perSym <= inMemoryBytesPerSymbol-2 || perSym > inMemoryBytesPerSymbol {
			t.Errorf("%s: the suffix order of %d symbols allocated %.2f B/symbol, the fit rule assumes (%d, %d]",
				name, n, perSym, inMemoryBytesPerSymbol-2, inMemoryBytesPerSymbol)
		}
	}
}

// TestCorpusSizeGuard: a corpus whose terminated length overflows the
// index's int32 offsets is refused at the entry point, by size alone.
func TestCorpusSizeGuard(t *testing.T) {
	if err := checkCorpusSize(math.MaxInt32 - 1); err != nil {
		t.Errorf("the largest corpus whose terminator still has an int32 offset was refused: %v", err)
	}
	for _, total := range []int64{math.MaxInt32, math.MaxInt32 + 1, 1 << 40} {
		if err := checkCorpusSize(total); err == nil {
			t.Errorf("a corpus of %d bytes was admitted", total)
		}
	}
}
