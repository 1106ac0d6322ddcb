package core

import (
	"bytes"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"era/internal/alphabet"
	"era/internal/diskio"
	"era/internal/seq"
	"era/internal/sim"
	"era/internal/suffixtree"
	"era/internal/ukkonen"
	"era/internal/workload"
)

// publish puts data on a fresh simulated disk.
func publish(t testing.TB, a *alphabet.Alphabet, data []byte) *seq.File {
	t.Helper()
	disk := diskio.NewDisk(sim.DefaultModel())
	f, err := seq.Publish(disk, "input.seq", a, data)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// buildOracle returns the Ukkonen tree for comparison.
func buildOracle(t testing.TB, a *alphabet.Alphabet, data []byte) *suffixtree.Tree {
	t.Helper()
	m, err := seq.NewMem(a, data)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := ukkonen.Build(m)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// oracleFlat is the image of the Ukkonen tree of data: what a flat-assembled
// ERA build must equal byte for byte.
func oracleFlat(t testing.TB, a *alphabet.Alphabet, data []byte) *suffixtree.Flat {
	t.Helper()
	fl, err := suffixtree.Flatten(buildOracle(t, a, data), data)
	if err != nil {
		t.Fatal(err)
	}
	return fl
}

// requireStrMatchesStrMem builds every group of data's vertical partition by
// both methods — ERa-str (GroupBranch) and ERa-str+mem (GroupPrepare +
// BuildSubTree) — and requires the same sub-trees. ERa-str keeps heap
// sub-trees for the Fig. 7 comparison and has no flat assembly, so this is how
// it inherits the oracle check ERa-str+mem's image passes.
func requireStrMatchesStrMem(t *testing.T, a *alphabet.Alphabet, data []byte, budget int64) {
	t.Helper()
	model := sim.DefaultModel()
	f := publish(t, a, data)
	layout, err := PlanMemory(budget, 0, a.Bits())
	if err != nil {
		t.Fatal(err)
	}
	sc, clock := matcherScanner(t, f)
	groups, _, err := VerticalPartition(f, sc, clock, model, layout.FM, true)
	if err != nil {
		t.Fatal(err)
	}
	view, err := f.View()
	if err != nil {
		t.Fatal(err)
	}
	for gi, g := range groups {
		branched, _, err := GroupBranch(nil, f, view, sc, clock, model, g, layout.RSize, 0)
		if err != nil {
			t.Fatal(err)
		}
		prepared, _, err := GroupPrepare(nil, f, sc, clock, model, g, layout.RSize, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(branched) != len(prepared) {
			t.Fatalf("group %d: ERa-str built %d sub-trees, ERa-str+mem %d", gi, len(branched), len(prepared))
		}
		for i, p := range prepared {
			built, err := BuildSubTree(view, clock, model, p)
			if err != nil {
				t.Fatal(err)
			}
			if !treesEqual(branched[i], built, data) {
				t.Fatalf("group %d: the ERa-str sub-tree of %q differs from ERa-str+mem's", gi, p.Prefix.Label)
			}
		}
	}
}

// treesEqual compares two trees over data structurally via DFS signatures.
func treesEqual(a, b *suffixtree.Tree, data []byte) bool {
	type sig struct {
		depth  int32
		label  string
		suffix int32
	}
	collect := func(t *suffixtree.Tree) []sig {
		var out []sig
		t.WalkDFS(t.Root(), func(id, depth int32) bool {
			out = append(out, sig{depth, string(data[t.EdgeStart(id):t.EdgeEnd(id)]), t.Suffix(id)})
			return true
		})
		return out
	}
	sa, sb := collect(a), collect(b)
	if len(sa) != len(sb) {
		return false
	}
	for i := range sa {
		if sa[i] != sb[i] {
			return false
		}
	}
	return true
}

func testOptions(budget int64) Options {
	return Options{
		MemoryBudget: budget,
		AssembleFlat: true,
		Validate:     true,
	}
}

func TestBuildSerialPaperExample(t *testing.T) {
	data := []byte("TGGTGGTGGTGCGGTGATGGTGC$")
	f := publish(t, alphabet.DNA, data)
	res, err := BuildSerial(f, testOptions(64*1024))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Flat, oracleFlat(t, alphabet.DNA, data)) {
		t.Error("ERA image differs from the Ukkonen oracle's")
	}
}

// TestSubTreePreparePaperTrace replays Example 2 of the paper: the L and B
// arrays of T_TG. B's offsets are the LCP window and its triplets' symbols
// are S at L[i-1] and L[i] plus the offset. Our canonical order ranks '$'
// below the alphabet (the paper ranks it last), so the expected arrays are
// the example's recomputed under that order; the offsets are identical.
func TestSubTreePreparePaperTrace(t *testing.T) {
	data := []byte("TGGTGGTGGTGCGGTGATGGTGC$")
	f := publish(t, alphabet.DNA, data)
	clock := new(sim.Clock)
	sc, err := f.NewScanner(clock, seq.ScannerConfig{BufSize: 4096})
	if err != nil {
		t.Fatal(err)
	}
	g := Group{Prefixes: []Prefix{{Label: []byte("TG"), Freq: 7}}, Freq: 7}
	occs, err := CollectOccurrences(f, sc, clock, sim.DefaultModel(), g)
	if err != nil {
		t.Fatal(err)
	}
	wantOcc := []int32{0, 3, 6, 9, 14, 17, 20}
	if !equal32(occs[0], wantOcc) {
		t.Fatalf("occurrences of TG = %v, want %v (paper Table 1)", occs[0], wantOcc)
	}

	// Static range of 4 symbols mirrors the example's Trace 1–3.
	prepared, stats, err := GroupPrepare(nil, f, sc, clock, sim.DefaultModel(), g, 1<<20, 4)
	if err != nil {
		t.Fatal(err)
	}
	p := prepared[0]
	wantL := []int32{14, 20, 9, 17, 6, 3, 0}
	if !equal32(p.L, wantL) {
		t.Errorf("L = %v, want %v", p.L, wantL)
	}
	type triplet struct {
		c1, c2 byte
		offset int32
	}
	wantB := []triplet{
		{},            // B[0] unused
		{'A', 'C', 2}, // S14 | S20
		{'$', 'G', 3}, // S20 | S9   (paper: (G,$,3) under $-last order)
		{'C', 'G', 2}, // S9  | S17
		{'$', 'G', 6}, // S17 | S6   (paper: (G,$,6))
		{'C', 'G', 5}, // S6  | S3
		{'C', 'G', 8}, // S3  | S0
	}
	if len(p.LCP) != len(wantB) {
		t.Fatalf("LCP window holds %d entries, want %d", len(p.LCP), len(wantB))
	}
	for i := 1; i < len(wantB); i++ {
		off := p.LCP[i]
		got := triplet{data[p.L[i-1]+off], data[p.L[i]+off], off}
		if got != wantB[i] {
			t.Errorf("B[%d] = (%c,%c,%d), want (%c,%c,%d)", i, got.c1, got.c2, got.offset, wantB[i].c1, wantB[i].c2, wantB[i].offset)
		}
	}
	view, err := f.View()
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyPrepared(view, p); err != nil {
		t.Errorf("VerifyPrepared: %v", err)
	}
	// VerifyPrepared refuses an offset one short (the symbols there are
	// equal), one long (they differ before it), undefined, or past S's end,
	// and a window out of order.
	for _, c := range []struct {
		name string
		mod  func(l, lcp []int32)
	}{
		{"short", func(_, lcp []int32) { lcp[6]-- }},
		{"long", func(_, lcp []int32) { lcp[3]++ }},
		{"undefined", func(_, lcp []int32) { lcp[4] = 0 }},
		{"past-end", func(_, lcp []int32) { lcp[2] = 30 }},
		{"out-of-order", func(l, _ []int32) { l[5], l[6] = l[6], l[5] }},
	} {
		bad := Prepared{Prefix: p.Prefix, L: slices.Clone(p.L), LCP: slices.Clone(p.LCP)}
		c.mod(bad.L, bad.LCP)
		if VerifyPrepared(view, bad) == nil {
			t.Errorf("VerifyPrepared accepted a window with the %s mutation", c.name)
		}
	}
	if stats.Rounds != 2 {
		t.Errorf("rounds = %d, want 2 (the example resolves in two passes)", stats.Rounds)
	}
}

func TestBuildSerialMatchesOracleAcrossWorkloads(t *testing.T) {
	for _, k := range workload.Kinds {
		k := k
		t.Run(string(k), func(t *testing.T) {
			a, err := workload.AlphabetOf(k)
			if err != nil {
				t.Fatal(err)
			}
			data := workload.MustGenerate(k, 3000, 11)
			f := publish(t, a, data)
			// A small budget forces many groups and several refinement
			// iterations — the out-of-core regime.
			res, err := BuildSerial(f, testOptions(32*1024))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(res.Flat, oracleFlat(t, a, data)) {
				t.Error("ERA image differs from the Ukkonen oracle's")
			}
			if res.Stats.Groups <= 1 {
				t.Errorf("expected multiple groups under a tight budget, got %d", res.Stats.Groups)
			}
		})
	}
}

// TestBuildSerialStrMethodMatchesOracle holds ERa-str to ERa-str+mem sub-tree
// by sub-tree, and ERa-str+mem's image to the oracle's.
func TestBuildSerialStrMethodMatchesOracle(t *testing.T) {
	data := workload.MustGenerate(workload.DNA, 2000, 5)
	requireStrMatchesStrMem(t, alphabet.DNA, data, 32*1024)
	res, err := BuildSerial(publish(t, alphabet.DNA, data), testOptions(32*1024))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Flat, oracleFlat(t, alphabet.DNA, data)) {
		t.Error("ERA image differs from the Ukkonen oracle's")
	}
}

func TestBuildSerialVariants(t *testing.T) {
	data := workload.MustGenerate(workload.DNA, 2500, 3)
	oracle := oracleFlat(t, alphabet.DNA, data)
	variants := map[string]func(*Options){
		"no-grouping":  func(o *Options) { o.NoGrouping = true },
		"skip-seek":    func(o *Options) { o.SkipSeek = true },
		"static-range": func(o *Options) { o.StaticRange = 16 },
		"tiny-memory":  func(o *Options) { o.MemoryBudget = 8 * 1024 },
		"big-memory":   func(o *Options) { o.MemoryBudget = 1 << 20 },
	}
	for name, mod := range variants {
		name, mod := name, mod
		t.Run(name, func(t *testing.T) {
			f := publish(t, alphabet.DNA, data)
			opts := testOptions(32 * 1024)
			mod(&opts)
			res, err := BuildSerial(f, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(res.Flat, oracle) {
				t.Error("image differs from the oracle's")
			}
		})
	}
	// WriteTrees writes sub-tree files instead of an image: it must do the
	// same work as the flat build, plus one charged file per sub-tree.
	t.Run("write-trees", func(t *testing.T) {
		flat, err := BuildSerial(publish(t, alphabet.DNA, data), testOptions(32*1024))
		if err != nil {
			t.Fatal(err)
		}
		f := publish(t, alphabet.DNA, data)
		res, err := BuildSerial(f, Options{MemoryBudget: 32 * 1024, WriteTrees: true, Validate: true})
		if err != nil {
			t.Fatal(err)
		}
		if res.Flat != nil {
			t.Error("a WriteTrees build returned an image")
		}
		got, want := res.Stats, flat.Stats
		got.VirtualTime, want.VirtualTime = 0, 0
		if got != want {
			t.Errorf("counters differ from the flat build:\n got %+v\nwant %+v", got, want)
		}
		if res.Stats.VirtualTime <= flat.Stats.VirtualTime {
			t.Errorf("writing the sub-trees charged nothing: %v vs %v", res.Stats.VirtualTime, flat.Stats.VirtualTime)
		}
		if size, err := f.Disk().FileSize("trees/g0000-p00.st"); err != nil || size == 0 {
			t.Errorf("first sub-tree file: %d bytes, %v", size, err)
		}
	})
}

func TestBuildSerialQuick(t *testing.T) {
	f := func(core []byte, tight bool) bool {
		data := make([]byte, len(core)+1)
		for i, c := range core {
			data[i] = "ACGT"[c%4]
		}
		data[len(core)] = alphabet.Terminator
		file := publish(t, alphabet.DNA, data)
		budget := int64(64 * 1024)
		if tight {
			budget = 4 * 1024
		}
		res, err := BuildSerial(file, testOptions(budget))
		if err != nil {
			return false
		}
		m, err := seq.NewMem(alphabet.DNA, data)
		if err != nil {
			return false
		}
		oracle, err := ukkonen.Build(m)
		if err != nil {
			return false
		}
		want, err := suffixtree.Flatten(oracle, data)
		return err == nil && reflect.DeepEqual(res.Flat, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func TestElasticRangeGrows(t *testing.T) {
	data := workload.MustGenerate(workload.DNA, 4000, 21)
	f := publish(t, alphabet.DNA, data)
	res, err := BuildSerial(f, testOptions(64*1024))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.MaxRange <= res.Stats.MinRange {
		t.Errorf("elastic range did not grow: min %d, max %d", res.Stats.MinRange, res.Stats.MaxRange)
	}
}

func TestGroupingReducesScans(t *testing.T) {
	data := workload.MustGenerate(workload.DNA, 4000, 8)
	run := func(noGroup bool) Stats {
		f := publish(t, alphabet.DNA, data)
		opts := Options{MemoryBudget: 32 * 1024, NoGrouping: noGroup}
		res, err := BuildSerial(f, opts)
		if err != nil {
			t.Fatal(err)
		}
		return res.Stats
	}
	with := run(false)
	without := run(true)
	if with.Groups >= without.Groups {
		t.Errorf("grouping should reduce group count: with %d, without %d", with.Groups, without.Groups)
	}
	if with.Scans >= without.Scans {
		t.Errorf("grouping should reduce scans of S: with %d, without %d", with.Scans, without.Scans)
	}
	if with.VirtualTime >= without.VirtualTime {
		t.Errorf("grouping should reduce modeled time: with %v, without %v", with.VirtualTime, without.VirtualTime)
	}
}

func TestPrefixesArePrefixFreeAndCoverSuffixes(t *testing.T) {
	data := workload.MustGenerate(workload.Genome, 3000, 17)
	f := publish(t, alphabet.DNA, data)
	res, err := BuildSerial(f, Options{MemoryBudget: 16 * 1024})
	if err != nil {
		t.Fatal(err)
	}
	var prefixes []Prefix
	var total int64
	for _, g := range res.Groups {
		prefixes = append(prefixes, g.Prefixes...)
		for _, p := range g.Prefixes {
			total += p.Freq
		}
	}
	if total != int64(len(data)) {
		t.Errorf("prefix frequencies sum to %d, want %d (every suffix in exactly one sub-tree)", total, len(data))
	}
	for i, p := range prefixes {
		for j, q := range prefixes {
			if i != j && bytes.HasPrefix(q.Label, p.Label) {
				t.Errorf("prefix set not prefix-free: %q is a prefix of %q", p.Label, q.Label)
			}
		}
	}
}

func equal32(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
