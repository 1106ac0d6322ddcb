package suffixtree

import (
	"bytes"
	"encoding/binary"
	"testing"
	"testing/quick"

	"era/internal/alphabet"
	"era/internal/seq"
	"era/internal/suffixarray"
)

func mem(t testing.TB, s string) *seq.Mem {
	t.Helper()
	m, err := seq.NewMem(alphabet.DNA, []byte(s))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// buildFromSA builds a tree via FromSortedSuffixes using the SA-IS oracle.
func buildFromSA(t testing.TB, m *seq.Mem) *Tree {
	t.Helper()
	sa, err := suffixarray.Build(m.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	lcp := suffixarray.LCP(m.Bytes(), sa)
	tr, err := FromSortedSuffixes(m, sa, lcp)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestFromSortedSuffixesValidates(t *testing.T) {
	for _, s := range []string{"$", "A$", "ACGT$", "AAAAA$", "GATTACA$", "TGGTGGTGGTGCGGTGATGGTGC$"} {
		m := mem(t, s)
		tr := buildFromSA(t, m)
		if err := tr.Validate(true); err != nil {
			t.Errorf("%q: %v", s, err)
		}
		if !matchesSuffixArray(t, tr, m.Bytes()) {
			t.Errorf("%q: the tree's image is not the suffix array's", s)
		}
	}
}

// matchesSuffixArray reports whether tr, flattened, is byte for byte the
// image assembled from data's suffix array and LCP array, which share no
// code with the builder under test: leaf order, branching depths and edges.
func matchesSuffixArray(t testing.TB, tr *Tree, data []byte) bool {
	t.Helper()
	got, err := Flatten(tr, data)
	if err != nil {
		t.Fatal(err)
	}
	sa, err := suffixarray.Build(data)
	if err != nil {
		t.Fatal(err)
	}
	shards, err := AssembleShards(data, sa, suffixarray.LCP(data, sa), 1, HeapSink{})
	if err != nil {
		t.Fatal(err)
	}
	want := shards[0].Flat
	return bytes.Equal(got.Nodes, want.Nodes) && bytes.Equal(got.Sym, want.Sym) && bytes.Equal(got.LeafData, want.LeafData)
}

func TestFromSortedSuffixesRejectsBadInput(t *testing.T) {
	m := mem(t, "ACGT$")
	if _, err := FromSortedSuffixes(m, nil, nil); err == nil {
		t.Error("empty suffix list accepted")
	}
	if _, err := FromSortedSuffixes(m, []int32{0, 1}, []int32{0}); err == nil {
		t.Error("mismatched lcp length accepted")
	}
	// lcp ≥ suffix length implies duplicate suffixes.
	if _, err := FromSortedSuffixes(m, []int32{4, 4}, []int32{0, 1}); err == nil {
		t.Error("duplicate suffix accepted")
	}
}

func TestSplitEdgePreservesStructure(t *testing.T) {
	m := mem(t, "ACGTACGA$")
	tr := buildFromSA(t, m)
	if err := tr.Validate(true); err != nil {
		t.Fatal(err)
	}
	// Splitting any long edge then validating structurally is impossible
	// (unary nodes violate the invariant), so instead verify SplitEdge's
	// bookkeeping directly.
	var target int32 = None
	tr.WalkDFS(tr.Root(), func(id, _ int32) bool {
		if target == None && id != tr.Root() && tr.EdgeLen(id) >= 2 {
			target = id
		}
		return true
	})
	if target == None {
		t.Fatal("no splittable edge")
	}
	parent := tr.Parent(target)
	label := func(u int32) []byte { return m.Bytes()[tr.EdgeStart(u):tr.EdgeEnd(u)] }
	whole := label(target)
	mid := tr.SplitEdge(target, 1)
	if tr.Parent(mid) != parent || tr.Parent(target) != mid {
		t.Error("split links broken")
	}
	if !bytes.Equal(append(label(mid), label(target)...), whole) {
		t.Error("split labels do not concatenate to the original")
	}
}

func TestGraftSharedPrefixes(t *testing.T) {
	// Sub-trees for prefixes with shared symbols must split the top trie
	// (the paper's example: TGA and TGC share TG).
	m := mem(t, "TGGTGGTGGTGCGGTGATGGTGC$")
	full := buildFromSA(t, m)

	sa, _ := suffixarray.Build(m.Bytes())
	lcp := suffixarray.LCP(m.Bytes(), sa)

	// Partition the suffixes by their first two symbols (plus $ alone),
	// building one sub-tree per partition via FromSortedSuffixes.
	groups := map[string][]int32{}
	var order []string
	for _, p := range sa {
		key := string(m.Bytes()[p:min32(int(p)+2, m.Len())])
		if _, ok := groups[key]; !ok {
			order = append(order, key)
		}
		groups[key] = append(groups[key], p)
	}
	assembled := New(m)
	for _, key := range order {
		list := groups[key]
		sub, err := FromSortedSuffixes(m, list, lcpOf(m.Bytes(), list))
		if err != nil {
			t.Fatalf("%q: %v", key, err)
		}
		if err := assembled.Graft(sub); err != nil {
			t.Fatalf("grafting %q: %v", key, err)
		}
	}
	if err := assembled.Validate(true); err != nil {
		t.Fatal(err)
	}
	if assembled.NumNodes() != full.NumNodes() {
		t.Errorf("assembled %d nodes, oracle %d", assembled.NumNodes(), full.NumNodes())
	}
	_ = lcp
}

func lcpOf(s []byte, list []int32) []int32 {
	out := make([]int32, len(list))
	for i := 1; i < len(list); i++ {
		a, b := s[list[i-1]:], s[list[i]:]
		var h int32
		for int(h) < len(a) && int(h) < len(b) && a[h] == b[h] {
			h++
		}
		out[i] = h
	}
	return out
}

func min32(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestMergePartitionTrees(t *testing.T) {
	// The TRELLIS situation: per-partition trees merged into the full tree.
	data := []byte("TGGTGGTGGTGCGGTGATGGTGC$")
	m := mem(t, string(data))
	full := buildFromSA(t, m)

	mk := func(lo, hi int) *Tree {
		var list []int32
		sa, _ := suffixarray.Build(data)
		for _, p := range sa {
			if int(p) >= lo && int(p) < hi {
				list = append(list, p)
			}
		}
		tr, err := FromSortedSuffixes(m, list, lcpOf(data, list))
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	a := mk(0, 8)
	b := mk(8, 16)
	c := mk(16, len(data))
	if _, err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Merge(c); err != nil {
		t.Fatal(err)
	}
	if err := a.Validate(true); err != nil {
		t.Fatal(err)
	}
	if a.NumNodes() != full.NumNodes() {
		t.Errorf("merged %d nodes, oracle %d", a.NumNodes(), full.NumNodes())
	}
}

func TestMergeQuick(t *testing.T) {
	f := func(raw []byte, cut uint8) bool {
		data := make([]byte, len(raw)+1)
		for i, c := range raw {
			data[i] = "ACGT"[c%4]
		}
		data[len(raw)] = alphabet.Terminator
		m, err := seq.NewMem(alphabet.DNA, data)
		if err != nil {
			return false
		}
		sa, err := suffixarray.Build(data)
		if err != nil {
			return false
		}
		k := int(cut)%len(data) + 0
		var la, lb []int32
		for _, p := range sa {
			if int(p) < k {
				la = append(la, p)
			} else {
				lb = append(lb, p)
			}
		}
		if len(la) == 0 || len(lb) == 0 {
			return true
		}
		ta, err := FromSortedSuffixes(m, la, lcpOf(data, la))
		if err != nil {
			return false
		}
		tb, err := FromSortedSuffixes(m, lb, lcpOf(data, lb))
		if err != nil {
			return false
		}
		if _, err := ta.Merge(tb); err != nil {
			return false
		}
		return ta.Validate(true) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestSerializeRoundTrip pins Tree.WriteTo's record stream — what the
// builders charge the simulated disk for — by decoding it back here: a 16-byte
// header, then NodeSize bytes per node that rebuild the same tree.
func TestSerializeRoundTrip(t *testing.T) {
	m := mem(t, "TGGTGGTGGTGCGGTGATGGTGC$")
	tr := buildFromSA(t, m)
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	if len(raw) != 16+tr.NumNodes()*NodeSize {
		t.Fatalf("stream of %d bytes, want a 16-byte header and %d records of %d", len(raw), tr.NumNodes(), NodeSize)
	}
	u32 := func(off int) int32 { return int32(binary.LittleEndian.Uint32(raw[off:])) }
	if u32(0) != magic || u32(4) != version || int(u32(8)) != m.Len() || int(u32(12)) != tr.NumNodes() {
		t.Fatalf("header = %#x v%d, string of %d, %d nodes", u32(0), u32(4), u32(8), u32(12))
	}
	got := &Tree{s: m, nodes: make([]node, tr.NumNodes())}
	for i := range got.nodes {
		o := 16 + i*NodeSize
		got.nodes[i] = node{u32(o), u32(o + 4), u32(o + 8), u32(o + 12), u32(o + 16), u32(o + 20)}
	}
	if err := got.Validate(true); err != nil {
		t.Fatal(err)
	}
	if !matchesSuffixArray(t, got, m.Bytes()) {
		t.Fatal("the tree changed by serialization")
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	m := mem(t, "GATTACA$")
	tr := buildFromSA(t, m)
	// Corrupt a leaf's suffix label.
	var leaf int32 = None
	tr.WalkDFS(tr.Root(), func(id, _ int32) bool {
		if tr.IsLeaf(id) && leaf == None {
			leaf = id
		}
		return true
	})
	tr.SetSuffix(leaf, tr.Suffix(leaf)+1)
	if err := tr.Validate(true); err == nil {
		t.Error("corrupted suffix label passed validation")
	}
}

// TestQueriesOnGrafted queries the paper's example tree, built from its
// sorted suffixes and flattened, against the scan oracle.
func TestQueriesOnGrafted(t *testing.T) {
	data := []byte("TGGTGGTGGTGCGGTGATGGTGC$")
	tr := flatOf(t, buildFromSA(t, mem(t, string(data))), data)
	if got, want := tr.Count([]byte("GGT")), len(scanOccurrences(data, []byte("GGT"))); got != 5 || want != 5 {
		t.Errorf("Count(GGT) = %d, the scan %d, want 5", got, want)
	}
	if loc, ok := tr.Find([]byte("GGTGC")); !ok || !bytes.HasPrefix(tr.PathLabel(loc.Node), []byte("GGTGC")) {
		t.Error("Find(GGTGC) failed")
	}
	if _, ok := tr.Find([]byte("GGTT")); ok {
		t.Error("Find(GGTT) should fail")
	}
}
