package suffixtree

import (
	"bytes"
	"math"
	"math/rand"
	"sort"
	"testing"

	"era/internal/alphabet"
)

// TestCommonPrefixLen pins the word-parallel scan to the generic reference
// across every alignment of the mismatch against the 8-byte word grid,
// including mismatches in the sub-word tail and slices that end exactly at
// their buffer's last byte (the mapped-section case the overlapping tail
// load must not overrun).
func TestCommonPrefixLen(t *testing.T) {
	for n := 0; n <= 20; n++ {
		for mis := 0; mis <= n; mis++ {
			buf := make([]byte, n+1)
			for i := range buf {
				buf[i] = byte('a' + i%3)
			}
			a := buf[:n:n]
			b := append([]byte(nil), a...)
			if mis < n {
				b[mis] ^= 0x80
			}
			want := commonPrefixLenGeneric(a, b)
			if got := commonPrefixLen(a, b); got != want {
				t.Fatalf("len %d mismatch@%d: got %d, want %d", n, mis, got, want)
			}
			if got := commonPrefixLen(b, a); got != want {
				t.Fatalf("len %d mismatch@%d swapped: got %d, want %d", n, mis, got, want)
			}
		}
	}
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 2000; trial++ {
		la, lb := rng.Intn(40), rng.Intn(40)
		a := make([]byte, la)
		b := make([]byte, lb)
		for i := range a {
			a[i] = byte(rng.Intn(3))
		}
		for i := range b {
			b[i] = byte(rng.Intn(3))
		}
		if want := commonPrefixLenGeneric(a, b); commonPrefixLen(a, b) != want {
			t.Fatalf("random trial %d: got %d, want %d (a=%v b=%v)", trial, commonPrefixLen(a, b), want, a, b)
		}
	}
}

// TestFindSym pins the word-parallel child-symbol scan to the generic binary
// search at every run offset and length a node record can describe — runs at
// the section's first and last byte (where the overlapping tail load must
// shift rather than overrun), runs shorter/longer than a word, and probes for
// present, absent-but-in-range, and out-of-range bytes.
func TestFindSym(t *testing.T) {
	rng := rand.New(rand.NewSource(57))
	for _, secLen := range []int{1, 3, 7, 8, 9, 16, 40, 200} {
		// Adjacent byte values on purpose: a byte just outside the run that
		// equals the probe is the case where the overlapping tail load's
		// borrow arithmetic could fake an in-run match (the probe's neighbour
		// differing in the low bit is the lane the borrow corrupts).
		sym := make([]byte, secLen)
		for i := range sym {
			sym[i] = byte(rng.Intn(8))
		}
		for cs := 0; cs < secLen; cs++ {
			for cc := 1; cs+cc <= secLen && cc <= 20; cc++ {
				run := sym[cs : cs+cc]
				sort.Slice(run, func(i, j int) bool { return run[i] < run[j] })
				probes := append([]byte{0, 1, 7, 8, 255}, run...)
				for _, b := range probes {
					want := findSymGeneric(sym, int32(cs), int32(cc), b)
					got := findSym(sym, int32(cs), int32(cc), b)
					// Duplicates make the matched offset ambiguous; both
					// implementations must still agree on found vs absent and
					// point at an equal byte.
					if (got < 0) != (want < 0) {
						t.Fatalf("sec %d run [%d,%d) probe %d: got %d, want %d (run %v)", secLen, cs, cs+cc, b, got, want, run)
					}
					if got >= 0 && run[got] != b {
						t.Fatalf("sec %d run [%d,%d) probe %d: offset %d holds %d (run %v)", secLen, cs, cs+cc, b, got, run[got], run)
					}
				}
			}
		}
	}
}

// newBuilder is NewFlatBuilder for bounds that are known to fit the layout.
func newBuilder(t testing.TB, term []byte, internal int) *FlatBuilder {
	t.Helper()
	fb, err := NewFlatBuilder(term, internal)
	if err != nil {
		t.Fatal(err)
	}
	return fb
}

// builderSub is one prepared sub-tree as group assembly would hand it over.
type builderSub struct {
	label []byte
	l     []int32
	lcp   []int32
}

// subTreesOf splits the terminated string's suffixes into a prefix-free set
// of sorted-suffix sub-trees: symbols occurring once get a length-1 label,
// the rest split into length-2 labels — so consecutive labels share prefixes
// and the builder's boundary-LCP recovery is exercised, not just the
// boundary-at-depth-0 case.
func subTreesOf(term []byte) []builderSub {
	n := int32(len(term))
	sa := make([]int32, n)
	for i := range sa {
		sa[i] = int32(i)
	}
	sort.Slice(sa, func(a, b int) bool { return bytes.Compare(term[sa[a]:], term[sa[b]:]) < 0 })

	byteLCP := func(a, b int32) int32 {
		return int32(commonPrefixLenGeneric(term[a:], term[b:]))
	}
	var subs []builderSub
	for i := 0; i < len(sa); {
		j := i
		for j < len(sa) && term[sa[j]] == term[sa[i]] {
			j++
		}
		labelLen := int32(1)
		if j-i > 1 {
			labelLen = 2
		}
		for k := i; k < j; {
			m := k
			for m < j && bytes.Equal(term[sa[m]:sa[m]+labelLen], term[sa[k]:sa[k]+labelLen]) {
				m++
			}
			sub := builderSub{label: append([]byte(nil), term[sa[k]:sa[k]+labelLen]...)}
			for p := k; p < m; p++ {
				sub.l = append(sub.l, sa[p])
				if p == k {
					sub.lcp = append(sub.lcp, 0)
				} else {
					sub.lcp = append(sub.lcp, byteLCP(sa[p-1], sa[p]))
				}
			}
			subs = append(subs, sub)
			k = m
		}
		i = j
	}
	return subs
}

// TestFlatBuilderDifferential is the byte-identity pin at the section level:
// streaming prefix-free sub-trees through FlatBuilder must emit exactly the
// bytes Flatten produces from the heap tree over the same string, and the
// per-sub-tree node counts must match what FromSortedSuffixes would have
// materialized.
func TestFlatBuilderDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	corpora := append([][]byte(nil), flatCorpora...)
	for i := 0; i < 10; i++ {
		n := 5 + rng.Intn(400)
		syms := []byte("ab")
		if i%3 == 1 {
			syms = []byte("ACGT")
		} else if i%3 == 2 {
			syms = []byte("abcdefghijklmnopqrstuvwxyz")
		}
		d := make([]byte, n)
		for j := range d {
			d[j] = syms[rng.Intn(len(syms))]
		}
		corpora = append(corpora, d)
	}

	for ci, data := range corpora {
		tree, _, term := buildBoth(t, data)
		want, err := Flatten(tree, term)
		if err != nil {
			t.Fatal(err)
		}

		fb := newBuilder(t, term, len(term))
		for _, sub := range subTreesOf(term) {
			nodes, err := fb.AddSubTree(sub.label, sub.l, sub.lcp)
			if err != nil {
				t.Fatalf("corpus %d: AddSubTree(%q): %v", ci, sub.label, err)
			}
			ref, err := FromSortedSuffixes(tree.s, sub.l, sub.lcp)
			if err != nil {
				t.Fatalf("corpus %d: FromSortedSuffixes(%q): %v", ci, sub.label, err)
			}
			if wantNodes := int64(ref.NumNodes() - 1); nodes != wantNodes {
				t.Fatalf("corpus %d: sub-tree %q node count %d, heap %d", ci, sub.label, nodes, wantNodes)
			}
		}
		got, err := fb.Finish()
		if err != nil {
			t.Fatalf("corpus %d: Finish: %v", ci, err)
		}
		if got.NNodes != want.NNodes || got.NLeaves != want.NLeaves {
			t.Fatalf("corpus %d: %d nodes/%d leaves, want %d/%d", ci, got.NNodes, got.NLeaves, want.NNodes, want.NLeaves)
		}
		for _, s := range []struct {
			name      string
			got, want []byte
		}{
			{"nodes", got.Nodes, want.Nodes},
			{"sym", got.Sym, want.Sym},
			{"leafIdx", got.LeafIdx, want.LeafIdx},
			{"leafData", got.LeafData, want.LeafData},
		} {
			if !bytes.Equal(s.got, s.want) {
				t.Fatalf("corpus %d: section %s differs (%d vs %d bytes)", ci, s.name, len(s.got), len(s.want))
			}
		}
	}
}

// TestFlatBuilderSingleSubTree covers the degenerate stream: the whole
// suffix set as one sub-tree rooted at the terminator-less... — i.e. one
// prefix covering one suffix, plus a full-alphabet sweep with every suffix
// in its own singleton sub-tree (labels = the suffixes' minimal distinct
// prefixes would not be prefix-free, so singleton labels only arise for
// unique first symbols; this exercises that path).
func TestFlatBuilderSingleSubTree(t *testing.T) {
	term := append([]byte("zyxw"), alphabet.Terminator)
	// All first symbols distinct: five singleton sub-trees with 1-byte labels.
	fb := newBuilder(t, term, len(term))
	subs := subTreesOf(term)
	if len(subs) != 5 {
		t.Fatalf("expected 5 singleton sub-trees, got %d", len(subs))
	}
	for _, sub := range subs {
		if len(sub.l) != 1 {
			t.Fatalf("sub-tree %q has %d suffixes, want 1", sub.label, len(sub.l))
		}
		if _, err := fb.AddSubTree(sub.label, sub.l, sub.lcp); err != nil {
			t.Fatal(err)
		}
	}
	got, err := fb.Finish()
	if err != nil {
		t.Fatal(err)
	}
	ft, err := NewFlatTree(term, got.Nodes, got.Sym, nil, got.LeafIdx, got.LeafData, got.NLeaves)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(term); i++ {
		if !ft.Contains(term[i : i+1]) {
			t.Fatalf("missing symbol %q", term[i:i+1])
		}
		if c := ft.Count(term[i:]); c != 1 {
			t.Fatalf("Count(%q) = %d, want 1", term[i:], c)
		}
	}
}

// TestFlatBuilderErrors pins the malformed-input diagnostics: out-of-order
// or non-prefix-free labels, undersized LCPs, duplicate suffixes, and the
// empty stream must all error — never emit a silently wrong image.
func TestFlatBuilderErrors(t *testing.T) {
	term := append([]byte("abab"), alphabet.Terminator)
	fresh := func() *FlatBuilder { return newBuilder(t, term, len(term)) }

	if _, err := fresh().Finish(); err == nil {
		t.Error("Finish on an empty stream succeeded")
	}
	if _, err := fresh().AddSubTree([]byte("a"), nil, nil); err == nil {
		t.Error("empty sub-tree accepted")
	}
	if _, err := fresh().AddSubTree([]byte("a"), []int32{0, 2}, []int32{0}); err == nil {
		t.Error("lcp length mismatch accepted")
	}
	if _, err := fresh().AddSubTree([]byte("a"), []int32{0, 2}, []int32{0, 0}); err == nil {
		t.Error("lcp below the prefix length accepted")
	}
	if _, err := fresh().AddSubTree([]byte("a"), []int32{0, 0}, []int32{0, 5}); err == nil {
		t.Error("duplicate suffix accepted")
	}
	if _, err := fresh().AddSubTree([]byte("a"), []int32{9}, []int32{0}); err == nil {
		t.Error("out-of-range suffix accepted")
	}

	// "abab"+terminator: suffixes starting with b are {3 "b$", 1 "bab$"},
	// with a, suffixes {2 "ab$", 0 "abab$"}.
	b := fresh()
	if _, err := b.AddSubTree([]byte("b"), []int32{3, 1}, []int32{0, 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.AddSubTree([]byte("a"), []int32{2, 0}, []int32{0, 2}); err == nil {
		t.Error("out-of-order label accepted")
	}
	b = fresh()
	if _, err := b.AddSubTree([]byte("a"), []int32{2, 0}, []int32{0, 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.AddSubTree([]byte("ab"), []int32{2, 0}, []int32{0, 2}); err == nil {
		t.Error("non-prefix-free label accepted")
	}
}

// TestFlatBuilderTablesNeverGrow pins the sizing contract of NewFlatBuilder:
// given the internal-node bound ERA's assembly computes — every sub-tree's
// branch nodes (the node count AddSubTree reports, less its leaves) plus one
// per sub-tree for the split where it joins its predecessor — the sections
// Finish hands out are the arrays the constructor allocated, cut at the
// front by no more than the joins; the pending stack stays a few node
// fan-outs deep per level of the open path; and Finish itself allocates
// nothing that scales with the tree.
func TestFlatBuilderTablesNeverGrow(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, syms := range []string{"ab", "ACGT", "abcdefghijklmnopqrstuvwxyz"} {
		data := make([]byte, 20000)
		for i := range data {
			data[i] = syms[rng.Intn(len(syms))]
		}
		term := append(data, alphabet.Terminator)
		subs := subTreesOf(term)
		stream := func(fb *FlatBuilder) (internal int) {
			for _, sub := range subs {
				nodes, err := fb.AddSubTree(sub.label, sub.l, sub.lcp)
				if err != nil {
					t.Fatal(err)
				}
				internal += int(nodes) - len(sub.l)
			}
			return internal
		}

		// A first stream stands in for core's counting pass — and, sized for
		// no internal node at all, takes the regrowth path the whole way.
		under := newBuilder(t, term, 0)
		internal := len(subs) + stream(under)
		want, err := under.Finish()
		if err != nil {
			t.Fatalf("%q: under-sized build: %v", syms, err)
		}
		ft, err := NewFlatTree(term, want.Nodes, want.Sym, nil, want.LeafIdx, want.LeafData, want.NLeaves)
		if err != nil {
			t.Fatal(err)
		}
		if err := ValidateView(ft); err != nil {
			t.Fatalf("%q: under-sized build: %v", syms, err)
		}

		// AllocsPerRun calls its function once to warm up.
		const runs = 2
		var builders [runs + 1]*FlatBuilder
		var ends [runs + 1][4]*byte
		last := func(b []byte) *byte { return &b[:cap(b)][cap(b)-1] }
		for i := range builders {
			fb := newBuilder(t, term, internal)
			ends[i] = [4]*byte{last(fb.nodes), last(fb.sym), last(fb.leafIdx), last(fb.leafData)}
			stream(fb)
			// The open path is as deep as the stream ever made it; a level
			// holds at most one node's children, less the one still open.
			if limit := (len(syms) + 1) * cap(fb.frames); cap(fb.pending) > 2*limit {
				t.Errorf("%q: pending stack grew to %d records under a path of ≤ %d frames", syms, cap(fb.pending), cap(fb.frames))
			}
			builders[i] = fb
		}
		var fl *Flat
		next := 0
		perFinish := testing.AllocsPerRun(runs, func() {
			if fl, err = builders[next].Finish(); err != nil {
				t.Fatal(err)
			}
			next++
		})
		if perFinish > 2 {
			t.Errorf("%q: Finish allocated %.0f objects", syms, perFinish)
		}
		if got := [4]*byte{last(fl.Nodes), last(fl.Sym), last(fl.LeafIdx), last(fl.LeafData)}; got != ends[runs] {
			t.Errorf("%q: Finish handed out sections that are not the arrays NewFlatBuilder allocated", syms)
		}
		if nInt := int(fl.NNodes - fl.NLeaves); nInt-1 > internal || nInt-1 < internal-len(subs) {
			t.Errorf("%q: %d internal nodes, bound %d over %d sub-trees", syms, nInt-1, internal, len(subs))
		}
		if !bytes.Equal(fl.Nodes, want.Nodes) || !bytes.Equal(fl.Sym, want.Sym) {
			t.Errorf("%q: the under-sized build's sections differ from the sized build's", syms)
		}
		if cap(fl.Dense) != 0 {
			t.Errorf("%q: a %d-byte dense section allocated; the layout has none", syms, cap(fl.Dense))
		}
	}
}

// TestFlatBuilderRefusesOversizedTree: node ids are 31 bits, and the
// constructor is where the tables are allocated, so it is where a bound
// past that is refused — before any allocation, which is what lets this
// test ask for two billion nodes.
func TestFlatBuilderRefusesOversizedTree(t *testing.T) {
	term := append([]byte("abab"), alphabet.Terminator)
	for _, internal := range []int{math.MaxInt32 - len(term), math.MaxInt32, math.MaxInt64 - 1, -1} {
		if _, err := NewFlatBuilder(term, internal); err == nil {
			t.Errorf("NewFlatBuilder accepted a bound of %d internal nodes over %d bytes", internal, len(term))
		}
	}
}
