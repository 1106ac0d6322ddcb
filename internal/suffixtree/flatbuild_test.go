package suffixtree

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
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

// boundedBuilder starts a build of a tree over sa with heap sections for at
// most internal nodes below the root — what AssembleShards does once it has
// counted them — refusing bounds the layout cannot hold.
func boundedBuilder(term []byte, sa []int32, internal int) (*FlatBuilder, error) {
	if err := checkBounds(len(sa), len(term), internal); err != nil {
		return nil, err
	}
	nodes, sym, _ := HeapSink{}.Tree(internal + 1)
	return newFlatBuilder(term, sa, nodes, sym), nil
}

// newBuilder is boundedBuilder for bounds that are known to fit the layout.
func newBuilder(t testing.TB, term []byte, sa []int32, internal int) *FlatBuilder {
	t.Helper()
	fb, err := boundedBuilder(term, sa, internal)
	if err != nil {
		t.Fatal(err)
	}
	return fb
}

// TestFlatBuilderDifferential is the byte-identity pin at the section level:
// streaming the suffix array and its LCPs through a FlatBuilder sized
// loosely, and through AssembleShards into one whole tree, must emit exactly
// the bytes Flatten produces from the heap tree over the same string — the
// leaf section included, which is the suffix array each was handed.
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
		sa, lcp := sortedStream(term, len(term))
		fb := newBuilder(t, term, sa, len(term))
		if err := fb.Stream(lcp); err != nil {
			t.Fatalf("corpus %d: Stream: %v", ci, err)
		}
		streamed, err := fb.Finish()
		if err != nil {
			t.Fatalf("corpus %d: Finish: %v", ci, err)
		}
		whole, err := AssembleShards(term, sa, lcp, 1, HeapSink{})
		if err != nil {
			t.Fatalf("corpus %d: AssembleShards: %v", ci, err)
		}
		if len(whole) != 1 || len(whole[0].Lo) != 0 || len(whole[0].Hi) != 0 {
			t.Fatalf("corpus %d: one shard asked for, %d assembled (first range [%q, %q))", ci, len(whole), whole[0].Lo, whole[0].Hi)
		}
		for name, got := range map[string]*Flat{"streamed": streamed, "assembled": whole[0].Flat} {
			if got.NNodes != want.NNodes || got.NLeaves != want.NLeaves {
				t.Fatalf("corpus %d, %s: %d nodes/%d leaves, want %d/%d", ci, name, got.NNodes, got.NLeaves, want.NNodes, want.NLeaves)
			}
			for _, s := range []struct {
				name      string
				got, want []byte
			}{
				{"nodes", got.Nodes, want.Nodes},
				{"sym", got.Sym, want.Sym},
				{"leaves", got.LeafData, want.LeafData},
			} {
				if !bytes.Equal(s.got, s.want) {
					t.Fatalf("corpus %d, %s: section %s differs (%d vs %d bytes)", ci, name, s.name, len(s.got), len(s.want))
				}
			}
		}
	}
}

// TestFlatBuilderSingleSubTree covers the degenerate stream: every suffix
// branches off the root (all first symbols distinct, every LCP 0), so the
// tree is the root and its leaves.
func TestFlatBuilderSingleSubTree(t *testing.T) {
	term := append([]byte("zyxw"), alphabet.Terminator)
	sa, lcp := sortedStream(term, len(term))
	if slices.Max(lcp) != 0 {
		t.Fatalf("LCPs %v, want all 0", lcp)
	}
	fb := newBuilder(t, term, sa, 0)
	if err := fb.Stream(lcp); err != nil {
		t.Fatal(err)
	}
	got, err := fb.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if got.NNodes != int32(len(term))+1 {
		t.Fatalf("%d nodes, want the root and %d leaves", got.NNodes, len(term))
	}
	ft, err := NewFlatTree(term, got.Nodes, got.Sym, nil, nil, got.LeafData, got.NLeaves)
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

// TestFlatBuilderErrors pins the malformed-input diagnostics: mismatched
// LCPs, duplicate or out-of-range suffixes, an LCP the rightmost path cannot
// hold, and a Finish after a stream that failed or a second stream must all
// error — never emit a silently wrong image.
func TestFlatBuilderErrors(t *testing.T) {
	term := append([]byte("abab"), alphabet.Terminator)
	fresh := func(sa ...int32) *FlatBuilder { return newBuilder(t, term, sa, len(term)) }

	if _, err := fresh(4, 2, 0, 3, 1).Finish(); err == nil {
		t.Error("Finish on an empty stream succeeded")
	}
	if err := fresh(0, 2).Stream([]int32{0}); err == nil {
		t.Error("lcp length mismatch accepted")
	}
	if err := fresh(0, 0).Stream([]int32{0, 5}); err == nil {
		t.Error("duplicate suffix accepted")
	}
	if err := fresh(9).Stream([]int32{0}); err == nil {
		t.Error("out-of-range suffix accepted")
	}
	// "abab"+terminator in order: 4 "$", 2 "ab$", 0 "abab$", 3 "b$", 1 "bab$".
	b := fresh(4, 2, 0, 3, 1)
	if err := b.Stream([]int32{0, 0, 3, 0, 1}); err == nil {
		t.Error("an lcp past the rightmost path accepted")
	}
	if _, err := b.Finish(); err == nil {
		t.Error("Finish after a failed stream succeeded")
	}
	b = fresh(4, 2, 0, 3, 1)
	if err := b.Stream([]int32{0, 0, 2, 0, 1}); err != nil {
		t.Fatal(err)
	}
	_ = b.Stream([]int32{0, 0, 2, 0, 1})
	if _, err := b.Finish(); err == nil {
		t.Error("Finish after a second stream succeeded")
	}
	for _, leaves := range []int{0, len(term) + 1} {
		if _, err := boundedBuilder(term, make([]int32, leaves), 1); err == nil {
			t.Errorf("boundedBuilder accepted a tree of %d leaves over %d bytes", leaves, len(term))
		}
	}
}

// TestFlatBuilderTablesNeverGrow pins the sizing contract of boundedBuilder:
// given the exact internal-node count (what AssembleShards counts from the
// LCPs), the node and symbol sections Finish hands out are the arrays the
// constructor allocated, and the leaf section is the suffix array it was
// handed — its memory, where the host allows a view, else its bytes; a bound
// one short fails the build instead of moving the sections; the pending
// stack stays a few node fan-outs deep per level of the open path; and
// Finish itself allocates nothing that scales with the tree.
func TestFlatBuilderTablesNeverGrow(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, syms := range []string{"ab", "ACGT", "abcdefghijklmnopqrstuvwxyz"} {
		data := make([]byte, 20000)
		for i := range data {
			data[i] = syms[rng.Intn(len(syms))]
		}
		term := append(data, alphabet.Terminator)
		sa, lcp := sortedStream(term, len(term))
		stream := func(fb *FlatBuilder) {
			if err := fb.Stream(lcp); err != nil {
				t.Fatal(err)
			}
		}

		// Sized loosely, a first stream tells the count.
		loose := newBuilder(t, term, sa, len(term))
		stream(loose)
		want, err := loose.Finish()
		if err != nil {
			t.Fatalf("%q: loosely sized build: %v", syms, err)
		}
		ft, err := NewFlatTree(term, want.Nodes, want.Sym, nil, nil, want.LeafData, want.NLeaves)
		if err != nil {
			t.Fatal(err)
		}
		if err := ValidateView(ft, nil, nil); err != nil {
			t.Fatalf("%q: loosely sized build: %v", syms, err)
		}
		internal := int(want.NNodes-want.NLeaves) - 1
		short := newBuilder(t, term, sa, internal-1)
		if err := short.Stream(lcp); err == nil {
			if _, err = short.Finish(); err == nil {
				t.Fatalf("%q: a build sized one internal node short succeeded", syms)
			}
		}

		// AllocsPerRun calls its function once to warm up.
		const runCount = 2
		var builders [runCount + 1]*FlatBuilder
		var ends [runCount + 1][2]*byte
		last := func(b []byte) *byte { return &b[:cap(b)][cap(b)-1] }
		for i := range builders {
			fb := newBuilder(t, term, sa, internal)
			ends[i] = [2]*byte{last(fb.nodes), last(fb.sym)}
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
		perFinish := testing.AllocsPerRun(runCount, func() {
			if fl, err = builders[next].Finish(); err != nil {
				t.Fatal(err)
			}
			next++
		})
		if perFinish > 2 {
			t.Errorf("%q: Finish allocated %.0f objects", syms, perFinish)
		}
		if got := [2]*byte{last(fl.Nodes), last(fl.Sym)}; got != ends[runCount] {
			t.Errorf("%q: Finish handed out node and symbol sections that are not the arrays boundedBuilder allocated", syms)
		}
		if view := leafView(sa); view != nil && &fl.LeafData[0] != &view[0] {
			t.Errorf("%q: the leaf section is not the suffix array the builder was handed", syms)
		}
		enc := make([]byte, 0, flatLeafSize*len(sa))
		for _, suf := range sa {
			enc = binary.LittleEndian.AppendUint32(enc, uint32(suf))
		}
		if !bytes.Equal(fl.LeafData, enc) {
			t.Errorf("%q: the leaf section does not spell the suffix array", syms)
		}
		if len(fl.Nodes) != cap(fl.Nodes) || len(fl.Sym) != cap(fl.Sym) {
			t.Errorf("%q: an exact count left %d node and %d symbol bytes unused", syms, cap(fl.Nodes)-len(fl.Nodes), cap(fl.Sym)-len(fl.Sym))
		}
		if !bytes.Equal(fl.Nodes, want.Nodes) || !bytes.Equal(fl.Sym, want.Sym) {
			t.Errorf("%q: the loosely sized build's sections differ from the exactly sized build's", syms)
		}
		if n := cap(fl.Dense) + cap(fl.LeafIdx); n != 0 {
			t.Errorf("%q: %d bytes of dense tables or a leaf index allocated; the layout has neither", syms, n)
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
		if _, err := boundedBuilder(term, make([]int32, len(term)), internal); err == nil {
			t.Errorf("boundedBuilder accepted a bound of %d internal nodes over %d bytes", internal, len(term))
		}
	}
}

// sortedStream returns the suffixes of data that start before limit, in
// lexicographic order, with their LCPs: a range of data's suffix order when
// limit leaves suffixes out.
func sortedStream(data []byte, limit int) (sa, lcp []int32) {
	sa = make([]int32, limit)
	for i := range sa {
		sa[i] = int32(i)
	}
	sort.Slice(sa, func(a, b int) bool { return bytes.Compare(data[sa[a]:], data[sa[b]:]) < 0 })
	lcp = make([]int32, limit)
	for i := 1; i < limit; i++ {
		lcp[i] = int32(commonPrefixLenGeneric(data[sa[i-1]:], data[sa[i]:]))
	}
	return sa, lcp
}

// TestFlatBuilderWideRuns pins the child count's byte: every byte value
// 1–255 twice below a unique terminator 0 gives the root 255 internal
// children, the most a count holds, and the tree serves and validates; a
// 256th — every byte value twice, in a range of the suffix order that leaves
// out the suffixes no terminator ends — is refused, not wrapped to 0.
func TestFlatBuilderWideRuns(t *testing.T) {
	var up []byte
	for b := 1; b <= 255; b++ {
		up = append(up, byte(b))
	}
	down := bytes.Clone(up)
	slices.Reverse(down)
	term := append(append(bytes.Clone(up), down...), 0)
	sa, lcp := sortedStream(term, len(term))
	fb := newBuilder(t, term, sa, len(term))
	if err := fb.Stream(lcp); err != nil {
		t.Fatal(err)
	}
	f, err := fb.Finish()
	if err != nil {
		t.Fatal(err)
	}
	ft, err := NewFlatTree(term, f.Nodes, f.Sym, nil, nil, f.LeafData, f.NLeaves)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateView(ft, nil, nil); err != nil {
		t.Fatal(err)
	}
	if _, ci := ft.kids(ft.rec(0), 0); ci != flatMaxRun {
		t.Fatalf("the root has %d internal children, want %d", ci, flatMaxRun)
	}
	for i := 0; i+2 <= len(term); i++ {
		if got := ft.Count(term[i : i+2]); got != 1 {
			t.Fatalf("Count(%q) = %d, want 1", term[i:i+2], got)
		}
	}
	if got := ft.Count(up[7:8]); got != 2 {
		t.Fatalf("Count(%q) = %d, want 2", up[7:8], got)
	}

	wide := append(append([]byte{0}, up...), append([]byte{0xff}, append(down, 0)...)...)
	wide = append(wide, wide...)
	sa, lcp = sortedStream(wide, len(wide)/2)
	over, err := boundedBuilder(wide, sa, len(sa))
	if err != nil {
		t.Fatal(err)
	}
	if err := over.Stream(lcp); err != nil {
		t.Fatal(err)
	}
	if _, err := over.Finish(); err == nil || !strings.Contains(err.Error(), "internal children") {
		t.Fatalf("Finish of a root with 256 internal children: %v, want a refusal", err)
	}
}
