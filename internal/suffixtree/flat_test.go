package suffixtree

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"

	"era/internal/alphabet"
	"era/internal/seq"
)

// flatten builds a heap tree over data (terminator appended) via the naive
// insert path and returns both layouts.
func buildBoth(t testing.TB, data []byte) (*Tree, *FlatTree, []byte) {
	t.Helper()
	term := append(append([]byte(nil), data...), alphabet.Terminator)
	var distinct []byte
	seen := map[byte]bool{}
	for _, b := range data {
		if !seen[b] {
			seen[b] = true
			distinct = append(distinct, b)
		}
	}
	a, err := alphabet.New("t", distinct)
	if err != nil {
		t.Fatal(err)
	}
	mem, err := seq.NewMem(a, term)
	if err != nil {
		t.Fatal(err)
	}
	tree := naiveTree(t, mem)
	f, err := Flatten(tree, term)
	if err != nil {
		t.Fatalf("Flatten: %v", err)
	}
	ft, err := NewFlatTree(term, f.Nodes, f.Sym, nil, f.LeafIdx, f.LeafData, f.NLeaves)
	if err != nil {
		t.Fatalf("NewFlatTree: %v", err)
	}
	return tree, ft, term
}

// naiveTree inserts every suffix of s by splitting edges — a small, obviously
// correct builder that exercises AttachSorted/SplitEdge exactly like the
// oracle in internal/ukkonen.
func naiveTree(t testing.TB, s seq.String) *Tree {
	tr := New(s)
	n := s.Len()
	for i := 0; i < n; i++ {
		cur := tr.Root()
		j := i
		for j < n {
			c := tr.Child(cur, s.At(j))
			if c == None {
				leaf := tr.NewNode(int32(j), int32(n), int32(i))
				if err := tr.AttachSorted(cur, leaf); err != nil {
					t.Fatal(err)
				}
				break
			}
			cs, ce := tr.EdgeStart(c), tr.EdgeEnd(c)
			k := int32(0)
			for cs+k < ce && j < n && s.At(int(cs+k)) == s.At(j) {
				k++
				j++
			}
			if cs+k < ce {
				m := tr.SplitEdge(c, k)
				leaf := tr.NewNode(int32(j), int32(n), int32(i))
				if err := tr.AttachSorted(m, leaf); err != nil {
					t.Fatal(err)
				}
				break
			}
			cur = c
		}
	}
	return tr
}

var flatCorpora = [][]byte{
	[]byte("TGGTGGTGGTGCGGTGATGGTGC"),
	[]byte("mississippi"),
	[]byte("aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa"),
	[]byte("abcabxabcd"),
	[]byte("GATTACagattacaGATTACA"),
}

// TestFlatTreeDifferential pins the two layouts to identical answers for
// every query both layouts answer, over fixed corpora and random
// strings on small alphabets (which stress branchy nodes and deep repeats).
func TestFlatTreeDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	corpora := append([][]byte(nil), flatCorpora...)
	for i := 0; i < 12; i++ {
		n := 10 + rng.Intn(300)
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
		tree, flat, term := buildBoth(t, data)
		if tree.NumNodes() != flat.NumNodes() {
			t.Fatalf("corpus %d: node counts %d != %d", ci, tree.NumNodes(), flat.NumNodes())
		}
		if err := ValidateView(flat, nil, nil); err != nil {
			t.Fatalf("corpus %d: %v", ci, err)
		}

		// Patterns: all substrings up to length 8 of short corpora, random
		// windows plus misses otherwise.
		var pats [][]byte
		if len(data) <= 64 {
			for i := 0; i < len(data); i++ {
				for l := 1; l <= 8 && i+l <= len(data); l++ {
					pats = append(pats, data[i:i+l])
				}
			}
		} else {
			for k := 0; k < 64; k++ {
				i := rand.Intn(len(data) - 4)
				pats = append(pats, data[i:i+1+rand.Intn(4)])
			}
		}
		pats = append(pats, nil, []byte("\x00zz"), term[len(term)-2:], []byte("$"))

		for _, p := range pats {
			wantLoc, wantOK := tree.Find(p)
			gotLoc, gotOK := flat.Find(p)
			if wantOK != gotOK {
				t.Fatalf("corpus %d: Find(%q) ok %v vs flat %v", ci, p, wantOK, gotOK)
			}
			if got, want := flat.Count(p), tree.Count(p); got != want {
				t.Fatalf("corpus %d: Count(%q) = %d, heap %d", ci, p, got, want)
			}
			wantOcc := tree.Occurrences(p)
			gotOcc := flat.Occurrences(p)
			if len(wantOcc) != len(gotOcc) {
				t.Fatalf("corpus %d: Occurrences(%q) len %d vs %d", ci, p, len(gotOcc), len(wantOcc))
			}
			for i := range wantOcc {
				if wantOcc[i] != gotOcc[i] {
					t.Fatalf("corpus %d: Occurrences(%q)[%d] = %d, heap %d (lex order must match)", ci, p, i, gotOcc[i], wantOcc[i])
				}
			}
			if wantOK && len(p) > 0 {
				// The locus labels must spell the same string even though the
				// node ids differ across layouts.
				wl := append(tree.PathLabel(tree.Parent(wantLoc.Node)), tree.Label(wantLoc.Node)[:wantLoc.Depth]...)
				gl := flat.PathLabel(gotLoc.Node)
				gd := flat.Depth(gotLoc.Node) - flat.EdgeLen(gotLoc.Node) + gotLoc.Depth
				if !bytes.Equal(wl, gl[:min(int(gd), len(gl))]) {
					t.Fatalf("corpus %d: Find(%q) locus labels diverge: %q vs %q", ci, p, wl, gl)
				}
			}
		}

		// MatchTrace equivalence, including prefix resume.
		if len(data) >= 8 {
			p1, p2 := data[:6], append(append([]byte(nil), data[:3]...), data[len(data)-3:]...)
			tr1 := make([]Locus, len(p1))
			tr2 := make([]Locus, len(p1))
			m1 := tree.MatchTrace(p1, 0, tr1)
			m2 := flat.MatchTrace(p1, 0, tr2)
			if m1 != m2 {
				t.Fatalf("corpus %d: MatchTrace(%q) = %d vs %d", ci, p1, m2, m1)
			}
			resume := 3
			if m1 < resume {
				resume = m1
			}
			tb1 := make([]Locus, len(p2))
			tb2 := make([]Locus, len(p2))
			copy(tb1, tr1[:resume])
			copy(tb2, tr2[:resume])
			if a, b := tree.MatchTrace(p2, resume, tb1), flat.MatchTrace(p2, resume, tb2); a != b {
				t.Fatalf("corpus %d: resumed MatchTrace(%q) = %d vs %d", ci, p2, b, a)
			}
		}

		// Longest repeated substring: same label and occurrence set.
		wl, wo := tree.LongestRepeatedSubstring()
		gl, go_ := flat.LongestRepeatedSubstring()
		if !bytes.Equal(wl, gl) {
			t.Fatalf("corpus %d: LRS %q vs heap %q", ci, gl, wl)
		}
		if len(wo) != len(go_) {
			t.Fatalf("corpus %d: LRS occ %d vs heap %d", ci, len(go_), len(wo))
		}
		for i := range wo {
			if wo[i] != go_[i] {
				t.Fatalf("corpus %d: LRS occ[%d] %d vs heap %d", ci, i, go_[i], wo[i])
			}
		}

		// MaximalRepeats: identical (depth, count, label) sequences.
		type rep struct {
			depth int32
			occ   int
			label string
		}
		var wr, gr []rep
		tree.MaximalRepeats(2, 2, func(node, depth int32, occ int) bool {
			wr = append(wr, rep{depth, occ, string(tree.PathLabel(node))})
			return true
		})
		flat.MaximalRepeats(2, 2, func(node, depth int32, occ int) bool {
			gr = append(gr, rep{depth, occ, string(flat.PathLabel(node))})
			return true
		})
		if len(wr) != len(gr) {
			t.Fatalf("corpus %d: MaximalRepeats %d vs heap %d", ci, len(gr), len(wr))
		}
		for i := range wr {
			if wr[i] != gr[i] {
				t.Fatalf("corpus %d: MaximalRepeats[%d] = %+v, heap %+v", ci, i, gr[i], wr[i])
			}
		}
	}
}

// TestFlatTreeRoundTrip re-flattens a FlatTree (the WriteFile path of a
// mapped index) and checks the encoded sections are byte-identical.
func TestFlatTreeRoundTrip(t *testing.T) {
	_, flat, term := buildBoth(t, []byte("senselessness.and.sensibility"))
	f2, err := Flatten(flat, term)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(f2.Nodes, flat.nodes) || !bytes.Equal(f2.Sym, flat.sym) ||
		!bytes.Equal(f2.LeafIdx, flat.leafIdx) || !bytes.Equal(f2.LeafData, flat.leafData) {
		t.Fatal("re-flattening a FlatTree changed the encoded sections")
	}
}

// exerciseCorrupt drives every query over a tree whose sections may hold
// anything: answers may be wrong, but nothing may panic, loop, or read out of
// bounds (the bounds checker enforces the latter), and no walk may take more
// steps than the tree has nodes.
func exerciseCorrupt(t testing.TB, ft *FlatTree, term []byte) {
	t.Helper()
	for _, p := range [][]byte{nil, []byte("a"), []byte("abra"), []byte("zzz"), term} {
		ft.Find(p)
		ft.Contains(p)
		ft.Count(p)
		ft.Occurrences(p)
		tr := make([]Locus, len(p))
		ft.MatchTrace(p, 0, tr)
	}
	steps := 0
	ft.WalkDFS(ft.Root(), func(_, _ int32) bool { steps++; return true })
	if steps > ft.NumNodes() {
		t.Fatalf("WalkDFS took %d steps over %d nodes", steps, ft.NumNodes())
	}
	ft.LongestRepeatedSubstring()
	ft.MaximalRepeats(1, 2, func(_, _ int32, _ int) bool { return true })
	leaves, cur := 0, NewRankCursor(ft)
	for _, _, ok := cur.Next(); ok; _, _, ok = cur.Next() {
		if leaves++; leaves > ft.NumNodes() {
			t.Fatalf("the rank cursor returned more leaves than the tree's %d nodes", ft.NumNodes())
		}
	}
	for u := int32(-2); u < int32(ft.NumNodes())+2; u++ {
		ft.Leaves(u)
		ft.CountLeaves(u)
		ft.PathLabel(u)
		ft.Depth(u)
		ft.Suffix(u)
		ft.IsLeaf(u)
		ft.EdgeLen(u)
		FirstLeaf(ft, u)
		kids := 0
		ft.ForEachChild(u, func(c int32) bool {
			if kids++; c <= u || int(c) >= ft.NumNodes() {
				t.Fatalf("node %d lists child %d of %d nodes", u, c, ft.NumNodes())
			}
			return true
		})
		if kids > ft.NumNodes() {
			t.Fatalf("node %d lists %d children", u, kids)
		}
	}
	_ = ValidateView(ft, nil, nil)
}

// TestFlatTreeCorruptNoPanic drives every query over systematically
// corrupted records — every field of the first internal records, both fields
// of the first leaf records, the symbol section — and over
// truncated leaf data.
func TestFlatTreeCorruptNoPanic(t *testing.T) {
	_, flat, term := buildBoth(t, []byte("abracadabra.arcana.abracadabra"))
	if err := ValidateView(flat, nil, nil); err != nil {
		t.Fatalf("the uncorrupted tree: %v", err)
	}
	values := []uint32{0, 1, 0x7fffffff, 0xffffffff, 0x00010001, uint32(flat.nInt), uint32(flat.nInt) - 1,
		uint32(flat.NumNodes()), uint32(flat.NumNodes()) - 1, uint32(len(term))}
	corrupt := func(size, base, off int) {
		for _, v := range values {
			nodes := append([]byte(nil), flat.nodes...)
			for ni := 0; ni < 5 && base+(ni+1)*size <= len(nodes); ni++ {
				binary.LittleEndian.PutUint32(nodes[base+ni*size+off:], v)
			}
			ft, err := NewFlatTree(term, nodes, flat.sym, nil, flat.leafIdx, flat.leafData, flat.nLeaves)
			if err != nil {
				t.Fatal(err) // record values are never a shape error
			}
			if ValidateView(ft, nil, nil) == nil && !bytes.Equal(nodes, flat.nodes) {
				t.Errorf("ValidateView accepted %#x at offset %d of the %d-byte records", v, off, size)
			}
			exerciseCorrupt(t, ft, term)
		}
	}
	for off := 0; off < flatNodeSize; off += 4 {
		corrupt(flatNodeSize, 0, off)
	}
	for off := 0; off < flatLeafSize; off += 4 {
		corrupt(flatLeafSize, flat.leafBase, off)
	}
	for _, v := range []byte{0, 1, 7, 0xff} {
		sym := bytes.Repeat([]byte{v}, len(flat.sym))
		ft, err := NewFlatTree(term, flat.nodes, sym, nil, flat.leafIdx, flat.leafData, flat.nLeaves)
		if err != nil {
			t.Fatal(err)
		}
		if ValidateView(ft, nil, nil) == nil {
			t.Errorf("ValidateView accepted a sym section of all %#x", v)
		}
		exerciseCorrupt(t, ft, term)
	}
	// Truncated/garbage leaf data must decode to short (never panicking)
	// results.
	for cut := 0; cut < len(flat.leafData); cut += 7 {
		ft, err := NewFlatTree(term, flat.nodes, flat.sym, nil, flat.leafIdx, flat.leafData[:cut], flat.nLeaves)
		if err == nil {
			exerciseCorrupt(t, ft, term)
		}
	}
	// The internal-node count is what the leaf count leaves of the symbol
	// section; a node section that does not hold exactly those records is a
	// shape error, not something to clamp.
	for _, d := range []int32{-1, 1} {
		if _, err := NewFlatTree(term, flat.nodes, flat.sym, nil, flat.leafIdx, flat.leafData, flat.nLeaves+d); err == nil {
			t.Errorf("NewFlatTree accepted %d leaves for a section of %d", flat.nLeaves+d, flat.nLeaves)
		}
	}
	if _, err := NewFlatTree(term, flat.nodes[:len(flat.nodes)-flatLeafSize], flat.sym, nil, flat.leafIdx, flat.leafData, flat.nLeaves); err == nil {
		t.Error("NewFlatTree accepted a node section one leaf record short")
	}
	if _, err := NewFlatTree(term, flat.nodes, flat.sym, make([]byte, 256), flat.leafIdx, flat.leafData, flat.nLeaves); err == nil {
		t.Error("NewFlatTree accepted a dense-table section; the layout has none")
	}
}

// FuzzFlatTreeSections mutates the sections of a small valid tree — 9-byte
// patches of (section, offset, value), plus a skew of the leaf count that
// decides where the internal records end — and requires the reader to refuse
// the shape or answer every query without panicking, within the step bounds
// exerciseCorrupt checks.
func FuzzFlatTreeSections(f *testing.F) {
	_, flat, term := buildBoth(f, []byte("abracadabra.arcana.abracadabra"))
	patch := func(sec byte, off int, v uint32) []byte {
		return binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint32([]byte{sec}, uint32(off)), v)
	}
	nInt, nNodes := uint32(flat.nInt), uint32(flat.nNodes)
	f.Add([]byte(nil), int8(0))
	// The seams of the two-run layout: an internal child run reaching into
	// the leaf ids, a leaf run past the last node, a depth past the edge's
	// end, a leaf edge starting past S, and an internal-node count that
	// disagrees with the section length.
	f.Add(append(patch(0, 8, nInt-1), patch(0, 24, 0x00010004)...), int8(0))
	f.Add(append(patch(0, 12, nNodes-1), patch(0, 24, 0x00040001)...), int8(0))
	f.Add(patch(0, flatNodeSize+28, 0x7fffffff), int8(0))
	f.Add(patch(0, flat.leafBase, 0xffffffff), int8(0))
	f.Add(patch(0, flat.leafBase+4, uint32(len(term))+7), int8(0))
	f.Add([]byte(nil), int8(1))
	f.Add([]byte(nil), int8(-4))
	// What ValidateView's first check refuses and the reader has to survive:
	// a leaf run two parents claim, a node that is its own first internal
	// child (the cycle the cs <= u clamp exists for), and an internal id the
	// root's run no longer reaches.
	withRun := func(cnt int) int {
		for u := 1; u < int(flat.nInt); u++ {
			if binary.LittleEndian.Uint16(flat.rec(int32(u))[cnt:]) > 0 {
				return u
			}
		}
		f.Fatal("no internal node below the root has such a run")
		return 0
	}
	root := flat.rec(0)
	f.Add(patch(0, withRun(26)*flatNodeSize+12, binary.LittleEndian.Uint32(root[12:])), int8(0))
	f.Add(patch(0, withRun(24)*flatNodeSize+8, uint32(withRun(24))), int8(0))
	f.Add(append(patch(0, 8, binary.LittleEndian.Uint32(root[8:])+1), patch(0, 24, binary.LittleEndian.Uint32(root[24:])-1)...), int8(0))
	f.Fuzz(func(t *testing.T, patches []byte, leafSkew int8) {
		secs := [4][]byte{
			append([]byte(nil), flat.nodes...), append([]byte(nil), flat.sym...),
			append([]byte(nil), flat.leafIdx...), append([]byte(nil), flat.leafData...),
		}
		for ; len(patches) >= 9; patches = patches[9:] {
			sec := secs[int(patches[0])%len(secs)]
			var v [4]byte
			copy(v[:], patches[5:9])
			if off := int(binary.LittleEndian.Uint32(patches[1:5])); len(sec) > 0 {
				copy(sec[off%len(sec):], v[:])
			}
		}
		ft, err := NewFlatTree(term, secs[0], secs[1], nil, secs[2], secs[3], flat.nLeaves+int32(leafSkew))
		if err != nil {
			return
		}
		exerciseCorrupt(t, ft, term)
	})
}

// TestFlattenAllocsDoNotScaleWithNodes pins Flatten's allocation count to its
// handful of whole-tree arrays (plus their logarithmic regrowth): the child
// callbacks escape through the View interface, so a closure literal per node
// would make the count linear in the tree — 16× the nodes must cost nowhere
// near 16× the objects.
func TestFlattenAllocsDoNotScaleWithNodes(t *testing.T) {
	allocs := func(n int) (nodes int, perRun float64) {
		rng := rand.New(rand.NewSource(5))
		data := make([]byte, n)
		for i := range data {
			data[i] = "ACGT"[rng.Intn(4)]
		}
		tree, _, term := buildBoth(t, data)
		return tree.NumNodes(), testing.AllocsPerRun(5, func() {
			if _, err := Flatten(tree, term); err != nil {
				t.Fatal(err)
			}
		})
	}
	smallNodes, small := allocs(256)
	bigNodes, big := allocs(4096)
	if bigNodes < 8*smallNodes {
		t.Fatalf("trees of %d and %d nodes do not separate the two growth laws", smallNodes, bigNodes)
	}
	if big > 2*small {
		t.Fatalf("Flatten allocated %.0f objects on %d nodes but %.0f on %d: allocation scales with node count",
			small, smallNodes, big, bigNodes)
	}
}
