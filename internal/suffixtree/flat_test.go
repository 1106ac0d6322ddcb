package suffixtree

import (
	"bytes"
	"encoding/binary"
	"fmt"
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
	ft, err := NewFlatTree(term, f.Nodes, f.Sym, nil, nil, f.LeafData, f.NLeaves)
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
				// node ids differ across layouts, and end as deep into the edge.
				wl := append(tree.PathLabel(tree.Parent(wantLoc.Node)), tree.Label(wantLoc.Node)[:wantLoc.Depth]...)
				gl := flat.PathLabel(gotLoc.Node)
				if !bytes.Equal(wl, gl[:min(len(p), len(gl))]) || gotLoc.Depth != wantLoc.Depth {
					t.Fatalf("corpus %d: Find(%q) loci diverge: %q at %d vs %q at %d", ci, p, wl, wantLoc.Depth, gl, gotLoc.Depth)
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
		gl, go_ := LongestRepeated(flat, nil)
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
		VisitRepeats(flat, 2, 2, func(node, depth int32, occ int) bool {
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

// exerciseCorrupt drives every query over a tree whose sections may hold
// anything: answers may be wrong, but nothing may panic, loop, or read out of
// bounds (the bounds checker enforces the latter), and no walk may take more
// steps than the tree has nodes.
func exerciseCorrupt(t testing.TB, ft *FlatTree, term []byte) {
	t.Helper()
	for _, p := range [][]byte{nil, []byte("a"), []byte("abra"), []byte("zzz"), term} {
		if loc, ok := ft.Find(p); ok {
			ft.FirstOccurrences(loc.Node, 0)
			ft.FirstOccurrences(loc.Node, 2)
		}
		ft.Contains(p)
		ft.Count(p)
		ft.Occurrences(p)
		tr := make([]Locus, len(p))
		ft.MatchTrace(p, 0, tr)
	}
	steps := 0
	Walk(ft, ft.Root(), func(_, _, _ int32) bool { steps++; return true })
	if steps > ft.NumNodes() {
		t.Fatalf("Walk took %d steps over %d nodes", steps, ft.NumNodes())
	}
	LongestRepeated(ft, nil)
	VisitRepeats(ft, 1, 2, func(_, _ int32, _ int) bool { return true })
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
		ft.Suffix(u)
		ft.IsLeaf(u)
		ft.Edge(u, -1)
		ft.Edge(u, 1<<30)
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

// flatSections is a tree's three sections, in the order the tests patch
// them: the internal records, the symbol section and the leaf section.
type flatSections [3][]byte

// sections returns copies of t's sections.
func (t *FlatTree) sections() flatSections {
	return flatSections{bytes.Clone(t.nodes), bytes.Clone(t.sym), bytes.Clone(t.sa)}
}

// leaf returns the entry of leaf rank r in the leaf section.
func (s flatSections) leaf(r int32) []byte {
	return s[2][int(r)*flatLeafSize : int(r+1)*flatLeafSize]
}

// seamNodes returns the first internal node below the root that has internal
// children, and the first that has leaf children.
func (t *FlatTree) seamNodes(tb testing.TB) (withRun, withGap int32) {
	tb.Helper()
	withRun, withGap = -1, -1
	for u := int32(1); u < t.nInt; u++ {
		if _, ci := t.kids(t.rec(u), u); ci > 0 && withRun < 0 {
			withRun = u
		}
		lo, hi := t.ranks(t.rec(u))
		if withGap < 0 && hi-lo >= 2 && int(hi-lo) > t.internalRanks(u) {
			withGap = u
		}
	}
	if withRun < 0 || withGap < 0 {
		tb.Fatal("the tree has no internal node with internal children, or none with leaf children")
	}
	return withRun, withGap
}

// internalRanks counts the ranks u's internal children hold.
func (t *FlatTree) internalRanks(u int32) int {
	is, ic := t.kids(t.rec(u), u)
	held := 0
	for c := is; c < is+ic; c++ {
		lo, hi := t.ranks(t.rec(c))
		held += int(hi - lo)
	}
	return held
}

// TestFlatTreeCorruptNoPanic drives every query over systematically
// corrupted records — every field of the first internal records, the first
// suffixes, the symbol section — and over the seams of the suffix-array
// layout: a suffix past S, two equal suffixes, a leaf range past the suffix
// array, a range whose suffixes are out of order under their node. Nothing
// may panic or run away, and ValidateView must report every corruption that
// changed a byte.
func TestFlatTreeCorruptNoPanic(t *testing.T) {
	_, flat, term := buildBoth(t, []byte("abracadabra.arcana.abracadabra"))
	if err := ValidateView(flat, nil, nil); err != nil {
		t.Fatalf("the uncorrupted tree: %v", err)
	}
	check := func(what string, s flatSections) {
		t.Helper()
		ft, err := NewFlatTree(term, s[0], s[1], nil, nil, s[2], flat.nLeaves)
		if err != nil {
			t.Fatal(err) // record values are never a shape error
		}
		if ValidateView(ft, nil, nil) == nil && (!bytes.Equal(s[0], flat.nodes) || !bytes.Equal(s[1], flat.sym) || !bytes.Equal(s[2], flat.sa)) {
			t.Errorf("ValidateView accepted %s", what)
		}
		exerciseCorrupt(t, ft, term)
	}
	values := []uint32{0, 1, 0x7fffffff, 0xffffffff, 0x00010001, uint32(flat.nInt), uint32(flat.nInt) - 1,
		uint32(flat.NumNodes()), uint32(flat.NumNodes()) - 1, uint32(len(term)), uint32(flat.nLeaves) - 1}
	corrupt := func(sec, size, off int) {
		for _, v := range values {
			s := flat.sections()
			for ni := 0; ni < 5 && (ni+1)*size <= len(s[sec]); ni++ {
				binary.LittleEndian.PutUint32(s[sec][ni*size+off:], v)
			}
			check(fmt.Sprintf("%#x at offset %d of the %d-byte entries", v, off, size), s)
		}
	}
	for off := 0; off < flatNodeSize; off += 4 {
		corrupt(0, flatNodeSize, off)
	}
	corrupt(2, flatLeafSize, 0)
	for _, v := range []byte{0, 1, 7, 0xff} {
		s := flat.sections()
		s[1] = bytes.Repeat([]byte{v}, len(flat.sym))
		check(fmt.Sprintf("a sym section of all %#x", v), s)
	}

	// The seams of the layout, one at a time: the suffix array's, and those
	// of the edges the records no longer state.
	run, gap := flat.seamNodes(t)
	lo, hi := flat.ranks(flat.rec(gap))
	kid, _ := flat.kids(flat.rec(run), run)
	childless := int32(-1)
	for u := flat.nInt - 1; u > 0 && childless < 0; u-- {
		if flat.counts[u] == 0 {
			childless = u
		}
	}
	setDepth := func(nodes []byte, u int32, d uint32) {
		binary.LittleEndian.PutUint32(nodes[int(u)*flatNodeSize+8:], d)
	}
	seams := map[string]func(s flatSections){
		"a suffix past S": func(s flatSections) {
			binary.LittleEndian.PutUint32(s.leaf(lo), uint32(len(term)))
		},
		"two equal suffixes": func(s flatSections) {
			copy(s.leaf(lo), s.leaf(hi-1))
		},
		"a leaf range past the suffix array": func(s flatSections) {
			binary.LittleEndian.PutUint32(s[0][int(gap)*flatNodeSize:], uint32(flat.nLeaves)-1)
		},
		"an unsorted range under a node": func(s flatSections) {
			a, b := s.leaf(lo), s.leaf(hi-1)
			var tmp [flatLeafSize]byte
			copy(tmp[:], a)
			copy(a, b)
			copy(b, tmp[:])
		},
		"a child at its parent's depth": func(s flatSections) {
			setDepth(s[0], kid, uint32(flat.depthOf(flat.rec(run))))
		},
		"a child above its parent's depth": func(s flatSections) {
			setDepth(s[0], kid, uint32(flat.depthOf(flat.rec(run)))-1)
		},
		"a depth that runs the first suffix past S": func(s flatSections) {
			setDepth(s[0], gap, uint32(len(term)))
		},
		"a first symbol that is not the child's": func(s flatSections) {
			s[1][kid]++
		},
		"a count where childStart is unused": func(s flatSections) {
			s[1][int(flat.nInt)+int(childless)] = 1
		},
		"a count byte whose run reaches past the internal ids": func(s flatSections) {
			s[1][int(flat.nInt)+int(run)] = 0xff
		},
		"a symbol on the root": func(s flatSections) {
			s[1][0] = 'a'
		},
	}
	for what, mutate := range seams {
		s := flat.sections()
		mutate(s)
		check(what, s)
	}

	// The internal-node count is half the length of the symbol section; a
	// node section that does not hold exactly that many records, a leaf
	// section that does not hold exactly the leaf count's suffixes, or a
	// symbol section of odd length is a shape error, not something to clamp,
	// and so are child tables or a leaf index.
	for _, d := range []int32{-1, 1} {
		if _, err := NewFlatTree(term, flat.nodes, flat.sym, nil, nil, flat.sa, flat.nLeaves+d); err == nil {
			t.Errorf("NewFlatTree accepted %d leaves for a leaf section of %d", flat.nLeaves+d, flat.nLeaves)
		}
	}
	if _, err := NewFlatTree(term, flat.nodes[:len(flat.nodes)-flatNodeSize], flat.sym, nil, nil, flat.sa, flat.nLeaves); err == nil {
		t.Error("NewFlatTree accepted a node section one record short")
	}
	for _, sa := range [][]byte{flat.sa[:len(flat.sa)-flatLeafSize], append(bytes.Clone(flat.sa), 0, 0, 0, 0), append(bytes.Clone(flat.sa), 0), nil} {
		if _, err := NewFlatTree(term, flat.nodes, flat.sym, nil, nil, sa, flat.nLeaves); err == nil {
			t.Errorf("NewFlatTree accepted a %d-byte leaf section for %d leaves", len(sa), flat.nLeaves)
		}
	}
	if _, err := NewFlatTree(term, flat.nodes, append(flat.sym[:len(flat.sym):len(flat.sym)], 0), nil, nil, flat.sa, flat.nLeaves); err == nil {
		t.Error("NewFlatTree accepted a symbol section of odd length")
	}
	for i, extra := range [2][]byte{make([]byte, 256), {0}} {
		tables := [2][]byte{}
		tables[i] = extra
		if _, err := NewFlatTree(term, flat.nodes, flat.sym, tables[0], tables[1], flat.sa, flat.nLeaves); err == nil {
			t.Errorf("NewFlatTree accepted a dense or leafIdx section (%d); the layout has neither", i)
		}
	}
}

// FuzzFlatTreeSections mutates the sections of a small valid tree — 9-byte
// patches of (section, offset, value), where the sections are the records,
// the symbols, the leaves, and the dense and leafIdx tables the layout leaves
// empty (a patch there gives them bytes), plus a skew of the leaf count that
// the leaf section's length must match and one of the symbol section's
// length, which decides where the child counts start — and requires the
// reader to refuse the shape or answer every query without panicking, within
// the step bounds exerciseCorrupt checks.
func FuzzFlatTreeSections(f *testing.F) {
	_, flat, term := buildBoth(f, []byte("abracadabra.arcana.abracadabra"))
	patch := func(sec byte, off int, v uint32) []byte {
		return binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint32([]byte{sec}, uint32(off)), v)
	}
	// count patches internal node u's child count to c, leaving the three
	// bytes behind it as they are.
	count := func(u int32, c byte) []byte {
		var w [4]byte
		copy(w[:], flat.counts[u:])
		w[0] = c
		return patch(1, int(flat.nInt+u), binary.LittleEndian.Uint32(w[:]))
	}
	nInt := uint32(flat.nInt)
	suffix := func(r int32) uint32 { return binary.LittleEndian.Uint32(flat.sa[int(r)*flatLeafSize:]) }
	saOff := func(r int32) int { return int(r) * flatLeafSize }
	run, gap := flat.seamNodes(f)
	lo, hi := flat.ranks(flat.rec(gap))
	kid, _ := flat.kids(flat.rec(run), run)
	runDepth := uint32(flat.depthOf(flat.rec(run)))
	f.Add([]byte(nil), int8(0), int8(0))
	// The seams of the layout: an internal child run reaching past the
	// internal ids, by its start or by a count byte, a child depth at or
	// above its parent's, a depth that runs the first suffix past S, a
	// suffix past S (and one that is negative as an int32), two equal
	// suffixes, a leaf range past the suffix array, a range whose suffixes
	// are out of order under their node, leaf counts that disagree with the
	// leaf section's length, symbol sections of odd length, and a dense or
	// leafIdx table with bytes in it.
	f.Add(append(patch(0, 12, nInt-1), count(0, 4)...), int8(0), int8(0))
	f.Add(count(run, 0xff), int8(0), int8(0))
	f.Add(patch(0, int(kid)*flatNodeSize+8, runDepth), int8(0), int8(0))
	f.Add(patch(0, int(kid)*flatNodeSize+8, runDepth-1), int8(0), int8(0))
	f.Add(patch(0, flatNodeSize+8, 0x7fffffff), int8(0), int8(0))
	f.Add(patch(0, int(gap)*flatNodeSize+8, uint32(len(term))), int8(0), int8(0))
	f.Add(patch(2, saOff(0), uint32(len(term))+7), int8(0), int8(0))
	f.Add(patch(2, saOff(lo), 0xffffffff), int8(0), int8(0))
	f.Add(patch(2, saOff(lo), suffix(hi-1)), int8(0), int8(0))
	f.Add(patch(0, int(gap)*flatNodeSize, uint32(flat.nLeaves)-1), int8(0), int8(0))
	f.Add(append(patch(2, saOff(lo), suffix(hi-1)), patch(2, saOff(hi-1), suffix(lo))...), int8(0), int8(0))
	f.Add([]byte(nil), int8(1), int8(0))
	f.Add([]byte(nil), int8(-1), int8(0))
	f.Add([]byte(nil), int8(-4), int8(0))
	f.Add([]byte(nil), int8(0), int8(1))
	f.Add([]byte(nil), int8(0), int8(-1))
	f.Add(patch(3, 0, 0), int8(0), int8(0))
	f.Add(patch(4, 0, 0), int8(0), int8(0))
	// What ValidateView's run check refuses and the reader has to survive: a
	// node that is its own first internal child (the cycle the cs <= u clamp
	// exists for), a run two parents claim, and an internal id the root's run
	// no longer reaches.
	root := flat.rec(0)
	f.Add(patch(0, int(run)*flatNodeSize+12, uint32(run)), int8(0), int8(0))
	f.Add(patch(0, int(run)*flatNodeSize+12, binary.LittleEndian.Uint32(root[12:])), int8(0), int8(0))
	f.Add(append(patch(0, 12, binary.LittleEndian.Uint32(root[12:])+1), count(0, flat.counts[0]-1)...), int8(0), int8(0))
	f.Fuzz(func(t *testing.T, patches []byte, leafSkew, symSkew int8) {
		s := flat.sections()
		secs := [5][]byte{s[0], s[1], s[2], nil, nil}
		for ; len(patches) >= 9; patches = patches[9:] {
			i := int(patches[0]) % len(secs)
			if off := int(binary.LittleEndian.Uint32(patches[1:5])); len(secs[i]) > 0 {
				copy(secs[i][off%len(secs[i]):], patches[5:9])
			} else {
				secs[i] = append(secs[i], patches[5:9]...)
			}
		}
		if symSkew < 0 {
			secs[1] = secs[1][:max(len(secs[1])+int(symSkew), 0)]
		} else {
			secs[1] = append(secs[1], make([]byte, symSkew)...)
		}
		ft, err := NewFlatTree(term, secs[0], secs[1], secs[3], secs[4], secs[2], flat.nLeaves+int32(leafSkew))
		if err != nil {
			return
		}
		exerciseCorrupt(t, ft, term)
	})
}

// TestFlattenAllocsDoNotScaleWithNodes pins Flatten's allocation count to its
// handful of whole-tree arrays (plus their logarithmic regrowth): an
// allocation per visited node would make the count linear in the tree — 16×
// the nodes must cost nowhere near 16× the objects.
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
