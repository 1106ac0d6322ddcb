package era

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"era/internal/suffixarray"
	"era/internal/suffixtree"
	"era/internal/workload"
)

// diffCorpus is the document corpus the cross-format differential suite
// indexes: repetitive DNA-ish documents with shared substrings (so patterns
// cross shard boundaries and land on branchy loci) plus a tiny and an
// empty-ish document to stress the doc table.
func diffCorpus() [][]byte {
	rng := rand.New(rand.NewSource(42))
	docs := [][]byte{
		[]byte("GATTACAGATTACAGATTACA"),
		[]byte("CATTAGACATTAGA"),
		[]byte("TTTT"),
		[]byte("G"),
	}
	for i := 0; i < 6; i++ {
		n := 200 + rng.Intn(400)
		d := make([]byte, n)
		for j := range d {
			d[j] = "ACGT"[rng.Intn(4)]
		}
		// Plant a shared motif so multi-document hits exist.
		copy(d[n/2:], "GATTACA")
		docs = append(docs, d)
	}
	return docs
}

// diffPatterns derives the query set: corpus substrings of assorted lengths
// (including windows straddling document boundaries), misses, the empty
// pattern and terminator probes.
func diffPatterns(docs [][]byte) [][]byte {
	var flat []byte
	for _, d := range docs {
		flat = append(flat, d...)
	}
	pats := [][]byte{nil, []byte("$"), []byte("A$"), []byte("GATTACA"), []byte("TTTT"), []byte("CCCCCCCCCC")}
	for i := 0; i < 80; i++ {
		off := (i * 611) % (len(flat) - 16)
		pats = append(pats, flat[off:off+1+i%12])
	}
	// Boundary-straddling windows.
	end := 0
	for _, d := range docs[:len(docs)-1] {
		end += len(d)
		lo := end - 3
		if lo < 0 {
			lo = 0
		}
		hi := end + 3
		if hi > len(flat) {
			hi = len(flat)
		}
		pats = append(pats, flat[lo:hi])
	}
	return pats
}

// openedFormats builds the corpus once and returns it opened through every
// serving path: the in-memory monolith, the in-memory sharded index, and
// the four persisted forms (v2 mono, v3 sharded, v4 mapped mono, v4 mapped
// sharded).
func openedFormats(t *testing.T) map[string]Queryable {
	t.Helper()
	docs := diffCorpus()
	mono, err := BuildCorpus(docs, nil)
	if err != nil {
		t.Fatal(err)
	}
	mono.SetName("diff")
	sharded, err := BuildShardedCorpus(docs, &ShardConfig{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	sharded.SetName("diff")

	dir := t.TempDir()
	write := func(name string, save func(string) error) string {
		p := filepath.Join(dir, name)
		if err := save(p); err != nil {
			t.Fatalf("writing %s: %v", name, err)
		}
		return p
	}
	v2 := write("v2.idx", mono.WriteFile)
	v3 := write("v3.idx", sharded.WriteFile)
	v4m := write("v4m.idx", func(p string) error { return WriteFileV4(p, mono) })
	v4s := write("v4s.idx", func(p string) error { return WriteFileV4(p, sharded) })

	out := map[string]Queryable{"heap-mono": mono, "heap-sharded": sharded}
	for name, p := range map[string]string{"v2": v2, "v3": v3, "v4-mono": v4m, "v4-sharded": v4s} {
		q, err := OpenIndex(p)
		if err != nil {
			t.Fatalf("OpenIndex(%s): %v", name, err)
		}
		t.Cleanup(func() { q.Close() })
		out[name] = q
	}
	if got := out["v4-mono"].MappedBytes(); got == 0 {
		t.Fatal("v4 monolithic index reports 0 mapped bytes — mmap path not taken")
	}
	if got := out["v4-sharded"].MappedBytes(); got == 0 {
		t.Fatal("v4 sharded index reports 0 mapped bytes — mmap path not taken")
	}
	return out
}

// TestFormatsDifferential pins every query kind byte-identical across the
// heap monolith (the reference), the sharded fan-out, and all persisted
// formats including the zero-copy mapped v4 layouts.
func TestFormatsDifferential(t *testing.T) {
	idx := openedFormats(t)
	ref := idx["heap-mono"]
	docs := diffCorpus()
	pats := diffPatterns(docs)

	var ops []Op
	for i, p := range pats {
		switch i % 4 {
		case 0:
			ops = append(ops, Op{Kind: OpContains, Pattern: p})
		case 1:
			ops = append(ops, Op{Kind: OpCount, Pattern: p})
		case 2:
			ops = append(ops, Op{Kind: OpOccurrences, Pattern: p})
		case 3:
			ops = append(ops, Op{Kind: OpOccurrences, Pattern: p, MaxOccurrences: 5})
		}
	}
	wantBatch := ref.Batch(ops)

	for name, q := range idx {
		if name == "heap-mono" {
			continue
		}
		if q.Len() != ref.Len() || q.NumDocs() != ref.NumDocs() {
			t.Fatalf("%s: Len/NumDocs %d/%d, want %d/%d", name, q.Len(), q.NumDocs(), ref.Len(), ref.NumDocs())
		}
		for _, p := range pats {
			if got, want := q.Contains(p), ref.Contains(p); got != want {
				t.Fatalf("%s: Contains(%q) = %v, want %v", name, p, got, want)
			}
			if got, want := q.Count(p), ref.Count(p); got != want {
				t.Fatalf("%s: Count(%q) = %d, want %d", name, p, got, want)
			}
			gotOcc, _ := q.Occurrences(p)
			wantOcc, _ := ref.Occurrences(p)
			if !reflect.DeepEqual(gotOcc, wantOcc) && !(len(gotOcc) == 0 && len(wantOcc) == 0) {
				t.Fatalf("%s: Occurrences(%q) = %v, want %v", name, p, gotOcc, wantOcc)
			}
			gotHits, _ := q.DocOccurrences(p)
			wantHits, _ := ref.DocOccurrences(p)
			if !reflect.DeepEqual(gotHits, wantHits) && !(len(gotHits) == 0 && len(wantHits) == 0) {
				t.Fatalf("%s: DocOccurrences(%q) = %v, want %v", name, p, gotHits, wantHits)
			}
		}
		gotBatch := q.Batch(ops)
		for i := range wantBatch {
			g, w := gotBatch[i], wantBatch[i]
			if g.Found != w.Found || g.Count != w.Count || len(g.Occurrences) != len(w.Occurrences) {
				t.Fatalf("%s: Batch op %d = %+v, want %+v", name, i, g, w)
			}
			for j := range w.Occurrences {
				if g.Occurrences[j] != w.Occurrences[j] {
					t.Fatalf("%s: Batch op %d occ[%d] = %d, want %d", name, i, j, g.Occurrences[j], w.Occurrences[j])
				}
			}
		}
	}
}

// TestDirectV4ByteIdentical is the direct-to-v4 acceptance pin: building
// with TargetFlat — which never materializes the heap tree — must serialize
// to exactly the bytes of building the heap tree and flattening it, for
// every driver and worker count. Grafting order varies with workers and
// differs from the builder's global label order, so this also locks in the
// canonical edge re-basing that makes the image a pure function of tree
// shape and string.
func TestDirectV4ByteIdentical(t *testing.T) {
	corpora := [][][]byte{
		diffCorpus(),
		{[]byte("GATTACAGATTACA")},
		{[]byte("TGGTGGTGGTGCGGTGATGGTGC"), []byte("AAAA"), []byte("C")},
	}
	for ci, docs := range corpora {
		heap, err := BuildCorpus(docs, nil)
		if err != nil {
			t.Fatal(err)
		}
		heap.SetName("direct")
		var want bytes.Buffer
		if _, err := heap.WriteToV4(&want); err != nil {
			t.Fatal(err)
		}

		check := func(label string, cfg *Config) {
			cfg.Target = TargetFlat
			idx, err := BuildCorpus(docs, cfg)
			if err != nil {
				t.Fatalf("corpus %d %s: %v", ci, label, err)
			}
			idx.SetName("direct")
			if idx.flat == nil {
				t.Fatalf("corpus %d %s: TargetFlat build did not retain flat sections", ci, label)
			}
			var got bytes.Buffer
			if _, err := idx.WriteToV4(&got); err != nil {
				t.Fatalf("corpus %d %s: %v", ci, label, err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("corpus %d %s: direct v4 image differs from flattened heap image (%d vs %d bytes)",
					ci, label, got.Len(), want.Len())
			}
			// Modeled time and scan counts are per-driver; the tree-shape
			// stats must match the heap build exactly.
			if gw, ww := idx.Stats(), heap.Stats(); gw.TreeNodes != ww.TreeNodes || gw.SubTrees != ww.SubTrees {
				t.Fatalf("corpus %d %s: stats %+v, want %+v", ci, label, gw, ww)
			}
		}
		check("serial", &Config{})
		for w := 1; w <= 8; w++ {
			check(fmt.Sprintf("shared-disk-%d", w), &Config{Mode: SharedDisk, Workers: w})
		}
		for _, w := range []int{2, 5} {
			check(fmt.Sprintf("shared-nothing-%d", w), &Config{Mode: SharedNothing, Workers: w})
		}
	}
}

// TestFlatImageAgainstSuffixArray is the image's independent oracle. The
// heap path and the direct path share one encoder (Flatten feeds FlatBuilder
// too), so their byte-identity says nothing about the stream ERA hands it;
// SA-IS and Kasai share no code with vertical partitioning, the elastic
// range or the group sorts. Their suffix and LCP arrays over the terminated
// corpus, streamed as one sub-tree under the empty prefix, must produce the
// sections of the ERA build — at a budget that makes ERA cut the same
// corpus into many sub-trees.
func TestFlatImageAgainstSuffixArray(t *testing.T) {
	for _, c := range []struct {
		name string
		docs [][]byte
	}{
		{"diff-corpus", diffCorpus()},
		{"periodic", [][]byte{bytes.Repeat([]byte("ACGT"), 300), bytes.Repeat([]byte("AC"), 500), []byte("ACGTACG")}},
		{"one-symbol", [][]byte{bytes.Repeat([]byte("A"), 700), []byte("AAA")}},
		{"empty-docs", shardEmptyDocsCorpus()},
	} {
		t.Run(c.name, func(t *testing.T) {
			idx, err := BuildCorpus(c.docs, &Config{Target: TargetFlat, MemoryBudget: 4 * 1024})
			if err != nil {
				t.Fatal(err)
			}
			if idx.Stats().SubTrees < 2 {
				t.Fatalf("ERA built %d sub-tree: nothing for the assembly to join", idx.Stats().SubTrees)
			}
			sa, err := suffixarray.Build(idx.data)
			if err != nil {
				t.Fatal(err)
			}
			fb, err := suffixtree.NewFlatBuilder(idx.data, len(idx.data))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := fb.AddSubTree(nil, sa, suffixarray.LCP(idx.data, sa)); err != nil {
				t.Fatal(err)
			}
			want, err := fb.Finish()
			if err != nil {
				t.Fatal(err)
			}
			got := idx.flat
			if got.NNodes != want.NNodes || got.NLeaves != want.NLeaves {
				t.Fatalf("%d nodes / %d leaves, the suffix array's tree has %d / %d", got.NNodes, got.NLeaves, want.NNodes, want.NLeaves)
			}
			if !bytes.Equal(got.Nodes, want.Nodes) || !bytes.Equal(got.Sym, want.Sym) ||
				!bytes.Equal(got.LeafIdx, want.LeafIdx) || !bytes.Equal(got.LeafData, want.LeafData) {
				t.Error("the ERA build's sections differ from the suffix array's")
			}
		})
	}
}

// TestV4WriteToRoundTrip checks that a mapped index persists itself back as
// a v4 image through the generic WriteTo/WriteFile path and reopens
// identically — the property that lets `era serve` machinery stay
// format-blind.
func TestV4WriteToRoundTrip(t *testing.T) {
	idx := openedFormats(t)
	dir := t.TempDir()
	for _, name := range []string{"v4-mono", "v4-sharded"} {
		p := filepath.Join(dir, name+"-copy.idx")
		if err := idx[name].WriteFile(p); err != nil {
			t.Fatalf("%s: WriteFile: %v", name, err)
		}
		q, err := OpenIndex(p)
		if err != nil {
			t.Fatalf("%s: reopening copy: %v", name, err)
		}
		defer q.Close()
		for _, pat := range [][]byte{[]byte("GATTACA"), []byte("TT"), []byte("zz")} {
			if got, want := q.Count(pat), idx[name].Count(pat); got != want {
				t.Fatalf("%s copy: Count(%q) = %d, want %d", name, pat, got, want)
			}
		}
	}
}

// TestOpenIndexV4AllocsIndependentOfSize is the zero-copy acceptance test:
// opening a v4 file performs no whole-tree copy, so the allocation count is
// flat across a 64x index size difference (the mmap itself is not a Go
// allocation).
func TestOpenIndexV4AllocsIndependentOfSize(t *testing.T) {
	dir := t.TempDir()
	sizes := []int{1 << 11, 1 << 17}
	paths := make([]string, len(sizes))
	rng := rand.New(rand.NewSource(9))
	for i, n := range sizes {
		data := make([]byte, n)
		for j := range data {
			data[j] = "ACGT"[rng.Intn(4)]
		}
		idx, err := Build(data, nil)
		if err != nil {
			t.Fatal(err)
		}
		idx.SetName(fmt.Sprintf("alloc-%d", n))
		paths[i] = filepath.Join(dir, fmt.Sprintf("alloc-%d.idx", n))
		if err := WriteFileV4(paths[i], idx); err != nil {
			t.Fatal(err)
		}
	}
	small, _ := os.Stat(paths[0])
	large, _ := os.Stat(paths[1])
	if large.Size() < 16*small.Size() {
		t.Fatalf("test setup: file sizes %d and %d do not differ enough", small.Size(), large.Size())
	}
	measure := func(p string) float64 {
		return testing.AllocsPerRun(20, func() {
			q, err := OpenIndex(p)
			if err != nil {
				t.Fatal(err)
			}
			q.Close()
		})
	}
	a0, a1 := measure(paths[0]), measure(paths[1])
	if a1 > a0+4 {
		t.Fatalf("opening the 64x larger v4 index allocates %v objects vs %v — open cost is not size-independent", a1, a0)
	}
	if a1 > 128 {
		t.Fatalf("OpenIndex(v4) allocates %v objects; expected a small constant", a1)
	}
}

// v4TestImage returns the serialized v4 bytes of a small corpus index.
func v4TestImage(t testing.TB, sharded bool) []byte {
	t.Helper()
	docs := [][]byte{[]byte("GATTACA"), []byte("TAGACAT"), []byte("TTTT")}
	var buf bytes.Buffer
	if sharded {
		sx, err := BuildShardedCorpus(docs, &ShardConfig{Shards: 2})
		if err != nil {
			t.Fatal(err)
		}
		sx.SetName("fuzz4")
		if _, err := sx.WriteToV4(&buf); err != nil {
			t.Fatal(err)
		}
	} else {
		idx, err := BuildCorpus(docs, nil)
		if err != nil {
			t.Fatal(err)
		}
		idx.SetName("fuzz4")
		if _, err := idx.WriteToV4(&buf); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// TestV4RejectsCorruptImages pins the open-time validation: truncated
// images, out-of-bounds section tables and misaligned sections must error —
// never panic, and never produce an index whose first query faults.
func TestV4RejectsCorruptImages(t *testing.T) {
	raw := v4TestImage(t, false)
	cases := []struct {
		name   string
		mutate func([]byte) []byte
	}{
		{"truncated-header", func(b []byte) []byte { return b[:40] }},
		{"truncated-image", func(b []byte) []byte { return b[:len(b)/2] }},
		{"image-len-past-eof", func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[16:], uint64(len(b)+v4Page))
			return b
		}},
		{"misaligned-nodes", func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[72:], binary.LittleEndian.Uint64(b[72:])+1)
			return b
		}},
		{"misaligned-data", func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[40:], binary.LittleEndian.Uint64(b[40:])+7)
			return b
		}},
		{"nodes-past-image", func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[80:], 1<<28)
			return b
		}},
		{"docends-past-image", func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[56:], uint64(v4align(int64(len(b)))))
			return b
		}},
		{"zero-docs", func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[64:], 0)
			return b
		}},
		{"hostile-meta-len", func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[32:], 1<<40)
			return b
		}},
		{"leafidx-misaligned", func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[96:], binary.LittleEndian.Uint64(b[96:])+4)
			return b
		}},
		// The leaf count decides where the internal records end, so it is
		// pinned to the one value it can have: a leaf per symbol of S.
		{"leaves-past-nodes", func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[128:], binary.LittleEndian.Uint64(b[80:]))
			return b
		}},
		{"one-leaf-short", func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[128:], binary.LittleEndian.Uint64(b[128:])-1)
			return b
		}},
		{"compact-flag-clear", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[12:], v4FlagChecksums)
			return b
		}},
		{"checksum-flag-clear", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[12:], v4FlagCompact)
			return b
		}},
	}
	dir := t.TempDir()
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			// The header's own CRC is checked first; restamp it so the edited
			// field is what refuses the image.
			b := c.mutate(append([]byte(nil), raw...))
			if len(b) >= v4HeaderLenCk {
				fixV4HeaderCRC(b)
			}
			if _, err := ReadQueryable(bytes.NewReader(b)); err == nil {
				t.Error("ReadQueryable accepted the corrupt image")
			}
			p := filepath.Join(dir, c.name+".idx")
			if err := os.WriteFile(p, b, 0o644); err != nil {
				t.Fatal(err)
			}
			if q, err := OpenIndex(p); err == nil {
				q.Close()
				t.Error("OpenIndex accepted the corrupt image")
			}
		})
	}

	// A flipped layout bit on a good image is damage, not age: the header's
	// CRC speaks before its flags are believed.
	flipped := append([]byte(nil), raw...)
	flipped[12] ^= v4FlagCompact
	if _, err := ReadQueryable(bytes.NewReader(flipped)); err == nil || errors.Is(err, errOldLayout) {
		t.Errorf("a flipped compact-layout flag: %v, want a checksum error", err)
	}

	// The sharded container must reject payload-table corruption too.
	sraw := v4TestImage(t, true)
	for _, c := range []struct {
		name   string
		mutate func([]byte) []byte
	}{
		{"shard-count-hostile", func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[48:], 1<<50)
			return b
		}},
		{"shard-payload-misaligned", func(b []byte) []byte {
			off := binary.LittleEndian.Uint64(b[40:])
			binary.LittleEndian.PutUint64(b[off:], binary.LittleEndian.Uint64(b[off:])+1)
			return b
		}},
		{"shard-payload-past-image", func(b []byte) []byte {
			off := binary.LittleEndian.Uint64(b[40:])
			binary.LittleEndian.PutUint64(b[off+8:], uint64(len(b))*2)
			return b
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			b := fixV4HeaderCRC(c.mutate(append([]byte(nil), sraw...)))
			if _, err := ReadQueryable(bytes.NewReader(b)); err == nil {
				t.Error("ReadQueryable accepted the corrupt sharded image")
			}
		})
	}
}

// fixV4HeaderCRC restamps a checksummed header's own CRC after a test edited
// a header field, so the edit is what the reader sees, not a checksum miss.
func fixV4HeaderCRC(b []byte) []byte {
	binary.LittleEndian.PutUint32(b[v4HeaderCRCOff:], crc32.Checksum(b[:v4HeaderCRCOff], castagnoli))
	return b
}

// TestVerifyChecksTreeStructure: tree images whose bytes carry valid
// checksums but whose records break the layout's invariants open — every
// field is in range, so the query paths clamp nothing — and era.Verify
// reports them.
func TestVerifyChecksTreeStructure(t *testing.T) {
	// restamp recomputes the node section's checksum after a record edit, so
	// the structure pass is what sees it.
	restamp := func(img []byte) {
		nodesOff, symOff := binary.LittleEndian.Uint64(img[72:]), binary.LittleEndian.Uint64(img[88:])
		binary.LittleEndian.PutUint32(img[v4CRCTableOff+4*3:], crc32.Checksum(img[nodesOff:symOff], castagnoli))
	}
	// withRun returns the record of the first internal node below the root
	// that has a child run of the kind whose count sits at offset cnt.
	withRun := func(t *testing.T, s *v4sections, cnt int) (id uint32, rec []byte) {
		for u := int64(1); u < s.nNodes-s.nLeaves; u++ {
			if r := s.nodes[u*32 : u*32+32]; binary.LittleEndian.Uint16(r[cnt:]) > 0 {
				return uint32(u), r
			}
		}
		t.Fatal("no internal node below the root has such a run")
		return 0, nil
	}
	for _, c := range []struct {
		name, want string
		mutate     func(t *testing.T, img []byte, s *v4sections)
	}{
		// The root's leaf children are the first leaf records; it has the
		// terminator's leaf and, in this corpus, the documents' last symbols.
		{"swapped-leaves", "leaf", func(t *testing.T, img []byte, s *v4sections) {
			leaves := s.nodes[(s.nNodes-s.nLeaves)*32:]
			a := append([]byte(nil), leaves[:8]...)
			copy(leaves[:8], leaves[8:16])
			copy(leaves[8:16], a)
			restamp(img)
		}},
		// One more node than the tree has: the section windows (and their
		// checksums) run to the next section's start, so the padding supplies
		// a record and a symbol, and only the structure pass sees that the
		// leaf ids no longer begin where the child runs say.
		{"one-node-more", "child run", func(t *testing.T, img []byte, s *v4sections) {
			binary.LittleEndian.PutUint64(img[80:], uint64(s.nNodes)+1)
		}},
		// Two parents claim the same leaves: a node below the root points its
		// leaf run at the root's.
		{"doubly-claimed-run", "an earlier run holds", func(t *testing.T, img []byte, s *v4sections) {
			_, r := withRun(t, s, 26)
			copy(r[12:16], s.nodes[12:16])
			restamp(img)
		}},
		// A node is its own first internal child: the one shape a descent
		// could follow forever, which is why the reader clamps it.
		{"run-at-its-parent", "is not after it", func(t *testing.T, img []byte, s *v4sections) {
			id, r := withRun(t, s, 24)
			binary.LittleEndian.PutUint32(r[8:], id)
			restamp(img)
		}},
		// The root lets go of its first internal child, which no run holds
		// any more. Its sibling speaks first: it now stands where the
		// orphan's leaves are expected.
		{"unclaimed-id", "not based on its first suffix", func(t *testing.T, img []byte, s *v4sections) {
			r := s.nodes[:32]
			binary.LittleEndian.PutUint32(r[8:], binary.LittleEndian.Uint32(r[8:])+1)
			binary.LittleEndian.PutUint16(r[24:], binary.LittleEndian.Uint16(r[24:])-1)
			restamp(img)
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			img := v4TestImage(t, false)
			s, err := parseV4Sections(img)
			if err != nil {
				t.Fatal(err)
			}
			c.mutate(t, img, s)
			p := filepath.Join(t.TempDir(), c.name+".idx")
			if err := os.WriteFile(p, fixV4HeaderCRC(img), 0o644); err != nil {
				t.Fatal(err)
			}
			rep, err := Verify(p)
			if err != nil {
				t.Fatal(err)
			}
			if rep.OK() || !strings.Contains(strings.Join(rep.Problems, "\n"), c.want) {
				t.Fatalf("Verify: problems %q, want one naming the %s", rep.Problems, c.want)
			}
			// Opening does not run the structure pass: whatever the image
			// answers, it answers without a panic or a hang.
			q, err := OpenIndex(p)
			if err != nil {
				return
			}
			defer q.Close()
			for _, pat := range diffPatterns(diffCorpus()) {
				q.Count(pat)
				q.Occurrences(pat)
				q.DocOccurrences(pat)
			}
			q.Analytics(context.Background(), Query{Kind: OpLongestRepeat})
		})
	}
}

// TestOldLayoutImageRefused: the images under testdata/old-layout were
// written by the commit before the compact node layout (32-byte records for
// every node, 1 KiB dense tables; same version field). Every way in must
// refuse them by name — never mis-read them as the new records — and a live
// directory holding such a tier must quarantine it and keep serving.
func TestOldLayoutImageRefused(t *testing.T) {
	const want = "predates the compact node layout"
	old := filepath.Join("testdata", "old-layout")
	for _, name := range []string{"mono.idx", "sharded.idx"} {
		p := filepath.Join(old, name)
		if q, err := OpenIndex(p); err == nil {
			q.Close()
			t.Errorf("OpenIndex(%s) accepted an old-layout image", name)
		} else if !strings.Contains(err.Error(), want) {
			t.Errorf("OpenIndex(%s): %v, want an error that says the image %s", name, err, want)
		}
		buf, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ReadQueryable(bytes.NewReader(buf)); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("ReadQueryable(%s): %v, want an error that says the image %s", name, err, want)
		}
		rep, err := Verify(p)
		if err != nil {
			t.Fatal(err)
		}
		if rep.OK() || !strings.Contains(strings.Join(rep.Problems, "\n"), want) {
			t.Errorf("Verify(%s): problems %q, want one that says the image %s", name, rep.Problems, want)
		}
	}

	dir := copyLiveFixture(t, filepath.Join(old, "live"))
	rep, err := Verify(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() || !strings.Contains(strings.Join(rep.Problems, "\n"), want) {
		t.Errorf("Verify(live): problems %q, want one that says the tier %s", rep.Problems, want)
	}
	lx, err := NewLive("", &LiveConfig{Dir: dir})
	if err != nil {
		t.Fatalf("opening a live directory with an old-layout tier: %v", err)
	}
	defer lx.Close()
	if q := lx.Stats().Quarantined; len(q) != 1 || q[0] != fmt.Sprintf(liveTierPattern, 0) {
		t.Fatalf("Quarantined = %v, want the old-layout tier", q)
	}
	// The fixture's third document was unsealed, in the WAL only: it is what
	// survives, and it still answers.
	if got := lx.Count([]byte("ACGTACGT")); got == 0 {
		t.Error("the WAL's document does not answer after the old tier was quarantined")
	}
}

// TestFlatImageBytesPerSymbol pins what the compact layout is for: a
// TargetFlat image costs at most 45 bytes per indexed symbol on disk, DNA
// and English alike (the layout before it cost 63 and 76).
func TestFlatImageBytesPerSymbol(t *testing.T) {
	if testing.Short() {
		t.Skip("builds two 128 Ki corpora")
	}
	const n = 128 << 10
	for _, kind := range []workload.Kind{workload.DNA, workload.English} {
		data := workload.MustGenerate(kind, n, 7)
		idx, err := Build(data[:len(data)-1], &Config{Target: TargetFlat})
		if err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(t.TempDir(), string(kind)+".idx")
		if err := WriteFileV4(p, idx); err != nil {
			t.Fatal(err)
		}
		info, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		if per := float64(info.Size()) / float64(idx.Len()); per > 45 {
			t.Errorf("%s: %d-byte image over %d symbols = %.1f B per symbol, want ≤ 45", kind, info.Size(), idx.Len(), per)
		} else {
			t.Logf("%s: %.2f B per symbol", kind, per)
		}
	}
}
