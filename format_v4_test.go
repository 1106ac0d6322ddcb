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
	"slices"
	"strings"
	"testing"

	"era/internal/alphabet"
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

// highByteCorpus is the corpus that fills the layout's widest fields: every
// symbol an alphabet allows — each byte above the terminator, 0x80–0xff
// included — twice, ascending and descending, so each heads an internal node
// and the root holds the most internal children a count byte ever does; and
// documents of a few high bytes with an accented word planted, whose deep
// repeats branch below the root.
func highByteCorpus() [][]byte {
	var up []byte
	for b := int(alphabet.Terminator) + 1; b <= 0xff; b++ {
		up = append(up, byte(b))
	}
	down := slices.Clone(up)
	slices.Reverse(down)
	docs := [][]byte{up, down}
	rng := rand.New(rand.NewSource(80))
	for i := 0; i < 4; i++ {
		d := make([]byte, 80+rng.Intn(80))
		for j := range d {
			d[j] = byte(0xa0 + rng.Intn(5))
		}
		copy(d[len(d)/2:], "caf\xc3\xa9")
		docs = append(docs, d)
	}
	return docs
}

// highByteRootRun is the internal child count of highByteCorpus's root: one
// per symbol above the terminator.
const highByteRootRun = 0xff - int(alphabet.Terminator)

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

// scanOracle answers the membership queries by scanning the terminated
// concatenation of the documents. It is the reference the differential suites
// hold every layer to: it shares nothing with the tree, its builder or its
// reader.
type scanOracle struct {
	global  []byte // the documents concatenated, terminator appended
	docEnds []int  // exclusive end of each document in global
}

func newScanOracle(docs [][]byte) *scanOracle {
	o := &scanOracle{}
	for _, d := range docs {
		o.global = append(o.global, d...)
		o.docEnds = append(o.docEnds, len(o.global))
	}
	o.global = append(o.global, '$')
	return o
}

// occurrences returns the offsets of p in ascending order; the empty pattern
// occurs at every position of the string.
func (o *scanOracle) occurrences(p []byte) []int {
	var occ []int
	for i := 0; i < len(o.global) && i+len(p) <= len(o.global); i++ {
		if bytes.HasPrefix(o.global[i:], p) {
			occ = append(occ, i)
		}
	}
	return occ
}

// docOccurrences returns the occurrences of p that lie inside one document,
// by document and offset.
func (o *scanOracle) docOccurrences(p []byte) []DocHit {
	var hits []DocHit
	start := 0
	for d, end := range o.docEnds {
		for i := start; i < end && i+len(p) <= end; i++ {
			if bytes.HasPrefix(o.global[i:], p) {
				hits = append(hits, DocHit{Doc: d, Offset: i - start})
			}
		}
		start = end
	}
	return hits
}

// result is what Batch owes for a membership op.
func (o *scanOracle) result(op Op) Result {
	occ := o.occurrences(op.Pattern)
	r := Result{Found: len(occ) > 0}
	if !r.Found || op.Kind == OpContains {
		return r
	}
	r.Count = len(occ)
	if op.Kind == OpOccurrences {
		if op.MaxOccurrences > 0 && len(occ) > op.MaxOccurrences {
			occ = occ[:op.MaxOccurrences]
		}
		r.Occurrences = occ
	}
	return r
}

// assertAnswersLike holds q to the oracle over pats: Contains, Count,
// Occurrences, DocOccurrences and a Batch of ops.
func (o *scanOracle) assertAnswersLike(t *testing.T, name string, q Queryable, pats [][]byte, ops []Op) {
	t.Helper()
	for _, p := range pats {
		want := o.occurrences(p)
		if got := q.Contains(p); got != (len(want) > 0) {
			t.Fatalf("%s: Contains(%q) = %v, the scan finds %d", name, p, got, len(want))
		}
		if got := q.Count(p); got != len(want) {
			t.Fatalf("%s: Count(%q) = %d, want %d", name, p, got, len(want))
		}
		if got, _ := q.Occurrences(p); !slices.Equal(got, want) {
			t.Fatalf("%s: Occurrences(%q) = %v, want %v", name, p, got, want)
		}
		wantHits := o.docOccurrences(p)
		if got, _ := q.DocOccurrences(p); !slices.Equal(got, wantHits) {
			t.Fatalf("%s: DocOccurrences(%q) = %v, want %v", name, p, got, wantHits)
		}
	}
	for i, g := range q.Batch(ops) {
		if w := o.result(ops[i]); g.Found != w.Found || g.Count != w.Count || !slices.Equal(g.Occurrences, w.Occurrences) {
			t.Fatalf("%s: Batch op %d (%s %q max %d) = %+v, want %+v", name, i, ops[i].Kind, ops[i].Pattern, ops[i].MaxOccurrences, g, w)
		}
	}
}

// openedFormats builds the corpus once and returns it through every serving
// path: the built monolith and sharded index, and both reopened from their
// mapped files.
func openedFormats(t *testing.T, docs [][]byte) map[string]Queryable {
	t.Helper()
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
	out := map[string]Queryable{"built-mono": mono, "built-sharded": sharded}
	for name, q := range map[string]Queryable{"mapped-mono": mono, "mapped-sharded": sharded} {
		p := filepath.Join(dir, name+".idx")
		if err := q.WriteFile(p); err != nil {
			t.Fatalf("writing %s: %v", name, err)
		}
		m, err := OpenIndex(p)
		if err != nil {
			t.Fatalf("OpenIndex(%s): %v", name, err)
		}
		t.Cleanup(func() { m.Close() })
		if m.MappedBytes() == 0 {
			t.Fatalf("%s reports 0 mapped bytes — mmap path not taken", name)
		}
		out[name] = m
	}
	return out
}

// TestFormatsDifferential pins every membership query kind, on the built
// indexes, the sharded fan-out and the zero-copy mapped files, to a scan of
// the corpus — the DNA-ish one, and the high-byte one whose root fills its
// child count — and holds every path to the built monolith's answers.
func TestFormatsDifferential(t *testing.T) {
	for name, docs := range map[string][][]byte{"dna": diffCorpus(), "high-bytes": highByteCorpus()} {
		t.Run(name, func(t *testing.T) {
			oracle := newScanOracle(docs)
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
			formats := openedFormats(t, docs)
			for path, q := range formats {
				if q.Len() != len(oracle.global) || q.NumDocs() != len(docs) {
					t.Fatalf("%s: Len/NumDocs %d/%d, want %d/%d", path, q.Len(), q.NumDocs(), len(oracle.global), len(docs))
				}
				oracle.assertAnswersLike(t, path, q, pats, ops)
				assertSameAnswers(t, formats["built-mono"], q, pats)
			}
			if name == "high-bytes" {
				f := formats["mapped-mono"].(*Index).tree.Sections()
				if got := int(f.Sym[len(f.Sym)/2]); got != highByteRootRun {
					t.Fatalf("the root holds %d internal children, want %d", got, highByteRootRun)
				}
			}
		})
	}
}

// suffixArraySections is the image's independent oracle: SA-IS and Kasai
// share no code with vertical partitioning, the elastic range or the group
// sorts, and their suffix and LCP arrays over the terminated corpus,
// assembled as one tree (AssembleShards), must produce the sections of any ERA
// build of it.
func suffixArraySections(t *testing.T, data []byte) *suffixtree.Flat {
	t.Helper()
	sa, err := suffixarray.Build(data)
	if err != nil {
		t.Fatal(err)
	}
	shards, err := suffixtree.AssembleShards(data, sa, suffixarray.LCP(data, sa), 1, suffixtree.HeapSink{})
	if err != nil {
		t.Fatal(err)
	}
	return shards[0].Flat
}

// assertSectionsEqual compares a build's sections with the oracle's.
func assertSectionsEqual(t *testing.T, label string, got suffixtree.Flat, want *suffixtree.Flat) {
	t.Helper()
	if got.NNodes != want.NNodes || got.NLeaves != want.NLeaves {
		t.Fatalf("%s: %d nodes / %d leaves, the suffix array's tree has %d / %d", label, got.NNodes, got.NLeaves, want.NNodes, want.NLeaves)
	}
	if !bytes.Equal(got.Nodes, want.Nodes) || !bytes.Equal(got.Sym, want.Sym) || !bytes.Equal(got.LeafData, want.LeafData) {
		t.Fatalf("%s: the ERA build's sections differ from the suffix array's", label)
	}
}

// TestDirectV4ByteIdentical pins the image as a pure function of the string:
// every driver and worker count must emit the sections the suffix array
// spells, and serialize to the same bytes. Sub-trees complete in an order that
// varies with the workers and differs from the global label order, so this
// also locks in the canonical edge re-basing.
func TestDirectV4ByteIdentical(t *testing.T) {
	corpora := [][][]byte{
		diffCorpus(),
		{[]byte("GATTACAGATTACA")},
		{[]byte("TGGTGGTGGTGCGGTGATGGTGC"), []byte("AAAA"), []byte("C")},
	}
	for ci, docs := range corpora {
		var first, firstERA *Index
		var image []byte
		check := func(label string, cfg *Config) {
			label = fmt.Sprintf("corpus %d %s", ci, label)
			idx, err := BuildCorpus(docs, cfg)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			idx.SetName("direct")
			var got bytes.Buffer
			if _, err := idx.WriteTo(&got); err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if first == nil {
				assertSectionsEqual(t, label, idx.tree.Sections(), suffixArraySections(t, idx.data))
				first, image = idx, got.Bytes()
				return
			}
			if !bytes.Equal(got.Bytes(), image) {
				t.Fatalf("%s: image differs from the first build's (%d vs %d bytes)", label, got.Len(), len(image))
			}
			// Modeled time and scan counts are per-driver; the node count
			// must match every build exactly, and the sub-tree count — the
			// vertical partitioning's outcome — every other ERA driver's.
			if gw, ww := idx.Stats(), first.Stats(); gw.TreeNodes != ww.TreeNodes {
				t.Fatalf("%s: stats %+v, want %d tree nodes", label, gw, ww.TreeNodes)
			}
			if idx.Stats().InMemory {
				t.Fatalf("%s: a parallel mode was not built by ERA", label)
			}
			if firstERA == nil {
				firstERA = idx
			}
			if gw, ww := idx.Stats(), firstERA.Stats(); gw.SubTrees != ww.SubTrees {
				t.Fatalf("%s: stats %+v, want %d sub-trees", label, gw, ww.SubTrees)
			}
		}
		check("in-memory", &Config{})
		if !first.Stats().InMemory {
			t.Fatalf("corpus %d: the zero Config ran ERA over %d symbols", ci, first.Len())
		}
		for w := 1; w <= 8; w++ {
			check(fmt.Sprintf("shared-disk-%d", w), &Config{Mode: SharedDisk, Workers: w})
		}
		for _, w := range []int{2, 5} {
			check(fmt.Sprintf("shared-nothing-%d", w), &Config{Mode: SharedNothing, Workers: w})
		}
	}
}

// TestFlatImageAgainstSuffixArray holds the ERA build to suffixArraySections
// at a budget that makes ERA cut the same corpus into many sub-trees. The
// budget is also what keeps a serial build with ERA; the empty-docs corpus is
// small enough to fit it as a suffix array, so there the mode asks for ERA.
func TestFlatImageAgainstSuffixArray(t *testing.T) {
	for _, c := range []struct {
		name string
		mode Mode
		docs [][]byte
	}{
		{"diff-corpus", Serial, diffCorpus()},
		{"periodic", Serial, [][]byte{bytes.Repeat([]byte("ACGT"), 300), bytes.Repeat([]byte("AC"), 500), []byte("ACGTACG")}},
		{"one-symbol", Serial, [][]byte{bytes.Repeat([]byte("A"), 700), []byte("AAA")}},
		{"empty-docs", SharedDisk, shardEmptyDocsCorpus()},
	} {
		t.Run(c.name, func(t *testing.T) {
			idx, err := BuildCorpus(c.docs, &Config{MemoryBudget: 4 * 1024, Mode: c.mode, Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			if idx.Stats().InMemory {
				t.Fatalf("%d symbols at a 4 KiB budget were not built by ERA", idx.Len())
			}
			if idx.Stats().SubTrees < 2 {
				t.Fatalf("ERA built %d sub-tree: nothing for the assembly to join", idx.Stats().SubTrees)
			}
			assertSectionsEqual(t, c.name, idx.tree.Sections(), suffixArraySections(t, idx.data))
		})
	}
}

// TestV4WriteToRoundTrip checks that a mapped index persists itself back
// through WriteFile and reopens identically.
func TestV4WriteToRoundTrip(t *testing.T) {
	idx := openedFormats(t, diffCorpus())
	dir := t.TempDir()
	for _, name := range []string{"mapped-mono", "mapped-sharded"} {
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
		if err := idx.WriteFile(paths[i]); err != nil {
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
		if _, err := sx.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
	} else {
		idx, err := BuildCorpus(docs, nil)
		if err != nil {
			t.Fatal(err)
		}
		idx.SetName("fuzz4")
		if _, err := idx.WriteTo(&buf); err != nil {
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
		// The leaf section: misaligned, past the image, over the records
		// behind it; and the reserved field behind its offset.
		{"misaligned-leaves", func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[96:], binary.LittleEndian.Uint64(b[96:])+4)
			return b
		}},
		{"leaves-past-image", func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[96:], uint64(v4align(int64(len(b)))))
			return b
		}},
		{"leaves-overlap-nodes", func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[96:], binary.LittleEndian.Uint64(b[72:]))
			return b
		}},
		{"nodes-overlap-leaves", func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[72:], binary.LittleEndian.Uint64(b[96:]))
			return b
		}},
		{"reserved-104", func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[104:], 1)
			return b
		}},
		{"reserved-120", func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[120:], v4Page)
			return b
		}},
		// The leaf count decides the leaf section's length and how many
		// nodes are internal, so it is pinned to the one value it can have: a
		// leaf per symbol of S.
		{"leaves-past-nodes", func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[128:], binary.LittleEndian.Uint64(b[80:]))
			return b
		}},
		{"one-leaf-short", func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[128:], binary.LittleEndian.Uint64(b[128:])-1)
			return b
		}},
		{"compact-flag-clear", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[12:], v4FlagChecksums|v4FlagRankLeaves)
			return b
		}},
		{"rank-leaves-flag-clear", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[12:], v4FlagChecksums|v4FlagCompact)
			return b
		}},
		{"leaf-section-flag-clear", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[12:], v4FlagChecksums|v4Layout&^v4FlagLeafSection)
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
	// The records are 16 bytes: leafStart, leafCount, depth, childStart; the
	// symbol section holds the first symbols, then the child counts.
	const recSize = 16
	rec := func(s *v4sections, u int64) []byte { return s.nodes[u*recSize : u*recSize+recSize] }
	counts := func(s *v4sections) []byte { return s.sym[s.nNodes-s.nLeaves:] }
	// withRun returns the record of the first internal node below the root
	// that has internal children.
	withRun := func(t *testing.T, s *v4sections) (id uint32, r []byte) {
		for u := int64(1); u < s.nNodes-s.nLeaves; u++ {
			if counts(s)[u] > 0 {
				return uint32(u), rec(s, u)
			}
		}
		t.Fatal("no internal node below the root has internal children")
		return 0, nil
	}
	for _, c := range []struct {
		name, want string
		mutate     func(t *testing.T, img []byte, s *v4sections) []byte
	}{
		// The first two suffixes of the suffix array trade places: the
		// terminator's, a leaf of the root, and the first of the root's
		// internal child for the corpus's smallest symbol, whose edge now
		// starts with the terminator.
		{"swapped-leaves", "does not start its edge", func(t *testing.T, img []byte, s *v4sections) []byte {
			sa := s.leaves
			a := append([]byte(nil), sa[:4]...)
			copy(sa[:4], sa[4:8])
			copy(sa[4:8], a)
			return restampV4(img, "leaves")
		}},
		// One more node than the tree has, and two bytes more of image for
		// its symbol and count: the node section's window (and its checksum)
		// runs to the next section's start, so the padding supplies a record,
		// and only the structure pass sees that the symbol section no longer
		// splits where it did — the first symbols take in the root's child
		// count, and every count reads its successor's, the root's included.
		{"one-node-more", "not in strictly increasing symbol order", func(t *testing.T, img []byte, s *v4sections) []byte {
			binary.LittleEndian.PutUint64(img[80:], uint64(s.nNodes)+1)
			img = append(img, 0, 0)
			binary.LittleEndian.PutUint64(img[16:], uint64(len(img)))
			return restampV4(img, "sym")
		}},
		// Two parents claim the same run: the sibling after a node with
		// internal children points its run at that node's, which lies after
		// both of them.
		{"doubly-claimed-run", "an earlier run holds", func(t *testing.T, img []byte, s *v4sections) []byte {
			for u := int64(1); u+1 < s.nNodes-s.nLeaves; u++ {
				r, next := rec(s, u), rec(s, u+1)
				if counts(s)[u] > 0 && int64(binary.LittleEndian.Uint32(r[12:])) > u+1 {
					copy(next[12:16], r[12:16])
					counts(s)[u+1] = counts(s)[u]
					return restampV4(restampV4(img, "nodes"), "sym")
				}
			}
			t.Fatal("no node with internal children has a sibling after it")
			return nil
		}},
		// A node is its own first internal child: the one shape a descent
		// could follow forever, which is why the reader clamps it.
		{"run-at-its-parent", "is not after it", func(t *testing.T, img []byte, s *v4sections) []byte {
			id, r := withRun(t, s)
			binary.LittleEndian.PutUint32(r[12:], id)
			return restampV4(img, "nodes")
		}},
		// The root lets go of its first internal child, which no run holds
		// any more. Its ranks speak first: they now read as leaf children of
		// the root, all with the one first symbol.
		{"unclaimed-id", "not in strictly increasing symbol order", func(t *testing.T, img []byte, s *v4sections) []byte {
			r := rec(s, 0)
			binary.LittleEndian.PutUint32(r[12:], binary.LittleEndian.Uint32(r[12:])+1)
			counts(s)[0]--
			return restampV4(restampV4(img, "nodes"), "sym")
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			img := v4TestImage(t, false)
			s, err := parseV4Sections(img)
			if err != nil {
				t.Fatal(err)
			}
			assertVerifyRefuses(t, c.mutate(t, img, s), c.want)
		})
	}
}

// restampV4 recomputes the checksum of the named section of a monolithic
// image after a test edited it, so the structure pass is what sees the edit.
func restampV4(img []byte, name string) []byte {
	for i, sec := range v4MonoSections {
		if sec.name != name {
			continue
		}
		start, end := binary.LittleEndian.Uint64(img[sec.off:]), binary.LittleEndian.Uint64(img[16:])
		if i+1 < len(v4MonoSections) {
			end = binary.LittleEndian.Uint64(img[v4MonoSections[i+1].off:])
		}
		binary.LittleEndian.PutUint32(img[v4CRCTableOff+4*sec.slot:], crc32.Checksum(img[start:end], castagnoli))
		return img
	}
	panic("no section " + name)
}

// assertVerifyRefuses writes img, its header CRC restamped, to a file and
// requires Verify to report a problem that says want. Opening does not run the
// structure pass: whatever the image answers, it answers without a panic or a
// hang.
func assertVerifyRefuses(t *testing.T, img []byte, want string) {
	t.Helper()
	p := filepath.Join(t.TempDir(), "refused.idx")
	if err := os.WriteFile(p, fixV4HeaderCRC(img), 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err := Verify(p)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() || !strings.Contains(strings.Join(rep.Problems, "\n"), want) {
		t.Fatalf("Verify: problems %q, want one that says %q", rep.Problems, want)
	}
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
}

// TestFlatImageBytesPerSymbol pins what the layout is for: an image of
// 128 Ki symbols costs at most 20.5 bytes per symbol on disk for DNA and 17
// for English — 19.57 and 16.13 measured, with 16-byte internal records, two
// symbol bytes per internal node and the suffix array in a section of its own
// (19.54 and 16.10 with it behind the records; the 32-byte records that
// stated their edges cost 31.55 and 25.24, the layout with 8-byte leaf records
// and leaf blocks 39.5 and 33.2, the one before it 63 and 76).
func TestFlatImageBytesPerSymbol(t *testing.T) {
	const n = 128 << 10
	for kind, limit := range map[workload.Kind]float64{workload.DNA: 20.5, workload.English: 17} {
		data := workload.MustGenerate(kind, n, 7)
		idx, err := Build(data[:len(data)-1], nil)
		if err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(t.TempDir(), string(kind)+".idx")
		if err := idx.WriteFile(p); err != nil {
			t.Fatal(err)
		}
		info, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		if per := float64(info.Size()) / float64(idx.Len()); per > limit {
			t.Errorf("%s: %d-byte image over %d symbols = %.2f B per symbol, want ≤ %.1f", kind, info.Size(), idx.Len(), per, limit)
		} else {
			t.Logf("%s: %.2f B per symbol", kind, per)
		}
	}
}

// TestRangeImages pins the prefix-range layout: a shard's image round-trips
// with its range, its fingerprint is the header checksum whether computed or
// stored, and era.Verify checks that the tree holds exactly the suffixes of
// the range its meta states. A range flag on a whole image, a whole image's
// leaf count on a range image, and a sharded image whose ranges do not tile
// the suffix order are refused at open.
func TestRangeImages(t *testing.T) {
	docs := diffCorpus()
	mono, err := BuildCorpus(docs, nil)
	if err != nil {
		t.Fatal(err)
	}
	sx, err := BuildShardedCorpus(docs, &ShardConfig{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	write := func(name string, q interface{ WriteFile(string) error }) string {
		p := filepath.Join(dir, name)
		if err := q.WriteFile(p); err != nil {
			t.Fatal(err)
		}
		return p
	}
	for i := 0; i < sx.NumShards(); i++ {
		sh, _ := sx.Shard(i)
		p := write(fmt.Sprintf("shard%d.idx", i), sh)
		rep, err := Verify(p)
		if err != nil || !rep.OK() {
			t.Fatalf("Verify(shard %d): %v, %v", i, rep, err)
		}
		q, err := OpenIndex(p)
		if err != nil {
			t.Fatal(err)
		}
		back := q.(*Index)
		lo, hi := back.Range()
		if wlo, whi := sh.Range(); !bytes.Equal(lo, wlo) || !bytes.Equal(hi, whi) || len(lo)+len(hi) == 0 {
			t.Errorf("shard %d reopened with range [%q, %q), built with [%q, %q)", i, lo, hi, wlo, whi)
		}
		if back.Fingerprint() != sh.Fingerprint() {
			t.Errorf("shard %d: stored fingerprint %08x, computed %08x", i, back.Fingerprint(), sh.Fingerprint())
		}
		q.Close()

		// The same tree under another shard's range: its checksums are good,
		// its leaves are not that range's suffixes.
		other, _ := sx.Shard((i + 1) % sx.NumShards())
		bad := *sh
		bad.lo, bad.hi = other.Range()
		if rep, err := Verify(write("misranged.idx", &bad)); err != nil || rep.OK() || !strings.Contains(strings.Join(rep.Problems, "\n"), "in range") {
			t.Errorf("Verify of shard %d under shard %d's range: %v, %v; want a range problem", i, (i+1)%sx.NumShards(), rep, err)
		}
	}
	if first, _ := sx.Shard(0); mono.Fingerprint() == first.Fingerprint() {
		t.Error("the whole image and a shard fingerprint alike")
	}

	refused := func(name string, img []byte) {
		t.Helper()
		if _, err := ReadQueryable(bytes.NewReader(fixV4HeaderCRC(img))); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	var whole bytes.Buffer
	if _, err := mono.WriteTo(&whole); err != nil {
		t.Fatal(err)
	}
	img := whole.Bytes()
	binary.LittleEndian.PutUint32(img[12:], binary.LittleEndian.Uint32(img[12:])|v4FlagRange)
	refused("a whole image flagged as a range", img)

	sh, _ := sx.Shard(1)
	var part bytes.Buffer
	if _, err := sh.WriteTo(&part); err != nil {
		t.Fatal(err)
	}
	img = part.Bytes()
	binary.LittleEndian.PutUint32(img[12:], binary.LittleEndian.Uint32(img[12:])&^v4FlagRange)
	refused("a range image without its flag", img)

	var sharded bytes.Buffer
	if _, err := sx.WriteTo(&sharded); err != nil {
		t.Fatal(err)
	}
	img = sharded.Bytes()
	table := binary.LittleEndian.Uint64(img[40:])
	swapped := append([]byte(nil), img[table:table+16]...)
	copy(img[table:table+16], img[table+16:table+32])
	copy(img[table+16:table+32], swapped)
	binary.LittleEndian.PutUint32(img[v4CRCTableOff+4:], crcPadded(img[table:table+16*uint64(sx.NumShards())], int64(v4align(int64(table)+16*int64(sx.NumShards()))-int64(table))))
	if _, err := ReadQueryable(bytes.NewReader(fixV4HeaderCRC(img))); err == nil || !strings.Contains(err.Error(), "range") {
		t.Errorf("a sharded image with two shards swapped: %v, want a range error", err)
	}
}
