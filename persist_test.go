package era

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// persistTestIndex builds a small corpus index and returns its serialized
// v2 bytes plus the byte offsets of the nDocs field and the first docEnds
// entry, for targeted corruption.
func persistTestIndex(t testing.TB) (raw []byte, nDocsOff, docEndsOff int) {
	t.Helper()
	idx, err := BuildCorpus([][]byte{
		[]byte("GATTACAGATTACA"),
		[]byte("CATTAGA"),
		[]byte("TTTT"),
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	idx.SetName("corrupt-me")
	var buf bytes.Buffer
	if _, err := idx.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	raw = buf.Bytes()
	// Header layout (v2): magic, version, nameLen+name, aNameLen+aName,
	// nSyms+syms, nDocs, docEnds...
	off := 8
	nameLen := int(binary.LittleEndian.Uint32(raw[off:]))
	off += 4 + nameLen
	aNameLen := int(binary.LittleEndian.Uint32(raw[off:]))
	off += 4 + aNameLen
	nSyms := int(binary.LittleEndian.Uint32(raw[off:]))
	off += 4 + nSyms
	return raw, off, off + 4
}

// corrupt returns a copy of raw with the uint32 at off overwritten.
func corrupt(raw []byte, off int, v uint32) []byte {
	out := append([]byte(nil), raw...)
	binary.LittleEndian.PutUint32(out[off:], v)
	return out
}

// TestReadIndexValidBaseline guards the offset arithmetic of the corruption
// tests: the unmodified bytes must load.
func TestReadIndexValidBaseline(t *testing.T) {
	raw, nDocsOff, _ := persistTestIndex(t)
	if got := binary.LittleEndian.Uint32(raw[nDocsOff:]); got != 3 {
		t.Fatalf("nDocs field = %d at offset %d, want 3 (offset arithmetic broken)", got, nDocsOff)
	}
	idx, err := ReadIndex(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if idx.NumDocs() != 3 || idx.Name() != "corrupt-me" {
		t.Fatalf("baseline index = %d docs %q", idx.NumDocs(), idx.Name())
	}
}

// TestReadIndexRejectsCorruptDocEnds pins the bugfix: docEnds read from
// disk are validated, so non-monotone values, offsets past the string, or a
// zero document count fail with a clean error instead of making docOf,
// DocOccurrences or LongestCommonSubstring panic or mis-attribute hits.
func TestReadIndexRejectsCorruptDocEnds(t *testing.T) {
	raw, nDocsOff, docEndsOff := persistTestIndex(t)

	cases := []struct {
		name string
		data []byte
	}{
		{"non-monotone", corrupt(raw, docEndsOff+4, 2)},      // doc1 ends before doc0's 14
		{"past-data-len", corrupt(raw, docEndsOff+8, 1<<30)}, // last doc end beyond the string
		{"negative-after-cast", corrupt(raw, docEndsOff, 0xFFFFFFF0)},
		{"not-covering", corrupt(raw, docEndsOff+8, 24)}, // last end != dataLen-1 (25)
		{"zero-docs", append(corrupt(raw[:nDocsOff+4], nDocsOff, 0), raw[docEndsOff+12:]...)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			idx, err := ReadIndex(bytes.NewReader(c.data))
			if err == nil {
				// The reader accepted it; the old failure mode was a panic
				// at query time — make the regression loud either way.
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("query on corrupt index panicked: %v", r)
					}
				}()
				idx.DocOccurrences([]byte("ATTA"))
				idx.LongestCommonSubstring(0, idx.NumDocs()-1)
				t.Fatal("corrupt docEnds accepted by ReadIndex")
			}
		})
	}
}

// TestReadIndexRejectsCorruptTree covers the tree-side validation: link and
// offset corruption inside the serialized suffix tree fails at load, not as
// a panic on the first descent.
func TestReadIndexRejectsCorruptTree(t *testing.T) {
	raw, _, _ := persistTestIndex(t)
	// The tree serialization is the tail of the stream: magic 'ERAT' then
	// version, strLen, nNodes, nodes. Find it and break a node link.
	treeMagic := []byte{0x54, 0x41, 0x52, 0x45} // 'ERAT' little-endian
	treeOff := bytes.LastIndex(raw, treeMagic)
	if treeOff < 0 {
		t.Fatal("tree magic not found")
	}
	nodesOff := treeOff + 16
	cases := []struct {
		name string
		off  int // byte offset within node 0 (the root)'s record
		v    uint32
	}{
		{"child-out-of-range", 12, 1 << 20}, // firstChild far past nNodes
		{"negative-child", 12, 0x80000001},
		{"edge-past-string", 4 + 24, 1 << 28}, // node 1's end offset
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			data := corrupt(raw, nodesOff+c.off, c.v)
			if _, err := ReadIndex(bytes.NewReader(data)); err == nil {
				t.Fatal("corrupt tree accepted by ReadIndex")
			}
		})
	}
}

// FuzzReadIndex feeds arbitrary bytes — seeded with valid v2 and v3 index
// images and targeted corruptions — through the index readers. The readers
// must never panic or over-allocate, and anything they accept must answer
// queries without panicking (ReadQueryable exercises the v3 manifest path
// on top of ReadIndex).
func FuzzReadIndex(f *testing.F) {
	idx, err := BuildCorpus([][]byte{[]byte("GATTACA"), []byte("TAGACAT")}, nil)
	if err != nil {
		f.Fatal(err)
	}
	idx.SetName("fuzz")
	var v2 bytes.Buffer
	if _, err := idx.WriteTo(&v2); err != nil {
		f.Fatal(err)
	}
	sx, err := BuildShardedCorpus([][]byte{[]byte("GATTACA"), []byte("TAGACAT"), []byte("TTTT")}, &ShardConfig{Shards: 2})
	if err != nil {
		f.Fatal(err)
	}
	var v3 bytes.Buffer
	if _, err := sx.WriteTo(&v3); err != nil {
		f.Fatal(err)
	}

	v4 := v4TestImage(f, false)
	v4s := v4TestImage(f, true)

	f.Add(v2.Bytes())
	f.Add(v3.Bytes())
	f.Add(v2.Bytes()[:16])                // truncated header
	f.Add(corrupt(v2.Bytes(), 4, 99))     // unsupported version
	f.Add(corrupt(v2.Bytes(), 8, 1<<31))  // hostile name length
	f.Add(corrupt(v3.Bytes(), 16, 1<<31)) // hostile shard count (name "fuzz")
	f.Add(bytes.Repeat([]byte{0x49}, 64)) // garbage
	f.Add([]byte{0x49, 0x41, 0x52, 0x45}) // magic only
	f.Add(v4)                             // valid mapped-format image
	f.Add(v4s)                            // valid sharded mapped-format image
	f.Add(v4[:v4HeaderLen])               // header-only (truncated sections)
	f.Add(v4[:len(v4)/2])                 // truncated mid-section
	f.Add(corrupt(v4, 8, 7))              // unknown kind
	f.Add(corrupt(v4, 72, 4097))          // misaligned node section
	f.Add(corrupt(v4, 80, 1<<30))         // hostile node count
	f.Add(corrupt(v4, 128, 1<<30))        // hostile leaf count
	f.Add(corrupt(v4s, 48, 1<<20))        // hostile v4 shard count
	// Valid sections, corrupted node payload: the reader accepts it (open is
	// O(header) by design) and the query-time clamps must hold.
	if nodesOff := binary.LittleEndian.Uint64(v4[72:]); int(nodesOff)+64 < len(v4) {
		f.Add(corrupt(v4, int(nodesOff)+12, 0xFFFFFFF0)) // root childStart
		f.Add(corrupt(v4, int(nodesOff)+16, 0xFFFFFFF0)) // root leafStart
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) > 1<<16 {
			t.Skip()
		}
		got, err := ReadQueryable(bytes.NewReader(raw))
		if err != nil {
			return
		}
		// Accepted: every query path must hold up.
		for _, p := range [][]byte{[]byte("A"), []byte("GATT"), []byte("$"), nil} {
			got.Contains(p)
			got.Count(p)
			got.Occurrences(p)
			got.DocOccurrences(p)
		}
		got.Batch([]Op{
			{Kind: OpCount, Pattern: []byte("TA")},
			{Kind: OpOccurrences, Pattern: []byte("A"), MaxOccurrences: 3},
		})
	})
}
