package era

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// persistTestIndex builds a small corpus index and returns its serialized
// image plus the byte offsets of the header's nDocs field and of the first
// docEnds entry, for targeted corruption.
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
	return raw, 64, int(binary.LittleEndian.Uint64(raw[56:]))
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
	raw, nDocsOff, docEndsOff := persistTestIndex(t)
	if got := binary.LittleEndian.Uint64(raw[nDocsOff:]); got != 3 {
		t.Fatalf("nDocs field = %d at offset %d, want 3 (offset arithmetic broken)", got, nDocsOff)
	}
	if got := binary.LittleEndian.Uint32(raw[docEndsOff:]); got != 14 {
		t.Fatalf("first doc end = %d at offset %d, want 14 (offset arithmetic broken)", got, docEndsOff)
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
// zero document count fail with a clean error instead of making docBytes,
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
		{"zero-docs", fixV4HeaderCRC(corrupt(raw, nDocsOff, 0))},
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

// TestReadIndexRejectsCorruptTree covers the tree side: link and offset
// corruption inside the node records, out of every range the reader clamps
// to, is reported by Verify — and is not a panic on the first descent.
func TestReadIndexRejectsCorruptTree(t *testing.T) {
	cases := []struct {
		name string
		off  int // byte offset within the node section; record 0 is the root
		v    uint32
		want string
	}{
		{"child-out-of-range", 8, 1 << 20, "child run"}, // first internal child far past the nodes
		{"negative-child", 8, 0x80000001, "child run"},
		{"edge-past-string", 32 + 4, 1 << 28, "edge"}, // node 1's end offset
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			raw, _, _ := persistTestIndex(t)
			img := corrupt(raw, int(binary.LittleEndian.Uint64(raw[72:]))+c.off, c.v)
			restampV4Nodes(img)
			assertVerifyRefuses(t, img, c.want)
		})
	}
}

// legacyHeader is all of a v1–v3 file that is ever looked at.
func legacyHeader(version uint32) []byte {
	return binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint32(nil, indexMagic), version)
}

// TestLegacyFormatsRefused: the formats before v4 have no reader. Every way
// in refuses a v1, v2 or v3 header with ErrMustRebuild and a message naming
// the version; a header cut short is an error too — never a panic, never an
// index.
func TestLegacyFormatsRefused(t *testing.T) {
	dir := t.TempDir()
	for _, c := range []struct {
		name    string
		raw     []byte
		rebuild bool
	}{
		{"v1", legacyHeader(1), true},
		{"v2", append(legacyHeader(2), "\x04\x00\x00\x00name and then a body nobody parses"...), true},
		{"v3", legacyHeader(3), true},
		{"truncated", legacyHeader(2)[:6], false},
	} {
		t.Run(c.name, func(t *testing.T) {
			check := func(via string, err error) {
				t.Helper()
				if err == nil {
					t.Fatalf("%s accepted the file", via)
				}
				if c.rebuild && (!errors.Is(err, ErrMustRebuild) || !strings.Contains(err.Error(), "format "+c.name)) {
					t.Errorf("%s: %v, want ErrMustRebuild naming format %s", via, err, c.name)
				}
				if !c.rebuild && errors.Is(err, ErrMustRebuild) {
					t.Errorf("%s: %v: a torn header is damage, not age", via, err)
				}
			}
			_, err := ReadQueryable(bytes.NewReader(c.raw))
			check("ReadQueryable", err)
			_, err = ReadIndex(bytes.NewReader(c.raw))
			check("ReadIndex", err)
			p := filepath.Join(dir, c.name+".idx")
			if err := os.WriteFile(p, c.raw, 0o644); err != nil {
				t.Fatal(err)
			}
			_, err = OpenIndex(p)
			check("OpenIndex", err)
			rep, err := Verify(p)
			if err != nil {
				t.Fatal(err)
			}
			if problems := strings.Join(rep.Problems, "\n"); rep.OK() || (c.rebuild && !strings.Contains(problems, "format "+c.name)) {
				t.Errorf("Verify: problems %q, want one naming format %s", problems, c.name)
			}
		})
	}
}

// FuzzReadIndex feeds arbitrary bytes — seeded with valid monolithic and
// sharded images, targeted corruptions of them and the headers of the
// retired formats — through the index readers. The readers must never panic
// or over-allocate, and anything they accept must answer queries without
// panicking.
func FuzzReadIndex(f *testing.F) {
	v4 := v4TestImage(f, false)
	v4s := v4TestImage(f, true)

	f.Add(legacyHeader(1))
	f.Add(legacyHeader(2))
	f.Add(legacyHeader(3))
	f.Add(append(legacyHeader(2), 0, 0, 0, 0x80)) // what was a hostile v2 name length
	f.Add(corrupt(v4, 4, 99))                     // unsupported version
	f.Add(corrupt(v4, 12, 0))                     // no flags: an image from before checksums
	f.Add(bytes.Repeat([]byte{0x49}, 64))         // garbage
	f.Add([]byte{0x49, 0x41, 0x52, 0x45})         // magic only
	f.Add(v4)                                     // valid image
	f.Add(v4s)                                    // valid sharded image
	f.Add(v4[:v4HeaderLen])                       // header-only (truncated sections)
	f.Add(v4[:len(v4)/2])                         // truncated mid-section
	f.Add(corrupt(v4, 8, 7))                      // unknown kind
	f.Add(corrupt(v4, 72, 4097))                  // misaligned node section
	f.Add(corrupt(v4, 80, 1<<30))                 // hostile node count
	f.Add(corrupt(v4, 128, 1<<30))                // hostile leaf count
	f.Add(corrupt(v4s, 48, 1<<20))                // hostile shard count
	// Valid sections, corrupted node payload: the reader accepts it (open is
	// O(header) by design) and the query-time clamps must hold.
	if nodesOff := binary.LittleEndian.Uint64(v4[72:]); int(nodesOff)+64 < len(v4) {
		f.Add(corrupt(v4, int(nodesOff)+12, 0xFFFFFFF0)) // root leafChild
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
