package era

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"era/internal/vfs"
	"era/internal/workload"
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
		{"child-out-of-range", 12, 1 << 20, "child run"}, // first internal child far past the nodes
		{"negative-child", 12, 0x80000001, "child run"},
		{"edge-past-string", 16 + 8, 1 << 28, "past the"}, // node 1's depth: its edge runs past S
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			raw, _, _ := persistTestIndex(t)
			img := corrupt(raw, int(binary.LittleEndian.Uint64(raw[72:]))+c.off, c.v)
			assertVerifyRefuses(t, restampV4(img, "nodes"), c.want)
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
	// The leaf section's seams, each behind a restamped header checksum so
	// the section table is what refuses it.
	leavesOff := binary.LittleEndian.Uint32(v4[96:])
	f.Add(fixV4HeaderCRC(corrupt(v4, 96, leavesOff+4)))                                 // misaligned leaf section
	f.Add(fixV4HeaderCRC(corrupt(v4, 96, uint32(v4align(int64(len(v4)))))))             // leaf section past the image
	f.Add(fixV4HeaderCRC(corrupt(v4, 96, binary.LittleEndian.Uint32(v4[72:]))))         // leaf section over the records
	f.Add(fixV4HeaderCRC(corrupt(v4, 104, 1)))                                          // a reserved field set
	f.Add(fixV4HeaderCRC(corrupt(v4, 12, v4FlagChecksums|v4Layout&^v4FlagLeafSection))) // no leaf-section flag
	f.Add(fixV4HeaderCRC(corrupt(v4, 128, binary.LittleEndian.Uint32(v4[128:])-1)))     // one leaf short
	// Valid sections, corrupted node and leaf payloads: the reader accepts
	// them (open is O(header) by design) and the query-time clamps must hold.
	if nodesOff := binary.LittleEndian.Uint64(v4[72:]); int(nodesOff)+64 < len(v4) {
		f.Add(corrupt(v4, int(nodesOff)+12, 0xFFFFFFF0)) // root childStart
		f.Add(corrupt(v4, int(nodesOff), 0xFFFFFFF0))    // root leafStart
	}
	f.Add(corrupt(v4, int(leavesOff), 0xFFFFFFF0)) // a suffix past S
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

// TestWriteFileReplacesAMappedImage: WriteFile over the path of an open index
// replaces the file by rename, so the open index keeps answering from the
// image it mapped, the path then opens to the new index, and no tmp file is
// left behind.
func TestWriteFileReplacesAMappedImage(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "x.idx")
	content := func(n int, seed int64) []byte {
		data := workload.MustGenerate(workload.DNA, n, seed)
		return data[:len(data)-1] // Build appends the terminator
	}
	small, err := Build(content(64<<10, 1), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := small.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	open, err := OpenIndex(path)
	if err != nil {
		t.Fatal(err)
	}
	defer open.Close()
	pattern := []byte("GATTA")
	want := open.Count(pattern)
	if want != small.Count(pattern) || want == 0 {
		t.Fatalf("the opened index counts %q %d times, the built one %d", pattern, want, small.Count(pattern))
	}
	large, err := Build(content(256<<10, 2), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := large.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	if got := open.Count(pattern); got != want {
		t.Fatalf("after a rewrite of its file the open index counts %q %d times, want %d", pattern, got, want)
	}
	reopened, err := OpenIndex(path)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if got, want := reopened.Count(pattern), large.Count(pattern); got != want {
		t.Fatalf("the rewritten file counts %q %d times, the index written %d", pattern, got, want)
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 1 {
		t.Fatalf("the directory holds %v (%v), want only x.idx", entries, err)
	}
}

// imageFingerprints names the image q was opened from or would write: one
// header CRC for a monolithic index, one per shard for a sharded one.
func imageFingerprints(q Queryable) []uint32 {
	switch x := q.(type) {
	case *Index:
		return []uint32{x.Fingerprint()}
	case *ShardedIndex:
		fps := make([]uint32, x.NumShards())
		for i := range fps {
			sh, _ := x.Shard(i)
			fps[i] = sh.Fingerprint()
		}
		return fps
	}
	return nil
}

// TestWriteFileCrashPoints crashes publishFile — the one way an index file,
// a live tier or a live manifest reaches disk — at each of its filesystem
// operations in turn, clean kills and torn writes alternating, over an image
// already at path. path must then open to the old image or the new one,
// never fail, and a following fault-free WriteFile must land the new image
// and leave no tmp file behind. A failed Sync must come back as the write's
// error with the old image still at path and no tmp left.
func TestWriteFileCrashPoints(t *testing.T) {
	docs := func(seed int64) [][]byte {
		data := workload.MustGenerate(workload.DNA, 4<<10, seed)
		return [][]byte{data[:1500], data[1500 : len(data)-1]}
	}
	type image interface {
		Queryable
		io.WriterTo
	}
	kinds := []struct {
		name  string
		build func(docs [][]byte) (image, error)
	}{
		{"mono", func(docs [][]byte) (image, error) { return BuildCorpus(docs, nil) }},
		{"sharded", func(docs [][]byte) (image, error) {
			return BuildShardedCorpus(docs, &ShardConfig{Shards: 3})
		}},
	}
	for _, kind := range kinds {
		t.Run(kind.name, func(t *testing.T) {
			old, err := kind.build(docs(1))
			if err != nil {
				t.Fatal(err)
			}
			next, err := kind.build(docs(2))
			if err != nil {
				t.Fatal(err)
			}
			oldFP, nextFP := imageFingerprints(old), imageFingerprints(next)
			withOld := func(t *testing.T) string {
				path := filepath.Join(t.TempDir(), "x.idx")
				if err := old.WriteFile(path); err != nil {
					t.Fatalf("writing the old image: %v", err)
				}
				return path
			}
			// opens reports which image path opens to: true for the new one.
			opens := func(t *testing.T, path string) bool {
				t.Helper()
				q, err := OpenIndex(path)
				if err != nil {
					t.Fatalf("path no longer opens: %v", err)
				}
				defer q.Close()
				switch got := imageFingerprints(q); {
				case slices.Equal(got, oldFP):
					return false
				case slices.Equal(got, nextFP):
					return true
				default:
					t.Fatalf("path holds image %x, neither the old %x nor the new %x", got, oldFP, nextFP)
					return false
				}
			}
			noTmp := func(t *testing.T, path string) {
				t.Helper()
				if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
					t.Fatalf("%s.tmp left behind (stat: %v)", path, err)
				}
			}

			rehearse := vfs.NewFault(nil)
			path := withOld(t)
			if err := publishFile(rehearse, path, next); err != nil {
				t.Fatalf("rehearsal: %v", err)
			}
			if !opens(t, path) {
				t.Fatal("rehearsal left the old image at path")
			}
			n := rehearse.Ops()
			var sawOld, sawNew bool
			for k := 1; k <= n; k++ {
				t.Run(fmt.Sprintf("crash@%02d", k), func(t *testing.T) {
					path := withOld(t)
					ffs := vfs.NewFault(nil)
					ffs.ShortCrashWrites(k%2 == 1)
					ffs.CrashAt(k)
					if err := publishFile(ffs, path, next); !errors.Is(err, vfs.ErrCrashed) {
						t.Fatalf("publishFile crashed at op %d of %d returned %v", k, n, err)
					}
					if opens(t, path) {
						sawNew = true
					} else {
						sawOld = true
					}
					if err := next.WriteFile(path); err != nil {
						t.Fatalf("WriteFile after the crash: %v", err)
					}
					if !opens(t, path) {
						t.Fatal("WriteFile after the crash left the old image at path")
					}
					noTmp(t, path)
				})
			}
			if !sawOld || !sawNew {
				t.Errorf("over %d crash points the old image survived: %v, the new one landed: %v; want both", n, sawOld, sawNew)
			}

			t.Run("sync-fails", func(t *testing.T) {
				path := withOld(t)
				ffs := vfs.NewFault(nil)
				ffs.FailOp(vfs.OpSync, 1)
				if err := publishFile(ffs, path, next); !errors.Is(err, vfs.ErrInjected) {
					t.Fatalf("publishFile with a failing Sync returned %v, want the injected fault", err)
				}
				if opens(t, path) {
					t.Fatal("a write whose Sync failed replaced the old image")
				}
				noTmp(t, path)
			})

			// The tmp is publishFile's own business: a failure to create it
			// names the file the caller asked for.
			t.Run("create-fails", func(t *testing.T) {
				path := withOld(t)
				ffs := vfs.NewFault(nil)
				ffs.FailOp(vfs.OpCreate, 1)
				err := publishFile(ffs, path, next)
				if !errors.Is(err, vfs.ErrInjected) || !strings.Contains(err.Error(), path) || strings.Contains(err.Error(), path+".tmp") {
					t.Fatalf("publishFile with a failing Create returned %v, want the injected fault naming %s and not its tmp", err, path)
				}
				if opens(t, path) {
					t.Fatal("a write whose Create failed replaced the old image")
				}
			})
		})
	}
}
