package era

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// fixtureDocs is the corpus behind every committed fixture image.
func fixtureDocs() [][]byte {
	return [][]byte{
		[]byte("GATTACAGATTACAGATTACA"),
		[]byte("CCCGATTACACCCGGGTTTAAA"),
		[]byte("ACGTACGTACGTACGTACGT"),
		[]byte("TTAGGGTTAGGGTTAGGG"),
	}
}

// copyLiveFixture copies a committed live directory (manifest, its one tier,
// WAL) into a temporary one: opening a live directory repairs it in place.
func copyLiveFixture(t *testing.T, src string) string {
	t.Helper()
	dir := t.TempDir()
	for _, name := range []string{liveManifestName, fmt.Sprintf(liveTierPattern, 0), walName} {
		buf, err := os.ReadFile(filepath.Join(src, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), buf, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestRegenerateFixtures rewrites the committed images under
// testdata/fixtures — the corpus the CI `era verify` gate runs against, so
// format changes that break old images are caught by a real file, not a
// fresh in-test build. Gated behind ERA_REGEN_FIXTURES=1: run it exactly
// when the on-disk format legitimately changes, and commit the result.
func TestRegenerateFixtures(t *testing.T) {
	if os.Getenv("ERA_REGEN_FIXTURES") != "1" {
		t.Skip("set ERA_REGEN_FIXTURES=1 to rewrite testdata/fixtures")
	}
	docs := fixtureDocs()
	dir := filepath.Join("testdata", "fixtures")
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}

	mono, err := BuildCorpus(docs, nil)
	if err != nil {
		t.Fatal(err)
	}
	mono.SetName("fixture-mono")
	if err := mono.WriteFile(filepath.Join(dir, "mono.idx")); err != nil {
		t.Fatal(err)
	}

	sharded, err := BuildShardedCorpus(docs, &ShardConfig{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	sharded.SetName("fixture-sharded")
	if err := sharded.WriteFile(filepath.Join(dir, "sharded.idx")); err != nil {
		t.Fatal(err)
	}

	// A live directory mid-flight: one sealed tier, one tombstone, and
	// unsealed documents living only in the WAL.
	ldir := filepath.Join(dir, "live")
	lx, err := NewLive("fixture-live", &LiveConfig{Dir: ldir, MemtableMaxDocs: 2})
	if err != nil {
		t.Fatal(err)
	}
	ids, err := lx.Append(docs[:2]) // seals into a tier
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lx.Delete(ids[1]); err != nil {
		t.Fatal(err)
	}
	if _, err := lx.Append(docs[2:3]); err != nil { // stays in the WAL
		t.Fatal(err)
	}
	// No Close: closing would seal the memtable and rotate the log, erasing
	// the mid-flight state. The process exit releases the mappings.

	for _, p := range []string{
		filepath.Join(dir, "mono.idx"),
		filepath.Join(dir, "sharded.idx"),
		ldir,
	} {
		rep, err := Verify(p)
		if err != nil {
			t.Fatalf("verifying fresh fixture %s: %v", p, err)
		}
		if !rep.OK() {
			t.Fatalf("fresh fixture %s unhealthy: %v", p, rep.Problems)
		}
	}
}

// TestCommittedImagesServed holds the committed images to what a build of
// their corpus answers today. testdata/fixtures is what this tree writes,
// byte for byte (a stale fixture fails here, not at the next format change),
// a mono, a sharded and a live image; testdata/bfs-numbered/mono.idx was
// written before node ids followed completion order — same records, same
// sections, same byte count, other numbering — and must keep verifying and
// answering, since nothing in the format says which order a writer numbered
// the nodes in. (Its sharded.idx is cut at document boundaries, which is
// refused: TestDocumentAlignedImageRefused.)
func TestCommittedImagesServed(t *testing.T) {
	docs := fixtureDocs()
	mono, err := BuildCorpus(docs, nil)
	if err != nil {
		t.Fatal(err)
	}
	mono.SetName("fixture-mono")
	var fresh bytes.Buffer
	if _, err := mono.WriteTo(&fresh); err != nil {
		t.Fatal(err)
	}
	// The live fixture holds documents 0 and 2: document 1 was deleted.
	live, err := BuildCorpus([][]byte{docs[0], docs[2]}, nil)
	if err != nil {
		t.Fatal(err)
	}

	for _, c := range []struct {
		dir           string
		current, live bool
		images        []string
	}{{"fixtures", true, true, []string{"mono.idx", "sharded.idx"}}, {"bfs-numbered", false, false, []string{"mono.idx"}}} {
		t.Run(c.dir, func(t *testing.T) {
			dir := filepath.Join("testdata", c.dir)
			verified := c.images
			if c.live {
				verified = append(verified, "live")
			}
			for _, name := range verified {
				rep, err := Verify(filepath.Join(dir, name))
				if err != nil {
					t.Fatal(err)
				}
				if !rep.OK() {
					t.Errorf("Verify(%s): %v", name, rep.Problems)
				}
			}
			img, err := os.ReadFile(filepath.Join(dir, "mono.idx"))
			if err != nil {
				t.Fatal(err)
			}
			if same := bytes.Equal(img, fresh.Bytes()); len(img) != fresh.Len() || same != c.current {
				t.Errorf("mono.idx: %d bytes against a fresh image's %d, byte-identical: %v, want %v",
					len(img), fresh.Len(), same, c.current)
			}
			for _, name := range c.images {
				q, err := OpenIndex(filepath.Join(dir, name))
				if err != nil {
					t.Fatal(err)
				}
				defer q.Close()
				assertSameAnswers(t, mono, q, shardTestPatterns(docs, 5))
				// A writer emits the sections it holds, so an opened image —
				// however its nodes are numbered — writes back byte for byte.
				back := filepath.Join(t.TempDir(), name)
				if err := q.WriteFile(back); err != nil {
					t.Fatal(err)
				}
				want, _ := os.ReadFile(filepath.Join(dir, name))
				if got, _ := os.ReadFile(back); !bytes.Equal(got, want) {
					t.Errorf("%s written back is %d bytes, not the %d it was opened from", name, len(got), len(want))
				}
			}
			if !c.live {
				return
			}
			lx, err := NewLive("", &LiveConfig{Dir: copyLiveFixture(t, filepath.Join(dir, "live"))})
			if err != nil {
				t.Fatal(err)
			}
			defer lx.Close()
			if q := lx.Stats().Quarantined; len(q) != 0 {
				t.Fatalf("the live fixture's tier was quarantined: %v", q)
			}
			assertSameAnswers(t, live, lx, shardTestPatterns([][]byte{docs[0], docs[2]}, 5))
		})
	}
}

// TestDocumentAlignedImageRefused: testdata/bfs-numbered/sharded.idx was
// written when shards were runs of documents, each a whole tree over its own
// documents. No reader for that layout is kept — its shards are not ranges of
// the suffix order, so the merge would be wrong — and every entry point
// refuses it with ErrMustRebuild, saying why: open, read from a stream and
// verify.
func TestDocumentAlignedImageRefused(t *testing.T) {
	const want = "cut at document boundaries"
	p := filepath.Join("testdata", "bfs-numbered", "sharded.idx")
	if q, err := OpenIndex(p); err == nil {
		q.Close()
		t.Error("OpenIndex accepted a document-aligned sharded image")
	} else if !errors.Is(err, ErrMustRebuild) || !strings.Contains(err.Error(), want) {
		t.Errorf("OpenIndex: %v, want an ErrMustRebuild that says the image is %s", err, want)
	}
	buf, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ReadQueryable(bytes.NewReader(buf)); !errors.Is(err, ErrMustRebuild) || !strings.Contains(err.Error(), want) {
		t.Errorf("ReadQueryable: %v, want an ErrMustRebuild that says the image is %s", err, want)
	}
	rep, err := Verify(p)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() || !strings.Contains(strings.Join(rep.Problems, "\n"), want) {
		t.Errorf("Verify: problems %q, want one that says the image is %s", rep.Problems, want)
	}
}
