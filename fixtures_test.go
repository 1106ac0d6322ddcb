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

// TestCommittedImagesServed holds the committed images under
// testdata/fixtures to what a build of their corpus answers today, and to
// what this tree writes, byte for byte (a stale fixture fails here, not at
// the next format change): a mono, a sharded and a live image. The images
// every reader refuses are TestMustRebuildImagesRefused's.
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

	t.Run("fixtures", func(t *testing.T) {
		dir := filepath.Join("testdata", "fixtures")
		images := []string{"mono.idx", "sharded.idx"}
		for _, name := range append(images, "live") {
			rep, err := Verify(filepath.Join(dir, name))
			if err != nil {
				t.Fatal(err)
			}
			if !rep.OK() {
				t.Errorf("Verify(%s): %v", name, rep.Problems)
			}
		}
		if img, err := os.ReadFile(filepath.Join(dir, "mono.idx")); err != nil {
			t.Fatal(err)
		} else if !bytes.Equal(img, fresh.Bytes()) {
			t.Errorf("mono.idx: %d bytes that are not the %d a fresh build writes", len(img), fresh.Len())
		}
		for _, name := range images {
			q, err := OpenIndex(filepath.Join(dir, name))
			if err != nil {
				t.Fatal(err)
			}
			defer q.Close()
			assertSameAnswers(t, mono, q, shardTestPatterns(docs, 5))
			// A writer emits the sections it holds, so an opened image writes
			// back byte for byte.
			back := filepath.Join(t.TempDir(), name)
			if err := q.WriteFile(back); err != nil {
				t.Fatal(err)
			}
			want, _ := os.ReadFile(filepath.Join(dir, name))
			if got, _ := os.ReadFile(back); !bytes.Equal(got, want) {
				t.Errorf("%s written back is %d bytes, not the %d it was opened from", name, len(got), len(want))
			}
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

// TestMustRebuildImagesRefused: testdata/must-rebuild holds the committed
// images of every older tree layout, one refusal generation —
//
//   - half-records/: written while the suffix array sat behind the 16-byte
//     internal records in the node section (no flag bit 5): a mono, a
//     prefix-range sharded and a live image, the fixtures of their day;
//   - full-records/: written while internal records were 32 bytes and stated
//     their edges (no flag bit 4): a mono, a prefix-range sharded and a live
//     image, the fixtures of their day;
//   - leaf-records/: written before the leaves were the suffix array (8-byte
//     leaf records beside delta-varint leaf blocks; no flag bit 3): a mono, a
//     prefix-range sharded and a live image, the fixtures of their day;
//   - bfs-numbered/: the same layout with node ids numbered breadth-first,
//     and a sharded image cut at document boundaries (no flag bit 2 either);
//   - old-layout/: written before the compact node layout (32-byte records
//     for every node, dense tables; no flag bit 1), a mono and a live image.
//
// No reader for any of them is kept. Every way in refuses each file with an
// ErrMustRebuild that says why — open, read from a stream and verify — never
// mis-reading it as this layout; a live directory holding such a tier
// quarantines it and serves what its WAL holds.
func TestMustRebuildImagesRefused(t *testing.T) {
	const want = "predates the current tree layout"
	dir := filepath.Join("testdata", "must-rebuild")
	for _, name := range []string{
		"half-records/mono.idx", "half-records/sharded.idx",
		"full-records/mono.idx", "full-records/sharded.idx",
		"leaf-records/mono.idx", "leaf-records/sharded.idx",
		"bfs-numbered/mono.idx", "bfs-numbered/sharded.idx",
		"old-layout/mono.idx",
	} {
		t.Run(name, func(t *testing.T) {
			p := filepath.Join(dir, name)
			if q, err := OpenIndex(p); err == nil {
				q.Close()
				t.Error("OpenIndex accepted the image")
			} else if !errors.Is(err, ErrMustRebuild) || !strings.Contains(err.Error(), want) {
				t.Errorf("OpenIndex: %v, want an ErrMustRebuild that says the image %s", err, want)
			}
			buf, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := ReadQueryable(bytes.NewReader(buf)); !errors.Is(err, ErrMustRebuild) || !strings.Contains(err.Error(), want) {
				t.Errorf("ReadQueryable: %v, want an ErrMustRebuild that says the image %s", err, want)
			}
			rep, err := Verify(p)
			if err != nil {
				t.Fatal(err)
			}
			if rep.OK() || !strings.Contains(strings.Join(rep.Problems, "\n"), want) {
				t.Errorf("Verify: problems %q, want one that says the image %s", rep.Problems, want)
			}
		})
	}
	for _, name := range []string{"half-records/live", "full-records/live", "leaf-records/live", "old-layout/live"} {
		t.Run(name, func(t *testing.T) {
			live := copyLiveFixture(t, filepath.Join(dir, name))
			rep, err := Verify(live)
			if err != nil {
				t.Fatal(err)
			}
			if rep.OK() || !strings.Contains(strings.Join(rep.Problems, "\n"), want) {
				t.Errorf("Verify: problems %q, want one that says the tier %s", rep.Problems, want)
			}
			lx, err := NewLive("", &LiveConfig{Dir: live})
			if err != nil {
				t.Fatalf("opening a live directory with a tier to rebuild: %v", err)
			}
			defer lx.Close()
			if q := lx.Stats().Quarantined; len(q) != 1 || q[0] != fmt.Sprintf(liveTierPattern, 0) {
				t.Fatalf("Quarantined = %v, want the old tier", q)
			}
			// The directory's third document was unsealed, in the WAL only: it
			// is what survives, and it still answers.
			if got := lx.Count(fixtureDocs()[2]); got != 1 {
				t.Errorf("the WAL's document answers %d times after the old tier was quarantined, want 1", got)
			}
		})
	}
}
