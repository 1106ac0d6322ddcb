package era

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
)

// Tests for the scanned memtable: unsealed documents have no index, so every
// query surface must recover them from the stitch scan alone — and the write
// path must pay for an append's own bytes, not for the memtable's.

// neverSeal is a LiveConfig whose thresholds no test reaches: documents stay
// in the memtable until Seal is called.
func neverSeal(dir string) *LiveConfig {
	return &LiveConfig{Dir: dir, MemtableMaxDocs: 1 << 30, MemtableMaxBytes: 1 << 40}
}

// junctionPatterns returns, for every junction between consecutive surviving
// documents, the windows of 1, 2 and 4 bytes either side of it — patterns
// that straddle tier↔memtable cuts, batch cuts and the gaps tombstones leave,
// whichever the junction happens to be.
func junctionPatterns(docs [][]byte) [][]byte {
	global := bytes.Join(docs, nil)
	var pats [][]byte
	b := 0
	for _, d := range docs[:max(len(docs)-1, 0)] {
		b += len(d)
		for _, w := range []int{1, 2, 4} {
			pats = append(pats, bytes.Clone(global[max(b-w, 0):min(b+w, len(global))]))
		}
	}
	return pats
}

// checkLiveAnalytics pins all five analytics ops of lx — and membership,
// Batch and DocOccurrences on the junction-straddling patterns checkLive only
// samples by chance — to the monolithic executor over a from-scratch build
// of the oracle's survivors. Beyond the fixed query set it asks for the
// complete 3-mer and 5-mer censuses (so every window of the string, straddling
// ones included, is counted) and for mismatch searches seeded at every
// junction.
func checkLiveAnalytics(t *testing.T, lx *LiveIndex, o *liveOracle) {
	t.Helper()
	if len(o.docs) == 0 {
		return
	}
	want, err := BuildCorpus(o.docs, nil)
	if err != nil {
		t.Fatalf("oracle BuildCorpus: %v", err)
	}
	straddling := junctionPatterns(o.docs)
	assertSameAnswers(t, want, lx, append(straddling, bytes.Join(o.docs, nil)))
	qs := append(analyticsQuerySet(len(o.docs)),
		Query{Kind: OpTopK, K: 64, MinLen: 3},
		Query{Kind: OpTopK, K: MaxTopK, MinLen: 5},
	)
	for _, p := range straddling {
		qs = append(qs,
			Query{Kind: OpMismatch, Pattern: p, K: 1},
			Query{Kind: OpDocFreq, Patterns: [][]byte{p}},
		)
	}
	for _, q := range qs {
		got, gerr := lx.Analytics(context.Background(), q)
		wantA, werr := want.Analytics(context.Background(), q)
		if gerr != nil || werr != nil {
			t.Fatalf("Analytics(%s %+v): live err %v, oracle err %v", q.Kind, q, gerr, werr)
		}
		if !reflect.DeepEqual(got, wantA) {
			t.Fatalf("Analytics(%s %+v)\n got %+v\nwant %+v", q.Kind, q, got, wantA)
		}
	}
}

// TestLiveScannedMemtableDifferential never lets a threshold seal: after one
// explicit seal (so a tier↔memtable junction exists) every further document
// stays unindexed, and membership, Batch, DocOccurrences and the analytics
// ops must still answer as a from-scratch build of the survivors — through
// multi-document batches, empty documents, tombstones at the start, middle
// and end of a batch, a wholly dead batch, and a dead gap on both sides of
// the tier cut.
func TestLiveScannedMemtableDifferential(t *testing.T) {
	for _, mode := range []string{"heap", "dir"} {
		t.Run(mode, func(t *testing.T) {
			dir := ""
			if mode == "dir" {
				dir = t.TempDir()
			}
			lx, err := NewLive("scan", neverSeal(dir))
			if err != nil {
				t.Fatalf("NewLive: %v", err)
			}
			defer lx.Close()
			o := &liveOracle{}
			rng := rand.New(rand.NewSource(16))

			check := func() {
				t.Helper()
				checkLive(t, lx, o, rng)
				checkLiveAnalytics(t, lx, o)
			}
			add := func(docs ...string) []uint64 {
				t.Helper()
				batch := make([][]byte, len(docs))
				for i, d := range docs {
					batch[i] = []byte(d)
				}
				ids, err := lx.Append(batch)
				if err != nil {
					t.Fatalf("Append: %v", err)
				}
				o.append(ids, batch)
				check()
				return ids
			}
			del := func(id uint64) {
				t.Helper()
				if ok, err := lx.Delete(id); err != nil || !ok {
					t.Fatalf("Delete(%d) = (%v, %v)", id, ok, err)
				}
				o.delete(id)
				check()
			}

			// Nothing sealed yet: the whole corpus is memtable.
			a := add("GATTACAGATTACA", "CCCGATTACACCC", "TTTTGGTTAACC")
			del(a[1]) // dead gap inside a batch
			if err := lx.Seal(); err != nil {
				t.Fatalf("Seal: %v", err)
			}
			check()

			// From here on nothing seals.
			b := add("ACGTACGTACGTGATT", "", "TGGTGGTGGTGCGGTGATGGTGC")
			c := add("GATTACA")
			d := add("", "")
			e := add("CATTAGGATTACATT", "GGTTAACCGG", "TTAACC")
			del(b[0]) // first of a batch: dead gap right after the tier cut
			del(a[2]) // last of the tier: dead gap on both sides of the cut
			del(c[0]) // a wholly dead batch
			del(e[2]) // last document of the memtable
			del(d[0]) // an empty document
			add(randDocN(rng, 40), randDocN(rng, 40))
			del(e[0])

			st := lx.Stats()
			if st.Seals != 1 || st.MemtableDocs != 11 {
				t.Fatalf("Stats: %d seals, %d memtable documents; the script must leave 11 documents unsealed behind one seal", st.Seals, st.MemtableDocs)
			}
		})
	}
}

// randDocN is randDoc at an exact length, as a string.
func randDocN(rng *rand.Rand, n int) string {
	d := make([]byte, n)
	for i := range d {
		d[i] = "ACGT"[rng.Intn(4)]
	}
	return string(d)
}

// allocatedBy returns the heap bytes f allocated (runtime.ReadMemStats'
// cumulative TotalAlloc, which it makes exact by flushing every P's cache).
// It runs f on one P, as testing.AllocsPerRun does: with an idle P, the
// world that ReadMemStats restarts may wake it on a new OS thread, whose
// runtime structures (5 248 B) would be counted as f's.
func allocatedBy(f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestLiveAppendCostIsTheBatch pins the write side of the scanned memtable:
// an append allocates a few copies of its own bytes plus at most one memtable
// extent, and the k-th append into a memtable that never seals costs what the
// first did — within 2×, which leaves room for the snapshot's per-document
// bookkeeping and nothing for a rebuild, or a reallocation, of what is
// already there.
func TestLiveAppendCostIsTheBatch(t *testing.T) {
	lx, err := NewLive("cost", neverSeal(t.TempDir()))
	if err != nil {
		t.Fatalf("NewLive: %v", err)
	}
	defer lx.Close()
	rng := rand.New(rand.NewSource(3))
	const docBytes, appends = 12 << 10, 64
	var first uint64
	for k := 1; k <= appends; k++ {
		batch := [][]byte{[]byte(randDocN(rng, docBytes))}
		cost := allocatedBy(func() {
			if _, err := lx.Append(batch); err != nil {
				t.Fatalf("Append %d: %v", k, err)
			}
		})
		if k == 1 {
			first = cost
			// The extent; the memtable copy lands in it. The WAL payload and
			// its framed record are two more copies of the batch.
			if first > memExtentBytes+3*docBytes {
				t.Fatalf("first append of %d bytes allocated %d: more than an extent and a few copies of the batch", docBytes, first)
			}
		} else if cost > 2*first {
			t.Fatalf("append %d allocated %d bytes, the first %d: cost grows with the memtable", k, cost, first)
		}
	}
	if n := lx.TreeNodes(); n != 0 {
		t.Fatalf("TreeNodes() = %d with nothing sealed: the memtable was indexed", n)
	}
}

// TestLiveRecoveryBuildsNothing replays a WAL of unsealed documents: the
// reopened index must serve them all from the memtable, having built no tree
// and allocated on the order of the log, not of a construction arena.
func TestLiveRecoveryBuildsNothing(t *testing.T) {
	dir := t.TempDir()
	lx, err := NewLive("replay", neverSeal(dir))
	if err != nil {
		t.Fatalf("NewLive: %v", err)
	}
	o := &liveOracle{}
	rng := rand.New(rand.NewSource(9))
	var logged int
	for i := 0; i < 24; i++ {
		batch := [][]byte{[]byte(randDocN(rng, 512)), []byte(randDocN(rng, 512))}
		ids, err := lx.Append(batch)
		if err != nil {
			t.Fatalf("Append: %v", err)
		}
		o.append(ids, batch)
		logged += 1024
	}
	if ok, err := lx.Delete(o.ids[5]); err != nil || !ok {
		t.Fatalf("Delete: (%v, %v)", ok, err)
	}
	o.delete(o.ids[5])

	// A crash: the manifest and log as they are on disk, with no Close-time
	// seal. Every append was fsynced, so a plain copy is the crash image.
	crashed := t.TempDir()
	for _, name := range []string{liveManifestName, walName} {
		buf, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("reading %s: %v", name, err)
		}
		if err := os.WriteFile(filepath.Join(crashed, name), buf, 0o644); err != nil {
			t.Fatalf("copying %s: %v", name, err)
		}
	}
	if err := lx.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	var re *LiveIndex
	cost := allocatedBy(func() {
		re, err = NewLive("", neverSeal(crashed))
	})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer re.Close()
	st := re.Stats()
	if st.Tiers != 0 || st.Seals != 0 || st.MemtableDocs != 48 || re.TreeNodes() != 0 {
		t.Fatalf("after replay: %d tiers, %d seals, %d memtable documents, %d tree nodes; want 0, 0, 48, 0",
			st.Tiers, st.Seals, st.MemtableDocs, re.TreeNodes())
	}
	// The log buffer, the memtable copy, the snapshot: a build would add its
	// 16 MiB arena on top.
	if cost > 8*uint64(logged) {
		t.Fatalf("replaying %d logged bytes allocated %d", logged, cost)
	}
	checkLive(t, re, o, rng)
	checkLiveAnalytics(t, re, o)
}

// TestLiveTierImagesAreDirectBuilds pins what seals and compactions put on
// disk: a sealed tier is byte-equal to the image of a build over the
// memtable's documents (tombstoned ones included — seals do not filter), and
// a compacted tier to one over the survivors.
func TestLiveTierImagesAreDirectBuilds(t *testing.T) {
	dir := t.TempDir()
	lx, err := NewLive("images", neverSeal(dir))
	if err != nil {
		t.Fatalf("NewLive: %v", err)
	}
	defer lx.Close()
	docs := diffCorpus()
	var ids []uint64
	for i := 0; i < len(docs); i += 3 {
		got, err := lx.Append(docs[i:min(i+3, len(docs))])
		if err != nil {
			t.Fatalf("Append: %v", err)
		}
		ids = append(ids, got...)
	}
	if ok, err := lx.Delete(ids[4]); err != nil || !ok {
		t.Fatalf("Delete: (%v, %v)", ok, err)
	}

	wantImage := func(docs [][]byte) []byte {
		t.Helper()
		idx, err := BuildCorpus(docs, nil)
		if err != nil {
			t.Fatalf("reference build: %v", err)
		}
		path := filepath.Join(t.TempDir(), "want.idx")
		if err := idx.WriteFile(path); err != nil {
			t.Fatalf("WriteFile: %v", err)
		}
		buf, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return buf
	}
	tierImage := func(seq int) []byte {
		t.Helper()
		buf, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf(liveTierPattern, seq)))
		if err != nil {
			t.Fatal(err)
		}
		return buf
	}

	if err := lx.Seal(); err != nil {
		t.Fatalf("Seal: %v", err)
	}
	if got, want := tierImage(0), wantImage(docs); !bytes.Equal(got, want) {
		t.Fatalf("sealed tier image (%d bytes) differs from the direct build's (%d bytes)", len(got), len(want))
	}
	if err := lx.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	survivors := append(append([][]byte(nil), docs[:4]...), docs[5:]...)
	if got, want := tierImage(1), wantImage(survivors); !bytes.Equal(got, want) {
		t.Fatalf("compacted tier image (%d bytes) differs from the direct build's (%d bytes)", len(got), len(want))
	}
}
