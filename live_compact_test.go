package era

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"era/internal/alphabet"
	"era/internal/vfs"
	"era/internal/workload"
)

// hookFS calls onCreate before each Create it passes on: the tests use it to
// act at the point where a compaction starts building its tier in its file.
type hookFS struct {
	vfs.FS
	onCreate func(name string)
}

func (h *hookFS) Create(name string) (vfs.File, error) {
	if h.onCreate != nil {
		h.onCreate(name)
	}
	return h.FS.Create(name)
}

// isTierTmp reports whether a Create is of a tier file's tmp.
func isTierTmp(name string) bool {
	base := filepath.Base(name)
	return strings.HasPrefix(base, "tier-") && strings.HasSuffix(base, ".tier.tmp")
}

// TestMutationsProceedDuringCompaction holds a compaction at the Create of
// its tier file — where its build into the file starts, outside the index's
// mutex — and requires an Append
// and the Delete of a document in one of the tiers being folded to return
// meanwhile. The swap then tombstones the deleted document in the new tier,
// so it stays gone, before and after reopen, and the mutation pause counts
// none of the time the compaction was held.
func TestMutationsProceedDuringCompaction(t *testing.T) {
	dir := t.TempDir()
	entered, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	hfs := &hookFS{FS: vfs.OS}
	lx, err := NewLive("held", &LiveConfig{Dir: dir, MemtableMaxDocs: 100, MaxTiers: 100, fs: hfs})
	if err != nil {
		t.Fatal(err)
	}
	o := &liveOracle{}
	for _, d := range []string{"GATTACAGATTACA", "CCCGATTACACCC", "TTAGGGTTAGGG"} {
		ids, err := lx.Append([][]byte{[]byte(d)})
		if err != nil {
			t.Fatal(err)
		}
		o.append(ids, [][]byte{[]byte(d)})
		if err := lx.Seal(); err != nil {
			t.Fatal(err)
		}
	}

	// The memtable is empty, so the compaction's tier is the next one created.
	hfs.onCreate = func(name string) {
		if isTierTmp(name) {
			once.Do(func() { close(entered); <-release })
		}
	}
	defer once.Do(func() {}) // a failed test must not leave a later Create blocked
	compacted := make(chan error, 1)
	go func() { compacted <- lx.Compact() }()
	<-entered
	held := time.Now()

	mutated := make(chan error, 1)
	extra := [][]byte{[]byte("ACGTTGCA")}
	go func() {
		ids, err := lx.Append(extra)
		if err == nil {
			o.append(ids, extra)
			var ok bool
			if ok, err = lx.Delete(o.ids[0]); err == nil && !ok {
				err = errors.New("Delete found no live document")
			}
		}
		mutated <- err
	}()
	select {
	case err := <-mutated:
		if err != nil {
			close(release)
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		close(release)
		t.Fatal("Append and Delete did not return while a compaction was held")
	}
	o.delete(o.ids[0])
	time.Sleep(50 * time.Millisecond) // the compaction stays held a while longer
	close(release)
	if err := <-compacted; err != nil {
		t.Fatalf("Compact: %v", err)
	}
	heldFor := time.Since(held)

	st := lx.Stats()
	if st.Tiers != 1 || st.MemtableDocs != 1 || st.DeadDocs != 1 {
		t.Fatalf("after the compaction: %d tiers, %d memtable docs, %d dead; want 1, 1, 1 (the delete re-tombstoned in the new tier)", st.Tiers, st.MemtableDocs, st.DeadDocs)
	}
	if st.MutationPause >= heldFor {
		t.Fatalf("mutation pause %v includes the %v the compaction was held", st.MutationPause, heldFor)
	}
	checkLive(t, lx, o, rand.New(rand.NewSource(1)))
	if err := lx.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := NewLive("", &LiveConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	checkLive(t, re, o, rand.New(rand.NewSource(2)))
}

// TestCloseCancelsCompaction closes a live index while it compacts, once
// per builder: the compaction returns context.Canceled instead of
// committing, its tier tmp is removed, and the reopened index answers from
// the tiers the compaction never replaced.
func TestCloseCancelsCompaction(t *testing.T) {
	t.Run("era", testCloseCancelsERACompaction)
	t.Run("in-memory", testCloseCancelsInMemoryCompaction)
}

// testCloseCancelsERACompaction closes a live index while it compacts the
// repeat cliff's dup corpus (a random DNA document and its copy) by ERA, at a
// budget too small for the suffix-array builder. Close stops the build
// instead of waiting for it, the build's tier file — mapped, half written —
// is removed with it, and the reopened index still answers over both
// documents from the tiers the compaction never replaced.
func testCloseCancelsERACompaction(t *testing.T) {
	n := 16 << 10
	if raceEnabled {
		n = 8 << 10 // the uncancelled build runs under the race detector too
	}
	doc := workload.MustGenerate(workload.DNA, n, 3)
	doc = doc[:len(doc)-1]
	budget := int64(13 * (2*n + 1)) // below 14 B/symbol of the pair, above it for one
	open := func(dir string) (*LiveIndex, *liveOracle) {
		lx, err := NewLive("dup", &LiveConfig{Dir: dir, MemtableMaxDocs: 1, MaxTiers: 100,
			Build: &Config{Alphabet: alphabet.DNA, MemoryBudget: budget}})
		if err != nil {
			t.Fatal(err)
		}
		o := &liveOracle{}
		for range 2 {
			ids, err := lx.Append([][]byte{doc}) // each seals its own tier
			if err != nil {
				t.Fatal(err)
			}
			o.append(ids, [][]byte{doc})
		}
		return lx, o
	}

	lx, _ := open(t.TempDir())
	start := time.Now()
	if err := lx.Compact(); err != nil {
		t.Fatal(err)
	}
	full := time.Since(start)
	lx.Close()

	dir := t.TempDir()
	lx, o := open(dir)
	compacted := make(chan error, 1)
	go func() { compacted <- lx.Compact() }()
	for lx.compactMu.TryLock() { // until the compaction has started
		lx.compactMu.Unlock()
		runtime.Gosched()
	}
	time.Sleep(full / 10) // and is well into its build
	start = time.Now()
	if err := lx.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	closing := time.Since(start)
	if err := <-compacted; !errors.Is(err, context.Canceled) {
		t.Fatalf("Compact under Close returned %v, want context.Canceled", err)
	}
	if closing > full/4 {
		t.Fatalf("Close took %v during a compaction that takes %v uncancelled", closing, full)
	}
	if tmps := tmpFiles(t, dir); len(tmps) > 0 {
		t.Fatalf("the cancelled in-place build left %v", tmps)
	}
	t.Logf("uncancelled compaction %v, Close during one %v", full, closing)

	re, err := NewLive("", &LiveConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if st := re.Stats(); st.Tiers != 2 || st.Compactions != 0 {
		t.Fatalf("reopened with %d tiers, %d compactions; want the two sealed tiers", st.Tiers, st.Compactions)
	}
	checkLive(t, re, o, rand.New(rand.NewSource(4)))
}

// testCloseCancelsInMemoryCompaction closes a live index while a compaction
// at the default budget — the suffix-array builder's — is held at the Create
// of its tier tmp, then lets the build go on. Its sort runs to the end, but
// the build stops after it with Close's cancellation instead of publishing
// and committing the tier.
func testCloseCancelsInMemoryCompaction(t *testing.T) {
	dir := t.TempDir()
	hfs := &hookFS{FS: vfs.OS}
	lx, err := NewLive("held", &LiveConfig{Dir: dir, MemtableMaxDocs: 1, MaxTiers: 100, fs: hfs,
		Build: &Config{Alphabet: alphabet.DNA}})
	if err != nil {
		t.Fatal(err)
	}
	o := &liveOracle{}
	for seed := range int64(2) {
		doc := workload.MustGenerate(workload.DNA, 4096, seed+5)
		doc = doc[:len(doc)-1]
		ids, err := lx.Append([][]byte{doc}) // each seals its own tier
		if err != nil {
			t.Fatal(err)
		}
		o.append(ids, [][]byte{doc})
	}

	entered, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	hfs.onCreate = func(name string) {
		if isTierTmp(name) {
			once.Do(func() { close(entered); <-release })
		}
	}
	defer once.Do(func() {}) // a failed test must not leave a later Create blocked
	compacted := make(chan error, 1)
	go func() { compacted <- lx.Compact() }()
	<-entered
	closed := make(chan error, 1)
	go func() { closed <- lx.Close() }()
	for lx.stop.Err() == nil { // until Close has cancelled the compaction
		runtime.Gosched()
	}
	close(release)
	if err := <-compacted; !errors.Is(err, context.Canceled) {
		t.Fatalf("Compact under Close returned %v, want context.Canceled", err)
	}
	if err := <-closed; err != nil {
		t.Fatalf("Close: %v", err)
	}
	if tmps := tmpFiles(t, dir); len(tmps) > 0 {
		t.Fatalf("the cancelled in-memory build left %v", tmps)
	}

	re, err := NewLive("", &LiveConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if st := re.Stats(); st.Tiers != 2 || st.Compactions != 0 {
		t.Fatalf("reopened with %d tiers, %d compactions; want the two sealed tiers", st.Tiers, st.Compactions)
	}
	checkLive(t, re, o, rand.New(rand.NewSource(5)))
}

// TestLiveIngestBuildsLogarithmically pins the work size-tiered folds do:
// 4 MiB of DNA appended in 4 KiB documents at the default config builds at
// most 4 symbols per symbol ingested, the seals' one included. Folding the
// whole stack at every trigger built about 10.5 here, a ratio that grew
// linearly with the corpus. Skipped under -short -race, where the 4 MiB
// ingest is slow; CI runs it without the race detector.
func TestLiveIngestBuildsLogarithmically(t *testing.T) {
	if testing.Short() && raceEnabled {
		t.Skip("4 MiB ingest under the race detector")
	}
	const total, docLen = 4 << 20, 4 << 10
	corpus := workload.MustGenerate(workload.DNA, total, 1)
	lx, err := NewLive("ingest", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer lx.Close()
	for off := 0; off < total; off += docLen {
		if _, err := lx.Append([][]byte{corpus[off : off+docLen]}); err != nil {
			t.Fatal(err)
		}
	}
	lx.mu.Lock()
	built := lx.built
	lx.mu.Unlock()
	st := lx.Stats()
	ratio := float64(built) / total
	t.Logf("%d seals, %d folds, %d tiers: %.2f symbols built per symbol ingested", st.Seals, st.Compactions, st.Tiers, ratio)
	if ratio > 4 {
		t.Fatalf("ingest built %.2f symbols per symbol appended, want ≤ 4", ratio)
	}
}

// heldFold is a directory-mode index whose seal-triggered fold is held at the
// Create of its tier tmp, outside the index's mutex.
type heldFold struct {
	lx      *LiveIndex
	o       *liveOracle
	release func()
	done    chan error // the triggering Append's error
	seed    int64
}

// holdFold seals one single-document tier per entry of units, of that many
// 64-symbol DNA blocks, into a directory-mode index at MaxTiers = len(units):
// the last seal fills the stack, and the fold it triggers is held at the
// Create of its tier tmp. It returns once the fold is held.
func holdFold(t *testing.T, units []int) *heldFold {
	t.Helper()
	hfs := &hookFS{FS: vfs.OS}
	lx, err := NewLive("held", &LiveConfig{Dir: t.TempDir(), MemtableMaxDocs: 1, MaxTiers: len(units), fs: hfs,
		Build: &Config{Alphabet: alphabet.DNA}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lx.Close() })
	entered, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	h := &heldFold{lx: lx, o: &liveOracle{}, done: make(chan error, 1),
		release: func() { once.Do(func() { close(release) }) }}
	t.Cleanup(h.release) // a failed test must not leave the fold blocked
	for _, u := range units[:len(units)-1] {
		h.append(t, u)
	}

	// The last seal takes the next tier number and its fold the one after.
	lx.mu.Lock()
	fold := fmt.Sprintf(liveTierPattern, lx.tierSeq+1) + ".tmp"
	lx.mu.Unlock()
	var hold sync.Once // a streamed build creates its tmp a second time
	hfs.onCreate = func(name string) {
		if filepath.Base(name) == fold {
			hold.Do(func() { close(entered); <-release })
		}
	}
	last := h.doc(units[len(units)-1])
	go func() {
		_, err := lx.Append([][]byte{last})
		h.done <- err
	}()
	<-entered
	h.o.append([]uint64{lx.Stats().NextID - 1}, [][]byte{last})
	return h
}

// doc returns a fresh document of units 64-symbol blocks.
func (h *heldFold) doc(units int) []byte {
	h.seed++
	return workload.MustGenerate(workload.DNA, 64*units, h.seed)[:64*units]
}

// append appends one document of units blocks, which seals a tier, and fails
// the test unless it returns within five seconds.
func (h *heldFold) append(t *testing.T, units int) {
	t.Helper()
	d := h.doc(units)
	type result struct {
		ids []uint64
		err error
	}
	c := make(chan result, 1)
	go func() {
		ids, err := h.lx.Append([][]byte{d})
		c <- result{ids, err}
	}()
	select {
	case r := <-c:
		if r.err != nil {
			t.Fatal(r.err)
		}
		h.o.append(r.ids, [][]byte{d})
	case <-time.After(5 * time.Second):
		t.Fatal("an Append did not return while a fold was held")
	}
}

// finish releases the fold and waits for the Append that triggered it.
func (h *heldFold) finish(t *testing.T) {
	t.Helper()
	h.release()
	if err := <-h.done; err != nil {
		t.Fatalf("the Append that triggered the fold: %v", err)
	}
}

// TestSealsDuringPartialCompaction holds a partial fold — tiers of 32, 4, 2,
// 1 and 1 blocks at MaxTiers 5 fold the newest four — while two appends seal
// a tier each, then lets it swap. The stack must be the unfolded oldest tier,
// then the new tier, then the two sealed meanwhile; tier id ranges ascend;
// and the index answers as BuildCorpus over the survivors, before and after
// reopen.
func TestSealsDuringPartialCompaction(t *testing.T) {
	h := holdFold(t, []int{32, 4, 2, 1, 1})
	h.append(t, 1)
	h.append(t, 1)
	h.finish(t)

	want := "[[0] [1 2 3 4] [5] [6]]"
	if got := fmt.Sprint(sealedIDs(h.lx)); got != want {
		t.Fatalf("after the fold the tiers hold ids %s, want %s", got, want)
	}
	if n := h.lx.Stats().Compactions; n != 1 {
		t.Fatalf("%d folds, want 1: the stack the swap left is below MaxTiers", n)
	}
	assertIDsAscend(t, h.lx)
	checkLive(t, h.lx, h.o, rand.New(rand.NewSource(1)))
	dir := h.lx.dir
	if err := h.lx.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := NewLive("", &LiveConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := fmt.Sprint(sealedIDs(re)); got != want {
		t.Fatalf("reopened with tiers holding ids %s, want %s", got, want)
	}
	checkLive(t, re, h.o, rand.New(rand.NewSource(2)))
}

// TestCompactionRefoldsAFullStack holds a fold of the newest two of tiers of
// 4, 1 and 1 blocks at MaxTiers 3 while two appends seal a tier each, which
// leaves the stack the swap makes at four tiers. The fold must re-check it
// and fold again, so MaxTiers stays a bound on the stack once the triggering
// Append returns.
func TestCompactionRefoldsAFullStack(t *testing.T) {
	h := holdFold(t, []int{4, 1, 1})
	h.append(t, 1)
	h.append(t, 1)
	h.finish(t)

	st := h.lx.Stats()
	if st.Tiers >= 3 || st.Compactions != 2 {
		t.Fatalf("%d tiers after %d folds; want fewer than MaxTiers (3) after 2: the swap's full stack re-folded", st.Tiers, st.Compactions)
	}
	assertIDsAscend(t, h.lx)
	checkLive(t, h.lx, h.o, rand.New(rand.NewSource(3)))
}

// TestCompactionFoldsHalfDeadTiers deletes documents of the oldest tier — 8
// of 64 symbols — behind three newer tiers of 32, and triggers a fold the
// size rule keeps off the oldest tier. With more than half its bytes dead the
// tier joins the run, and the deleted documents' bytes leave the stack; with
// fewer, the fold leaves it and its tombstones alone.
func TestCompactionFoldsHalfDeadTiers(t *testing.T) {
	for _, tc := range []struct {
		deleted int
		tiers   int // after the fold
		dead    int // documents still tombstoned after it
	}{{5, 1, 0}, {3, 2, 3}} {
		t.Run(fmt.Sprintf("deleted=%d", tc.deleted), func(t *testing.T) {
			lx, err := NewLive("dead", &LiveConfig{MemtableMaxDocs: 100, MaxTiers: 4})
			if err != nil {
				t.Fatal(err)
			}
			defer lx.Close()
			o := &liveOracle{}
			seal := func(n, size int) {
				t.Helper()
				var docs [][]byte
				for range n {
					d := workload.MustGenerate(workload.DNA, size, int64(len(o.docs)+len(docs)+1))
					docs = append(docs, d[:size])
				}
				ids, err := lx.Append(docs)
				if err != nil {
					t.Fatal(err)
				}
				o.append(ids, docs)
				if err := lx.Seal(); err != nil {
					t.Fatal(err)
				}
			}
			seal(8, 64)
			for id := range uint64(tc.deleted) {
				if ok, err := lx.Delete(id); !ok || err != nil {
					t.Fatalf("Delete(%d) = %v, %v", id, ok, err)
				}
				o.delete(id)
			}
			for range 3 {
				seal(1, 32) // the third fills the stack: the run of 96 live bytes stops at the oldest tier
			}

			st := lx.Stats()
			if st.Compactions != 1 || st.Tiers != tc.tiers || st.DeadDocs != tc.dead {
				t.Fatalf("%d folds, %d tiers, %d dead documents; want 1 fold, %d tiers, %d dead",
					st.Compactions, st.Tiers, st.DeadDocs, tc.tiers, tc.dead)
			}
			stacked, live := 0, len(o.global())-1
			lx.mu.Lock()
			for _, tier := range lx.sealed {
				n, _ := tier.sizes()
				stacked += n
			}
			lx.mu.Unlock()
			if want := live + 64*tc.dead; stacked != want {
				t.Fatalf("the stack holds %d bytes, want %d: %d live and the %d dead documents' %d", stacked, want, live, tc.dead, 64*tc.dead)
			}
			checkLive(t, lx, o, rand.New(rand.NewSource(4)))
		})
	}
}
