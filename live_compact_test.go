package era

import (
	"context"
	"errors"
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

// TestCloseCancelsCompaction closes a live index while it compacts the
// repeat cliff's dup corpus (a random DNA document and its copy) by ERA, at a
// budget too small for the suffix-array builder. Close stops the build
// instead of waiting for it, the build's tier file — mapped, half written —
// is removed with it, and the reopened index still answers over both
// documents from the tiers the compaction never replaced.
func TestCloseCancelsCompaction(t *testing.T) {
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
