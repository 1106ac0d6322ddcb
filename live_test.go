package era

import (
	"bytes"
	"context"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"era/internal/alphabet"
)

// liveOracle mirrors a LiveIndex's intended contents: the surviving
// documents in id order, from which a monolithic index can be rebuilt from
// scratch as the ground truth.
type liveOracle struct {
	ids  []uint64
	docs [][]byte
}

func (o *liveOracle) append(ids []uint64, docs [][]byte) {
	for i := range ids {
		o.ids = append(o.ids, ids[i])
		o.docs = append(o.docs, append([]byte(nil), docs[i]...))
	}
}

func (o *liveOracle) delete(id uint64) bool {
	for i, oid := range o.ids {
		if oid == id {
			o.ids = append(o.ids[:i], o.ids[i+1:]...)
			o.docs = append(o.docs[:i], o.docs[i+1:]...)
			return true
		}
	}
	return false
}

// global returns the virtual global string the live view must serve.
func (o *liveOracle) global() []byte {
	var b []byte
	for _, d := range o.docs {
		b = append(b, d...)
	}
	return append(b, '$')
}

// livePatterns samples a differential pattern set from the current global
// string: in-corpus substrings (short and long, including ones that span
// document junctions), absent patterns, the empty pattern, and
// terminator-bearing patterns (the whole-tail match and a guaranteed miss).
func livePatterns(rng *rand.Rand, global []byte) [][]byte {
	content := global[:len(global)-1]
	pats := [][]byte{
		{},
		[]byte("$"),
		[]byte("NOSUCHPATTERN"),
		[]byte("ZZ$"),
		[]byte("$$"),
	}
	for _, m := range []int{1, 2, 3, 5, 9, 17} {
		for k := 0; k < 3; k++ {
			if len(content) >= m {
				off := rng.Intn(len(content) - m + 1)
				pats = append(pats, append([]byte(nil), content[off:off+m]...))
			}
			_ = k
		}
	}
	if n := len(global); n >= 4 {
		pats = append(pats, append([]byte(nil), global[n-4:]...)) // tail, '$' included
	}
	return pats
}

// checkLive pins every query surface of lx to a freshly built monolithic
// index over the oracle's surviving documents.
func checkLive(t *testing.T, lx *LiveIndex, o *liveOracle, rng *rand.Rand) {
	t.Helper()
	global := o.global()
	pats := livePatterns(rng, global)

	if len(o.docs) == 0 {
		if got := lx.Len(); got != 1 {
			t.Fatalf("empty live index Len() = %d, want 1", got)
		}
		if got := lx.NumDocs(); got != 0 {
			t.Fatalf("empty live index NumDocs() = %d, want 0", got)
		}
		for _, p := range pats {
			wantFound := len(p) == 0 || bytes.Equal(p, []byte("$"))
			if got := lx.Contains(p); got != wantFound {
				t.Fatalf("empty live index Contains(%q) = %v, want %v", p, got, wantFound)
			}
		}
		return
	}

	want, err := BuildCorpus(o.docs, nil)
	if err != nil {
		t.Fatalf("oracle BuildCorpus: %v", err)
	}
	if got := lx.Len(); got != want.Len() {
		t.Fatalf("Len() = %d, oracle %d", got, want.Len())
	}
	if got := lx.NumDocs(); got != want.NumDocs() {
		t.Fatalf("NumDocs() = %d, oracle %d", got, want.NumDocs())
	}
	assertSameAnswers(t, want, lx, pats)
}

// randDoc generates a DNA document of length up to maxLen (possibly empty —
// empty documents are legal and must not disturb numbering or stitching).
func randDoc(rng *rand.Rand, maxLen int) []byte {
	const syms = "ACGT"
	n := rng.Intn(maxLen + 1)
	d := make([]byte, n)
	for i := range d {
		d[i] = syms[rng.Intn(len(syms))]
	}
	return d
}

// TestLiveDifferential drives a scripted mutation sequence — appends,
// deletes, explicit seals and compactions, threshold-triggered maintenance
// — checking after every step that the live view answers byte-identically
// to a from-scratch build over the surviving documents.
func TestLiveDifferential(t *testing.T) {
	lx, err := NewLive("diff", &LiveConfig{MemtableMaxDocs: 4, MaxTiers: 3})
	if err != nil {
		t.Fatalf("NewLive: %v", err)
	}
	defer lx.Close()
	o := &liveOracle{}
	rng := rand.New(rand.NewSource(42))

	appendN := func(n, maxLen int) {
		t.Helper()
		docs := make([][]byte, n)
		for i := range docs {
			docs[i] = randDoc(rng, maxLen)
		}
		ids, err := lx.Append(docs)
		if err != nil {
			t.Fatalf("Append: %v", err)
		}
		o.append(ids, docs)
		checkLive(t, lx, o, rng)
	}
	deleteAt := func(pick int) {
		t.Helper()
		if len(o.ids) == 0 {
			return
		}
		id := o.ids[pick%len(o.ids)]
		ok, err := lx.Delete(id)
		if err != nil {
			t.Fatalf("Delete(%d): %v", id, err)
		}
		if !ok {
			t.Fatalf("Delete(%d) = false for a live id", id)
		}
		o.delete(id)
		checkLive(t, lx, o, rng)
	}

	checkLive(t, lx, o, rng) // empty

	appendN(3, 40)
	appendN(2, 40) // crosses MemtableMaxDocs → inline seal
	deleteAt(1)    // sealed-tier tombstone
	appendN(1, 0)  // empty document
	deleteAt(len(o.ids) - 1)
	if ok, err := lx.Delete(999999); err != nil || ok {
		t.Fatalf("Delete(unknown) = (%v, %v), want (false, nil)", ok, err)
	}
	for i := 0; i < 5; i++ {
		appendN(4, 30) // repeated seals → MaxTiers compaction
		deleteAt(rng.Intn(1 << 20))
	}
	if err := lx.Seal(); err != nil {
		t.Fatalf("Seal: %v", err)
	}
	checkLive(t, lx, o, rng)
	if err := lx.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	checkLive(t, lx, o, rng)
	st := lx.Stats()
	if st.Tiers > 1 || st.DeadDocs != 0 {
		t.Fatalf("after Compact: %d tiers, %d dead docs; want ≤1 and 0", st.Tiers, st.DeadDocs)
	}

	// Drain to empty and come back.
	for len(o.ids) > 0 {
		deleteAt(0)
	}
	if err := lx.Compact(); err != nil {
		t.Fatalf("Compact (empty): %v", err)
	}
	checkLive(t, lx, o, rng)
	appendN(2, 20)

	// Mutation epoch must have moved on every visible mutation.
	if lx.Epoch() == 0 {
		t.Fatalf("Epoch() = 0 after mutations")
	}

	// The high-byte corpus, whose root fills its child count, through seals,
	// a tombstone and a compaction of a live index of its own.
	hx, err := NewLive("high-bytes", &LiveConfig{MemtableMaxDocs: 2, MaxTiers: 3})
	if err != nil {
		t.Fatalf("NewLive: %v", err)
	}
	defer hx.Close()
	ho := &liveOracle{}
	high := highByteCorpus()
	for i := 0; i < len(high); i += 2 {
		ids, err := hx.Append(high[i:min(i+2, len(high))])
		if err != nil {
			t.Fatalf("Append: %v", err)
		}
		ho.append(ids, high[i:min(i+2, len(high))])
		checkLive(t, hx, ho, rng)
	}
	if ok, err := hx.Delete(ho.ids[2]); err != nil || !ok {
		t.Fatalf("Delete(%d) = (%v, %v)", ho.ids[2], ok, err)
	}
	ho.delete(ho.ids[2])
	checkLive(t, hx, ho, rng)
	if err := hx.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	checkLive(t, hx, ho, rng)
}

// TestLiveDifferentialDir runs the differential check in directory mode,
// then closes, reopens via OpenIndex on the manifest, and re-verifies —
// ids must keep ascending across the restart and tombstones must persist.
func TestLiveDifferentialDir(t *testing.T) {
	dir := t.TempDir()
	lx, err := NewLive("durable", &LiveConfig{Dir: dir, MemtableMaxDocs: 3, MaxTiers: 3})
	if err != nil {
		t.Fatalf("NewLive: %v", err)
	}
	o := &liveOracle{}
	rng := rand.New(rand.NewSource(7))

	var lastIDs []uint64
	for i := 0; i < 4; i++ {
		docs := [][]byte{randDoc(rng, 30), randDoc(rng, 30), randDoc(rng, 30)}
		ids, err := lx.Append(docs)
		if err != nil {
			t.Fatalf("Append: %v", err)
		}
		o.append(ids, docs)
		lastIDs = ids
		checkLive(t, lx, o, rng)
	}
	if ok, err := lx.Delete(lastIDs[0]); err != nil || !ok {
		t.Fatalf("Delete: (%v, %v)", ok, err)
	}
	o.delete(lastIDs[0])
	checkLive(t, lx, o, rng)
	maxID := o.ids[len(o.ids)-1]
	if err := lx.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	q, err := OpenIndex(filepath.Join(dir, liveManifestName))
	if err != nil {
		t.Fatalf("OpenIndex(manifest): %v", err)
	}
	re, ok := q.(*LiveIndex)
	if !ok {
		t.Fatalf("OpenIndex(manifest) returned %T, want *LiveIndex", q)
	}
	defer re.Close()
	if re.Name() != "durable" {
		t.Fatalf("reopened name %q, want %q", re.Name(), "durable")
	}
	checkLive(t, re, o, rng)

	doc := randDoc(rng, 20)
	ids, err := re.Append([][]byte{doc})
	if err != nil {
		t.Fatalf("Append after reopen: %v", err)
	}
	if ids[0] <= maxID {
		t.Fatalf("id %d after reopen not above the previous maximum %d", ids[0], maxID)
	}
	o.append(ids, [][]byte{doc})
	checkLive(t, re, o, rng)
}

// TestLiveMappedBytesBounded drives a seal/compact loop in directory mode
// and asserts the mapped footprint always equals the tier files currently
// on disk — replaced tiers must unmap (and unlink) as soon as no snapshot
// needs them, so a long-lived live index cannot leak mappings.
func TestLiveMappedBytesBounded(t *testing.T) {
	dir := t.TempDir()
	lx, err := NewLive("bounded", &LiveConfig{Dir: dir, MemtableMaxDocs: 2, MaxTiers: 2})
	if err != nil {
		t.Fatalf("NewLive: %v", err)
	}
	defer lx.Close()
	rng := rand.New(rand.NewSource(3))

	tierBytes := func() int64 {
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatalf("ReadDir: %v", err)
		}
		var n int64
		for _, e := range ents {
			if strings.HasSuffix(e.Name(), ".tier") {
				fi, err := e.Info()
				if err != nil {
					t.Fatalf("Info: %v", err)
				}
				n += fi.Size()
			}
		}
		return n
	}

	for i := 0; i < 30; i++ {
		if _, err := lx.Append([][]byte{randDoc(rng, 64), randDoc(rng, 64)}); err != nil {
			t.Fatalf("Append: %v", err)
		}
		if got, want := lx.MappedBytes(), tierBytes(); got != want {
			t.Fatalf("iteration %d: MappedBytes() = %d, tier files on disk total %d — replaced tiers not released", i, got, want)
		}
	}
	st := lx.Stats()
	if st.Seals == 0 || st.Compactions == 0 {
		t.Fatalf("loop produced %d seals, %d compactions; thresholds never fired", st.Seals, st.Compactions)
	}
	if err := lx.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	ents, _ := os.ReadDir(dir)
	var tiers int
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".tier") {
			tiers++
		}
	}
	if tiers != 1 {
		t.Fatalf("%d tier files after full compaction, want 1", tiers)
	}
}

// TestLiveRaceStress hammers one live index with concurrent appenders, a
// deleter and queriers while the appenders' seals trigger compactions that
// build outside the mutex, then verifies the final corpus against the
// oracle. Run with -race; queriers check internal consistency of every
// answer (they cannot pin exact values mid-flight).
func TestLiveRaceStress(t *testing.T) {
	dir := t.TempDir()
	lx, err := NewLive("stress", &LiveConfig{
		Dir: dir, MemtableMaxDocs: 8, MaxTiers: 3,
	})
	if err != nil {
		t.Fatalf("NewLive: %v", err)
	}

	const appenders = 2
	const batches = 15
	var mu sync.Mutex
	appended := map[uint64][]byte{}
	deleted := map[uint64]bool{}
	done := make(chan struct{})
	// The queriers run until the mutators have finished: one group for each.
	var wg, queriers sync.WaitGroup

	for a := 0; a < appenders; a++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for b := 0; b < batches; b++ {
				docs := [][]byte{randDoc(rng, 40), randDoc(rng, 40), randDoc(rng, 40)}
				ids, err := lx.Append(docs)
				if err != nil {
					t.Errorf("Append: %v", err)
					return
				}
				mu.Lock()
				for i, id := range ids {
					appended[id] = append([]byte(nil), docs[i]...)
				}
				mu.Unlock()
			}
		}(int64(100 + a))
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(55))
		for i := 0; i < 40; i++ {
			mu.Lock()
			var pick uint64
			var have bool
			for id := range appended {
				if !deleted[id] {
					pick, have = id, true
					break
				}
			}
			mu.Unlock()
			if !have {
				continue
			}
			ok, err := lx.Delete(pick)
			if err != nil {
				t.Errorf("Delete: %v", err)
				return
			}
			if ok {
				mu.Lock()
				deleted[pick] = true
				mu.Unlock()
			}
			_ = rng
		}
	}()
	for q := 0; q < 4; q++ {
		queriers.Add(1)
		go func(seed int64) {
			defer queriers.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-done:
					return
				default:
				}
				p := randDoc(rng, 4)
				occ, _ := lx.Occurrences(p)
				cnt := lx.Count(p)
				res := lx.Batch([]Op{{Kind: OpOccurrences, Pattern: p}})
				for i, o := range occ {
					// Bounded by everything ever appended, not by a Len() read
					// beside the query: appends land between the two calls.
					if o < 0 || o >= appenders*batches*3*40 {
						t.Errorf("occurrence %d outside any plausible string", o)
						return
					}
					if i > 0 && occ[i-1] >= o {
						t.Errorf("occurrences not strictly ascending: %v", occ)
						return
					}
				}
				// Count and Occurrences race separate snapshots; each must
				// be self-consistent, not mutually equal.
				if cnt < 0 || (len(res[0].Occurrences) != res[0].Count && len(p) > 0) {
					t.Errorf("Batch self-inconsistent: %d occ, count %d", len(res[0].Occurrences), res[0].Count)
					return
				}
				// lrs and topk share their snapshot's suffix order, sorted
				// in the index's one sort slot, while seals and compactions
				// retire tiers.
				lrs, err := lx.Analytics(context.Background(), Query{Kind: OpLongestRepeat})
				if err != nil || (lrs.Found && (len(lrs.Pattern) == 0 || lrs.Count < 2 || len(lrs.Occurrences) != lrs.Count)) {
					t.Errorf("lrs self-inconsistent: %d-byte pattern, %d occ, count %d, %v", len(lrs.Pattern), len(lrs.Occurrences), lrs.Count, err)
					return
				}
				top, err := lx.Analytics(context.Background(), Query{Kind: OpTopK, K: 4, MinLen: 3})
				if err != nil || len(top.Top) != top.Count || (len(top.Top) > 0 && len(top.Top[0].Pattern) != 3) {
					t.Errorf("topk self-inconsistent: %+v, %v", top, err)
					return
				}
			}
		}(int64(900 + q))
	}

	wg.Wait()
	close(done)
	queriers.Wait()
	if t.Failed() {
		lx.Close()
		return
	}

	// Final differential check over everything that survived.
	o := &liveOracle{}
	var ids []uint64
	for id := range appended {
		if !deleted[id] {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		o.ids = append(o.ids, id)
		o.docs = append(o.docs, appended[id])
	}
	rng := rand.New(rand.NewSource(1))
	checkLive(t, lx, o, rng)
	if c := lx.Stats().Compactions; c == 0 {
		t.Fatal("no compaction ran: the mutators raced nothing")
	}
	if err := lx.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// And once more through the durable path.
	re, err := OpenLive(filepath.Join(dir, liveManifestName), nil)
	if err != nil {
		t.Fatalf("OpenLive after stress: %v", err)
	}
	defer re.Close()
	checkLive(t, re, o, rng)
}

// TestLiveClosed pins the closed-index contract: mutations error, queries
// answer empty, Close is idempotent.
func TestLiveClosed(t *testing.T) {
	lx, err := NewLive("closed", nil)
	if err != nil {
		t.Fatalf("NewLive: %v", err)
	}
	if _, err := lx.Append([][]byte{[]byte("ACGT")}); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := lx.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := lx.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, err := lx.Append([][]byte{[]byte("A")}); err == nil {
		t.Fatalf("Append after Close did not error")
	}
	if _, err := lx.Delete(0); err == nil {
		t.Fatalf("Delete after Close did not error")
	}
	if lx.Contains([]byte("ACGT")) {
		t.Fatalf("Contains answered non-empty after Close")
	}
	if got := lx.Batch([]Op{{Kind: OpCount, Pattern: []byte("A")}}); len(got) != 1 || got[0].Found {
		t.Fatalf("Batch after Close = %+v, want one zero Result", got)
	}
}

// TestLiveRejectsBadDocuments pins batch atomicity: a batch with a
// terminator-bearing document rejects wholesale, leaving state untouched.
func TestLiveRejectsBadDocuments(t *testing.T) {
	lx, err := NewLive("reject", nil)
	if err != nil {
		t.Fatalf("NewLive: %v", err)
	}
	defer lx.Close()
	if _, err := lx.Append([][]byte{[]byte("ACGT"), []byte("AC$GT")}); err == nil {
		t.Fatalf("Append with terminator byte did not error")
	}
	if got := lx.NumDocs(); got != 0 {
		t.Fatalf("NumDocs() = %d after rejected batch, want 0", got)
	}
	if lx.Epoch() != 0 {
		t.Fatalf("Epoch() moved on a rejected batch")
	}

	fixed, err := NewLive("fixedalpha", &LiveConfig{Build: &Config{Alphabet: alphabet.DNA}})
	if err != nil {
		t.Fatalf("NewLive fixed: %v", err)
	}
	defer fixed.Close()
	if _, err := fixed.Append([][]byte{[]byte("hello")}); err == nil {
		t.Fatalf("Append outside a fixed alphabet did not error")
	}
}

// TestLiveWriteFileFrozen exports a mutating index to a static v4 file and
// checks the frozen copy serves the same answers while the live one moves on.
func TestLiveWriteFileFrozen(t *testing.T) {
	lx, err := NewLive("frozen", nil)
	if err != nil {
		t.Fatalf("NewLive: %v", err)
	}
	defer lx.Close()
	rng := rand.New(rand.NewSource(11))
	docs := [][]byte{randDoc(rng, 50), randDoc(rng, 50), randDoc(rng, 50)}
	ids, err := lx.Append(docs)
	if err != nil {
		t.Fatalf("Append: %v", err)
	}
	path := filepath.Join(t.TempDir(), "frozen.idx")
	if err := lx.WriteFile(path); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	if _, err := lx.Delete(ids[0]); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	q, err := OpenIndex(path)
	if err != nil {
		t.Fatalf("OpenIndex(frozen): %v", err)
	}
	defer q.Close()
	want, err := BuildCorpus(docs, nil)
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	for _, p := range [][]byte{docs[0], docs[1][:min(4, len(docs[1]))], []byte("ACG")} {
		if got, wantV := q.Count(p), want.Count(p); got != wantV {
			t.Fatalf("frozen Count(%q) = %d, want %d", p, got, wantV)
		}
	}
	if q.NumDocs() != 3 || lx.NumDocs() != 2 {
		t.Fatalf("frozen NumDocs %d / live NumDocs %d, want 3 / 2", q.NumDocs(), lx.NumDocs())
	}
}

// FuzzLiveMutations interprets fuzz bytes as an append/delete/seal/compact
// op sequence and differentially checks the final live view against a
// from-scratch build over the surviving documents — analytics included, and
// also just before every seal and compaction, when the most documents are
// being served unindexed.
func FuzzLiveMutations(f *testing.F) {
	f.Add([]byte{0, 1, 2, 6, 0, 4, 7, 0}, int64(1))
	f.Add([]byte{0, 0, 0, 0, 6, 6, 4, 4, 7}, int64(2))
	f.Add([]byte{3, 4, 3, 4, 3, 4, 7, 6}, int64(3))
	f.Add([]byte{0, 6, 0, 6, 0, 6, 0, 6, 7, 4, 7}, int64(4))

	f.Fuzz(func(t *testing.T, script []byte, seed int64) {
		if len(script) > 64 {
			script = script[:64]
		}
		rng := rand.New(rand.NewSource(seed))
		lx, err := NewLive("fuzz", &LiveConfig{MemtableMaxDocs: 3, MaxTiers: 2})
		if err != nil {
			t.Fatalf("NewLive: %v", err)
		}
		defer lx.Close()
		o := &liveOracle{}
		for _, b := range script {
			switch b % 8 {
			case 0, 1, 2, 3: // append 1–2 docs
				n := 1 + int(b%2)
				docs := make([][]byte, n)
				for i := range docs {
					docs[i] = randDoc(rng, 24)
				}
				ids, err := lx.Append(docs)
				if err != nil {
					t.Fatalf("Append: %v", err)
				}
				o.append(ids, docs)
			case 4, 5: // delete a random known id (possibly stale)
				if len(o.ids) == 0 {
					continue
				}
				id := o.ids[rng.Intn(len(o.ids))]
				ok, err := lx.Delete(id)
				if err != nil {
					t.Fatalf("Delete: %v", err)
				}
				if !ok {
					t.Fatalf("Delete(%d) = false for a live id", id)
				}
				o.delete(id)
			case 6:
				checkLiveAnalytics(t, lx, o) // the memtable at its fullest
				if err := lx.Seal(); err != nil {
					t.Fatalf("Seal: %v", err)
				}
			case 7:
				checkLiveAnalytics(t, lx, o)
				if err := lx.Compact(); err != nil {
					t.Fatalf("Compact: %v", err)
				}
			}
		}
		checkLive(t, lx, o, rand.New(rand.NewSource(seed+1)))
		checkLiveAnalytics(t, lx, o)
	})
}
