package era

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"era/internal/vfs"
)

// Crash-safety tests for the live index: a fault-injecting filesystem kills
// the durability stack at every possible write/sync/rename boundary, the
// directory is reopened with the real OS, and the recovered answers must be
// byte-identical to a from-scratch build over one of the two states the
// crash semantics allow (everything acknowledged, or everything acknowledged
// plus the single in-flight mutation).

// crashStep is one scripted mutation or maintenance call.
type crashStep struct {
	kind string   // "append", "delete", "seal", "compact"
	docs [][]byte // appended; for "compact", while the compaction builds
	id   uint64
}

// crashScript is the fixed mutation sequence the matrix replays. With
// MemtableMaxDocs=2 and MaxTiers=2 it exercises every durability surface:
// WAL appends and deletes, threshold seals, threshold and explicit
// compactions, manifest swaps, WAL rotations, and a compaction that commits
// while appended documents sit in the memtable.
func crashScript() []crashStep {
	a := func(docs ...string) crashStep {
		s := crashStep{kind: "append"}
		for _, d := range docs {
			s.docs = append(s.docs, []byte(d))
		}
		return s
	}
	del := func(id uint64) crashStep { return crashStep{kind: "delete", id: id} }
	return []crashStep{
		a("GATTACA", "CAT"), // ids 0,1; seal
		a(""),               // id 2 (empty documents are legal)
		del(0),
		a("TTAG"), // id 3; seal -> 2 tiers -> compact
		del(3),
		a("ACCA", "GGGT"), // ids 4,5; seal -> compact
		del(5),
		a("TACT"), // id 6
		{kind: "seal"},
		a("AGAG"), // id 7
		del(6),
		{kind: "compact"},
		a("CTGA"), // id 8; the thresholds again, after the explicit compaction
		{kind: "seal"},
		del(7),
		a("GGCC"), // id 9
		{kind: "seal"},
		{kind: "compact"}, // the tombstone of a sealed document dropped
		del(8),
		// id 10 is appended while the compaction builds: the commit leaves it
		// in the memtable, and the manifest's nextID stops below it.
		{kind: "compact", docs: [][]byte{[]byte("TTTA")}},
		a("ACGT"), // id 11; seal
	}
}

// playCrashScript runs the script until the first error, tracking
// acknowledgements: an Append is acknowledged exactly when it returns ids
// (even alongside a maintenance error), a Delete exactly when it returns
// true. Returns the oracle of acknowledged mutations, the mutation in flight
// when the run stopped (nil if the stop was a pure maintenance call or the
// script finished), and the id the next append would receive.
func playCrashScript(lx *LiveIndex, script []crashStep) (acked *liveOracle, inflight *crashStep, nextID uint64) {
	acked = &liveOracle{}
	// appended plays one append step, reporting whether it returned cleanly.
	appended := func(st *crashStep) bool {
		ids, err := lx.Append(st.docs)
		if ids != nil {
			acked.append(ids, st.docs)
			nextID = ids[len(ids)-1] + 1
		}
		if err != nil && ids == nil {
			inflight = st
		}
		return err == nil
	}
	for i := range script {
		st := &script[i]
		switch st.kind {
		case "append":
			if !appended(st) {
				return
			}
		case "delete":
			ok, err := lx.Delete(st.id)
			if ok {
				acked.delete(st.id)
			}
			if err != nil {
				if !ok {
					inflight = st
				}
				return
			}
		case "seal":
			if lx.Seal() != nil {
				return
			}
		case "compact":
			if len(st.docs) > 0 {
				// The compaction's tier is the first one created: Compact
				// seals an empty memtable.
				during := &crashStep{kind: "append", docs: st.docs}
				hfs := lx.fs.(*hookFS)
				hfs.onCreate = func(name string) {
					if hfs.onCreate != nil && isTierTmp(name) {
						hfs.onCreate = nil
						appended(during)
					}
				}
			}
			if lx.Compact() != nil || inflight != nil {
				return
			}
		}
	}
	return
}

// assertSwept requires a just-opened live directory to hold its manifest,
// its WAL, the tiers the manifest lists and quarantined files, and nothing
// else: whatever a crash left, the open removed.
func assertSwept(t *testing.T, dir string, lx *LiveIndex) {
	t.Helper()
	keep := map[string]bool{liveManifestName: true, walName: true}
	lx.mu.Lock()
	for _, st := range lx.sealed {
		keep[st.h.file] = true
	}
	lx.mu.Unlock()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !keep[e.Name()] && !strings.HasSuffix(e.Name(), ".quarantine") {
			t.Errorf("the reopened directory holds %s, which its manifest does not list", e.Name())
		}
	}
}

func cloneOracle(o *liveOracle) *liveOracle {
	c := &liveOracle{ids: append([]uint64(nil), o.ids...)}
	for _, d := range o.docs {
		c.docs = append(c.docs, append([]byte(nil), d...))
	}
	return c
}

// TestCrashPointMatrix kills the live index at every mutating filesystem
// operation of the scripted run — a clean failure at each, and at each Write
// also a torn write that lands half its buffer first — then
// reopens the directory and requires the recovered corpus to answer
// byte-identically to a from-scratch build over the acknowledged mutations
// (plus, at the implementation's option, the one mutation that was in flight
// — durable-but-unacknowledged is allowed, lost-but-acknowledged never is),
// and the reopened directory to hold no file its manifest does not list
// (assertSwept). The script runs on two filesystems: one where tiers are
// built in place, so the crash points include every block reservation and
// mapping, and one that cannot reserve blocks (noAllocFS), so every tier is
// built on the heap and streamed, and the crash points include each of its
// writes. Subtests are numbered across both, in-place points first.
func TestCrashPointMatrix(t *testing.T) {
	script := crashScript()
	type fsVariant struct {
		name string
		wrap func(*vfs.FaultFS) vfs.FS
	}
	variants := []fsVariant{
		{"in-place", func(ffs *vfs.FaultFS) vfs.FS { return ffs }},
		{"streamed", func(ffs *vfs.FaultFS) vfs.FS { return noAllocFS{ffs} }},
	}
	cfg := func(dir string, v fsVariant, ffs *vfs.FaultFS) *LiveConfig {
		c := &LiveConfig{Dir: dir, MemtableMaxDocs: 2, MaxTiers: 2}
		if ffs != nil {
			c.fs = &hookFS{FS: v.wrap(ffs)}
		}
		return c
	}

	// The crash points: every operation killed cleanly, and every Write torn
	// as well (a torn write of any other kind is the clean kill again).
	type crashPoint struct {
		fs    fsVariant
		kinds []vfs.Op // the fault-free run's operations
		op    int      // 1-based, as CrashAt takes it
		torn  bool
	}
	var points []crashPoint
	for _, v := range variants {
		// Rehearsal: a fault-free run through the same fs wrappers measures
		// the crash-point space and pins the oracle for a completed script.
		rehearse := vfs.NewFault(nil)
		dir := t.TempDir()
		lx, err := NewLive("crash", cfg(dir, v, rehearse))
		if err != nil {
			t.Fatalf("%s rehearsal NewLive: %v", v.name, err)
		}
		acked, inflight, _ := playCrashScript(lx, script)
		if inflight != nil {
			t.Fatalf("%s rehearsal run hit an error with no fault armed", v.name)
		}
		if len(acked.docs) != 6 { // 12 appended, 6 deleted
			t.Fatalf("%s rehearsal survivors = %d, want 6 (script did not complete)", v.name, len(acked.docs))
		}
		if err := lx.Close(); err != nil {
			t.Fatalf("%s rehearsal Close: %v", v.name, err)
		}
		kinds := rehearse.OpKinds()
		if len(kinds) < 20 {
			t.Fatalf("%s rehearsal saw only %d mutating fs operations; the script no longer exercises the durability stack", v.name, len(kinds))
		}
		reopened, err := NewLive("", cfg(dir, v, nil))
		if err != nil {
			t.Fatalf("%s rehearsal reopen: %v", v.name, err)
		}
		checkLive(t, reopened, acked, rand.New(rand.NewSource(0)))
		assertSwept(t, dir, reopened)
		reopened.Close()

		for i, kind := range kinds {
			points = append(points, crashPoint{fs: v, kinds: kinds, op: i + 1})
			if kind == vfs.OpWrite {
				points = append(points, crashPoint{fs: v, kinds: kinds, op: i + 1, torn: true})
			}
		}
	}

	for i, p := range points {
		k := i + 1
		t.Run(fmt.Sprintf("crash@%03d", k), func(t *testing.T) {
			t.Logf("%s: crash at operation %d of %d (%s, torn=%v)", p.fs.name, p.op, len(p.kinds), p.kinds[p.op-1], p.torn)
			dir := t.TempDir()
			ffs := vfs.NewFault(nil)
			ffs.ShortCrashWrites(p.torn)
			ffs.CrashAt(p.op)

			acked := &liveOracle{}
			var inflight *crashStep
			var nextID uint64
			lx, err := NewLive("crash", cfg(dir, p.fs, ffs))
			if err == nil {
				acked, inflight, nextID = playCrashScript(lx, script)
				lx.Close() // errors expected: the fs is dead
			}

			lx2, err := NewLive("", cfg(dir, p.fs, nil))
			if err != nil {
				t.Fatalf("reopen after crash: %v", err)
			}
			defer lx2.Close()
			assertSwept(t, dir, lx2)

			cand := acked
			if inflight != nil && lx2.NumDocs() != len(acked.docs) {
				// The in-flight mutation's WAL record may have become durable
				// before the crash error surfaced. Either one more append batch
				// or one more delete — never anything else.
				b := cloneOracle(acked)
				switch inflight.kind {
				case "append":
					ids := make([]uint64, len(inflight.docs))
					for i := range ids {
						ids[i] = nextID + uint64(i)
					}
					b.append(ids, inflight.docs)
				case "delete":
					b.delete(inflight.id)
				}
				cand = b
			}
			if lx2.NumDocs() != len(cand.docs) {
				t.Fatalf("recovered %d documents; acknowledged state has %d (in-flight: %+v)",
					lx2.NumDocs(), len(acked.docs), inflight)
			}
			checkLive(t, lx2, cand, rand.New(rand.NewSource(int64(k))))
			if got := lx2.Stats().NextID; got < nextID {
				t.Fatalf("recovered next id %d rewinds below acknowledged %d: ids would be reused", got, nextID)
			}
		})
	}
}

// TestFaultSealErrorKeepsServing pins the transient-failure path: a rename
// failure mid-seal surfaces on the mutating call, but the appended documents
// stay durable (WAL), visible, and the next seal retries cleanly.
func TestFaultSealErrorKeepsServing(t *testing.T) {
	dir := t.TempDir()
	ffs := vfs.NewFault(nil)
	lx, err := NewLive("seal-fault", &LiveConfig{Dir: dir, MemtableMaxDocs: 2, fs: ffs})
	if err != nil {
		t.Fatalf("NewLive: %v", err)
	}
	// Rename #1 was the initial manifest publish; #2 is the first tier seal.
	ffs.FailOp(vfs.OpRename, 2)

	o := &liveOracle{}
	docs := [][]byte{[]byte("GATTACA"), []byte("CATCAT")}
	ids, err := lx.Append(docs)
	if ids == nil {
		t.Fatalf("append not applied: %v", err)
	}
	if err == nil || !errors.Is(err, vfs.ErrInjected) {
		t.Fatalf("append error = %v, want the injected seal failure", err)
	}
	o.append(ids, docs)
	rng := rand.New(rand.NewSource(1))
	checkLive(t, lx, o, rng) // still serving despite the failed seal

	// The next threshold crossing retries the seal and succeeds.
	ids, err = lx.Append([][]byte{[]byte("TTAG")})
	if err != nil {
		t.Fatalf("append after transient fault: %v", err)
	}
	o.append(ids, [][]byte{[]byte("TTAG")})
	checkLive(t, lx, o, rng)
	if err := lx.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	lx2, err := NewLive("", &LiveConfig{Dir: dir})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer lx2.Close()
	checkLive(t, lx2, o, rng)
}

// TestFaultWALFailureRollsBack pins the WAL-failure contract: a mutation
// whose log record cannot be made durable is rolled out of the served state
// AND expunged from the log — it must not resurface at the next open — while
// earlier documents keep serving and later mutations proceed.
func TestFaultWALFailureRollsBack(t *testing.T) {
	dir := t.TempDir()
	ffs := vfs.NewFault(nil)
	lx, err := NewLive("wal-fault", &LiveConfig{Dir: dir, MemtableMaxDocs: 64, fs: ffs})
	if err != nil {
		t.Fatalf("NewLive: %v", err)
	}
	defer lx.Close()

	o := &liveOracle{}
	ids, err := lx.Append([][]byte{[]byte("GATTACA")})
	if err != nil {
		t.Fatalf("append: %v", err)
	}
	o.append(ids, [][]byte{[]byte("GATTACA")})

	// The WAL append is one write+sync pair; fail its sync. The rejected
	// batch carries protein letters the DNA survivors never will.
	ffs.FailOp(vfs.OpSync, ffs.KindOps(vfs.OpSync)+1)
	if ids, err := lx.Append([][]byte{[]byte("CCCCMKVLW")}); err == nil || ids != nil {
		t.Fatalf("append with failing WAL sync: ids=%v err=%v, want rejection", ids, err)
	}
	rng := rand.New(rand.NewSource(2))
	checkLive(t, lx, o, rng) // the rolled-back batch must not be visible

	// The partial record was expunged, so the log keeps working: the next
	// mutations succeed and the rolled-back batch never resurfaces.
	ids2, err := lx.Append([][]byte{[]byte("AAAA")})
	if err != nil {
		t.Fatalf("append after expunged WAL failure: %v", err)
	}
	o.append(ids2, [][]byte{[]byte("AAAA")})
	// The rejected batch must not have widened the inferred alphabet either:
	// the next acknowledged append re-derives it, and it must be what a build
	// of the acknowledged documents infers.
	want, err := BuildCorpus(o.docs, nil)
	if err != nil {
		t.Fatalf("oracle BuildCorpus: %v", err)
	}
	if got, want := lx.Alphabet().Symbols(), want.Alphabet().Symbols(); !bytes.Equal(got, want) {
		t.Fatalf("Alphabet() = %q after a rejected batch, a build of the survivors infers %q", got, want)
	}
	if ok, err := lx.Delete(ids[0]); !ok || err != nil {
		t.Fatalf("delete after expunged WAL failure: ok=%v err=%v", ok, err)
	}
	o.delete(ids[0])
	checkLive(t, lx, o, rng)
	lx.Close()

	// Reopen without Close-time sealing interference: the durable state must
	// be exactly the acknowledged mutations — the rejected batch stays gone.
	lx2, err := NewLive("", &LiveConfig{Dir: dir})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer lx2.Close()
	checkLive(t, lx2, o, rng)
}

// TestLiveQuarantineTier damages one sealed tier on disk — a flipped bit, or
// a shard image of the same documents in its place — and requires Verify to
// report it and the reopen to quarantine exactly that tier — renamed aside,
// reported in Stats — while the surviving tier keeps answering byte-identically to an oracle
// over its documents, and the following reopen comes up clean.
func TestLiveQuarantineTier(t *testing.T) {
	damages := []struct {
		name   string
		damage func(t *testing.T, victim string)
	}{
		{"bit-flip", func(t *testing.T, victim string) {
			buf, err := os.ReadFile(victim)
			if err != nil {
				t.Fatalf("reading tier file: %v", err)
			}
			buf[len(buf)/2] ^= 0xff
			if err := os.WriteFile(victim, buf, 0o644); err != nil {
				t.Fatalf("corrupting tier file: %v", err)
			}
		}},
		// A shard of the same documents: the document count and every
		// checksum pass, but its tree holds one range of the suffix order.
		{"range-image", func(t *testing.T, victim string) {
			sx, err := BuildShardedCorpus([][]byte{[]byte("TTAA"), []byte("GGCC")}, &ShardConfig{Shards: 2})
			if err != nil {
				t.Fatalf("BuildShardedCorpus: %v", err)
			}
			sh, _ := sx.Shard(1)
			if lo, _ := sh.Range(); len(lo) == 0 {
				t.Fatal("test setup: shard 1 starts at the beginning of the suffix order")
			}
			if err := sh.WriteFile(victim); err != nil {
				t.Fatalf("replacing tier file: %v", err)
			}
		}},
	}
	for _, d := range damages {
		t.Run(d.name, func(t *testing.T) {
			dir := t.TempDir()
			lx, err := NewLive("quar", &LiveConfig{Dir: dir, MemtableMaxDocs: 2, MaxTiers: 8})
			if err != nil {
				t.Fatalf("NewLive: %v", err)
			}
			keep := [][]byte{[]byte("GATTACA"), []byte("CATTAG")}
			if _, err := lx.Append(keep); err != nil { // ids 0,1 -> tier-000000
				t.Fatalf("append: %v", err)
			}
			if _, err := lx.Append([][]byte{[]byte("TTAA"), []byte("GGCC")}); err != nil { // ids 2,3 -> tier-000001
				t.Fatalf("append: %v", err)
			}
			if err := lx.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}

			victim := filepath.Join(dir, fmt.Sprintf(liveTierPattern, 1))
			d.damage(t, victim)
			rep, err := Verify(dir)
			if err != nil {
				t.Fatalf("Verify: %v", err)
			}
			if rep.OK() {
				t.Fatalf("Verify reports the damaged directory healthy: %v", rep.Notes)
			}

			lx2, err := NewLive("", &LiveConfig{Dir: dir})
			if err != nil {
				t.Fatalf("reopen over damaged tier: %v", err)
			}
			st := lx2.Stats()
			if len(st.Quarantined) != 1 || st.Quarantined[0] != filepath.Base(victim) {
				t.Fatalf("Quarantined = %v, want [%s]", st.Quarantined, filepath.Base(victim))
			}
			if _, err := os.Stat(victim + ".quarantine"); err != nil {
				t.Fatalf("quarantine file missing: %v", err)
			}
			if _, err := os.Stat(victim); !os.IsNotExist(err) {
				t.Fatalf("damaged tier still in place: %v", err)
			}
			o := &liveOracle{ids: []uint64{0, 1}, docs: keep}
			rng := rand.New(rand.NewSource(3))
			checkLive(t, lx2, o, rng)
			// The id space keeps the hole: new appends never reuse the dropped ids.
			ids, err := lx2.Append([][]byte{[]byte("ACGT")})
			if err != nil || len(ids) != 1 || ids[0] < 4 {
				t.Fatalf("append after quarantine: ids=%v err=%v, want a fresh id >= 4", ids, err)
			}
			o.append(ids, [][]byte{[]byte("ACGT")})
			checkLive(t, lx2, o, rng)
			if err := lx2.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}

			// The manifest was rewritten without the damaged tier: the next
			// open is clean and still serves the survivors.
			lx3, err := NewLive("", &LiveConfig{Dir: dir})
			if err != nil {
				t.Fatalf("second reopen: %v", err)
			}
			defer lx3.Close()
			if q := lx3.Stats().Quarantined; len(q) != 0 {
				t.Fatalf("second reopen still quarantining: %v", q)
			}
			checkLive(t, lx3, o, rng)
		})
	}
}
