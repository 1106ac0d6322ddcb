package era

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
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
	kind string // "append", "delete", "seal", "compact"
	docs [][]byte
	id   uint64
}

// crashScript is the fixed mutation sequence the matrix replays. With
// MemtableMaxDocs=2 and MaxTiers=2 it exercises every durability surface:
// WAL appends and deletes, threshold seals, threshold and explicit
// compactions, manifest swaps, and WAL rotations.
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
	for i := range script {
		st := &script[i]
		switch st.kind {
		case "append":
			ids, err := lx.Append(st.docs)
			if ids != nil {
				acked.append(ids, st.docs)
				nextID = ids[len(ids)-1] + 1
			}
			if err != nil {
				if ids == nil {
					inflight = st
				}
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
			if lx.Compact() != nil {
				return
			}
		}
	}
	return
}

func cloneOracle(o *liveOracle) *liveOracle {
	c := &liveOracle{ids: append([]uint64(nil), o.ids...)}
	for _, d := range o.docs {
		c.docs = append(c.docs, append([]byte(nil), d...))
	}
	return c
}

// TestCrashPointMatrix kills the live index at every mutating filesystem
// operation of the scripted run — clean failures and torn writes both — then
// reopens the directory and requires the recovered corpus to answer
// byte-identically to a from-scratch build over the acknowledged mutations
// (plus, at the implementation's option, the one mutation that was in flight
// — durable-but-unacknowledged is allowed, lost-but-acknowledged never is).
func TestCrashPointMatrix(t *testing.T) {
	script := crashScript()
	cfg := func(dir string, ffs *vfs.FaultFS) *LiveConfig {
		c := &LiveConfig{Dir: dir, MemtableMaxDocs: 2, MaxTiers: 2}
		if ffs != nil {
			c.fs = ffs
		}
		return c
	}

	// Rehearsal: a fault-free run through the same fs wrapper measures the
	// crash-point space and pins the oracle for a completed script.
	rehearse := vfs.NewFault(nil)
	dir := t.TempDir()
	lx, err := NewLive("crash", cfg(dir, rehearse))
	if err != nil {
		t.Fatalf("rehearsal NewLive: %v", err)
	}
	acked, inflight, _ := playCrashScript(lx, script)
	if inflight != nil {
		t.Fatal("rehearsal run hit an error with no fault armed")
	}
	if len(acked.docs) != 5 { // 10 appended, 5 deleted
		t.Fatalf("rehearsal survivors = %d, want 5 (script did not complete)", len(acked.docs))
	}
	if err := lx.Close(); err != nil {
		t.Fatalf("rehearsal Close: %v", err)
	}
	n := rehearse.Ops()
	if n < 20 {
		t.Fatalf("rehearsal saw only %d mutating fs operations; the script no longer exercises the durability stack", n)
	}
	reopened, err := NewLive("", cfg(dir, nil))
	if err != nil {
		t.Fatalf("rehearsal reopen: %v", err)
	}
	checkLive(t, reopened, acked, rand.New(rand.NewSource(0)))
	reopened.Close()

	for k := 1; k <= n; k++ {
		t.Run(fmt.Sprintf("crash@%03d", k), func(t *testing.T) {
			dir := t.TempDir()
			ffs := vfs.NewFault(nil)
			ffs.ShortCrashWrites(k%2 == 1) // alternate clean kills and torn writes
			ffs.CrashAt(k)

			acked := &liveOracle{}
			var inflight *crashStep
			var nextID uint64
			lx, err := NewLive("crash", cfg(dir, ffs))
			if err == nil {
				acked, inflight, nextID = playCrashScript(lx, script)
				lx.Close() // errors expected: the fs is dead
			}

			lx2, err := NewLive("", cfg(dir, nil))
			if err != nil {
				t.Fatalf("reopen after crash: %v", err)
			}
			defer lx2.Close()

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
