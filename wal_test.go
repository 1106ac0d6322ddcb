package era

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"era/internal/vfs"
)

// TestWALEncodeDecode round-trips both record kinds through the codec.
func TestWALEncodeDecode(t *testing.T) {
	docs := [][]byte{[]byte("GATTACA"), {}, []byte("C")}
	r, ok := walDecode(walEncodeAppend(42, docs))
	if !ok {
		t.Fatal("append record failed to decode")
	}
	if r.kind != walRecAppend || r.firstID != 42 || len(r.docs) != 3 {
		t.Fatalf("decoded %+v", r)
	}
	for i := range docs {
		if !bytes.Equal(r.docs[i], docs[i]) {
			t.Fatalf("doc %d: %q, want %q", i, r.docs[i], docs[i])
		}
	}
	r, ok = walDecode(walEncodeDelete(7))
	if !ok || r.kind != walRecDelete || r.id != 7 {
		t.Fatalf("delete decoded %+v ok=%v", r, ok)
	}
}

// walFrame wraps a payload in the length+crc framing wal.append writes.
func walFrame(payload []byte) []byte {
	rec := make([]byte, 8+len(payload))
	binary.LittleEndian.PutUint32(rec, uint32(len(payload)))
	binary.LittleEndian.PutUint32(rec[4:], crc32.Checksum(payload, castagnoli))
	copy(rec[8:], payload)
	return rec
}

// TestWALScanStopsAtDamage pins the truncate-at-first-bad-record rule: a
// corrupt middle record hides everything after it, and a zero-filled tail
// (a preallocated region) never parses as records.
func TestWALScanStopsAtDamage(t *testing.T) {
	r1 := walFrame(walEncodeAppend(0, [][]byte{[]byte("AAA")}))
	r2 := walFrame(walEncodeDelete(0))
	r3 := walFrame(walEncodeAppend(1, [][]byte{[]byte("CCC")}))
	buf := append(append(append([]byte(nil), r1...), r2...), r3...)

	count := func(b []byte) (int, int64) {
		n := 0
		v := walScan(b, func(walRecord) bool { n++; return true })
		return n, v
	}

	if n, v := count(buf); n != 3 || v != int64(len(buf)) {
		t.Fatalf("clean scan: %d records, %d bytes; want 3, %d", n, v, len(buf))
	}

	// Flip one payload byte of the middle record.
	bad := append([]byte(nil), buf...)
	bad[len(r1)+8] ^= 0xff
	if n, v := count(bad); n != 1 || v != int64(len(r1)) {
		t.Fatalf("corrupt middle: %d records, %d bytes; want 1, %d", n, v, len(r1))
	}

	// A zero-filled tail must not scan as an endless run of empty records.
	zeros := append(append([]byte(nil), buf...), make([]byte, 64)...)
	if n, v := count(zeros); n != 3 || v != int64(len(buf)) {
		t.Fatalf("zero tail: %d records, %d bytes; want 3, %d", n, v, len(buf))
	}

	// Every possible truncation yields exactly the records that fit.
	for cut := 0; cut < len(buf); cut++ {
		n, v := count(buf[:cut])
		wantN, wantV := 0, int64(0)
		for _, r := range [][]byte{r1, r2, r3} {
			if wantV+int64(len(r)) > int64(cut) {
				break
			}
			wantN++
			wantV += int64(len(r))
		}
		if n != wantN || v != wantV {
			t.Fatalf("cut %d: %d records, %d bytes; want %d, %d", cut, n, v, wantN, wantV)
		}
	}
}

// FuzzWALReplay drives the scan side of the WAL with randomized record
// scripts, truncation, and byte corruption, asserting the replay contract:
// the scan yields exactly a prefix of the written records (never a wrong or
// phantom record), and the valid length it reports covers exactly those
// records.
func FuzzWALReplay(f *testing.F) {
	f.Add(int64(1), 5, -1, byte(0))
	f.Add(int64(2), 12, 40, byte(0xff))
	f.Add(int64(3), 1, 0, byte(1))
	f.Fuzz(func(t *testing.T, seed int64, nRecs int, damageAt int, flip byte) {
		if nRecs < 0 || nRecs > 64 {
			return
		}
		rng := rand.New(rand.NewSource(seed))

		// Script: a random interleaving of append batches and deletes, ids
		// assigned like the live index would.
		type rec struct {
			kind    byte
			firstID uint64
			docs    [][]byte
			id      uint64
		}
		var script []rec
		var frames [][]byte
		nextID := uint64(rng.Intn(5))
		for i := 0; i < nRecs; i++ {
			if rng.Intn(3) == 0 && nextID > 0 {
				id := uint64(rng.Intn(int(nextID)))
				script = append(script, rec{kind: walRecDelete, id: id})
				frames = append(frames, walFrame(walEncodeDelete(id)))
				continue
			}
			nd := 1 + rng.Intn(3)
			docs := make([][]byte, nd)
			for j := range docs {
				docs[j] = randDoc(rng, 9)
			}
			script = append(script, rec{kind: walRecAppend, firstID: nextID, docs: docs})
			frames = append(frames, walFrame(walEncodeAppend(nextID, docs)))
			nextID += uint64(nd)
		}
		var buf []byte
		for _, fr := range frames {
			buf = append(buf, fr...)
		}

		// Random damage: truncate and/or flip one byte.
		if damageAt >= 0 && damageAt < len(buf) {
			if flip == 0 {
				buf = buf[:damageAt]
			} else {
				buf = append([]byte(nil), buf...)
				buf[damageAt] ^= flip
			}
		}

		var got []walRecord
		valid := walScan(buf, func(r walRecord) bool {
			// Copy: the doc slices alias buf.
			cp := walRecord{kind: r.kind, firstID: r.firstID, id: r.id}
			for _, d := range r.docs {
				cp.docs = append(cp.docs, append([]byte(nil), d...))
			}
			got = append(got, cp)
			return true
		})
		if valid < 0 || valid > int64(len(buf)) {
			t.Fatalf("valid length %d out of range [0,%d]", valid, len(buf))
		}
		if len(got) > len(script) {
			t.Fatalf("scan yielded %d records from a %d-record log", len(got), len(script))
		}
		// Prefix property: every scanned record matches the script in order,
		// and the reported length is exactly the framed prefix — unless the
		// flip produced a different-but-checksum-valid record, which CRC32C
		// makes effectively impossible at these sizes.
		var off int64
		for i, g := range got {
			w := script[i]
			if g.kind != w.kind || g.firstID != w.firstID || g.id != w.id || len(g.docs) != len(w.docs) {
				t.Fatalf("record %d: got %+v, want %+v", i, g, w)
			}
			for j := range g.docs {
				if !bytes.Equal(g.docs[j], w.docs[j]) {
					t.Fatalf("record %d doc %d: %q, want %q", i, j, g.docs[j], w.docs[j])
				}
			}
			off += int64(len(frames[i]))
		}
		if valid != off {
			t.Fatalf("valid length %d, but %d records span %d bytes", valid, len(got), off)
		}
	})
}

// dirSyncRecorder is a vfs.FS that logs, in order, the logs it opens for
// appending and the directories it syncs.
type dirSyncRecorder struct {
	vfs.FS
	mu  sync.Mutex
	ops []string
}

func (r *dirSyncRecorder) record(op string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ops = append(r.ops, op)
}

func (r *dirSyncRecorder) OpenAppend(name string) (vfs.File, error) {
	r.record("open-append " + name)
	return r.FS.OpenAppend(name)
}

func (r *dirSyncRecorder) SyncDir(dir string) error {
	r.record("syncdir " + dir)
	return r.FS.SyncDir(dir)
}

// TestWALCreationSyncsDirectory: an append's fsync makes its record durable
// but not the directory entry naming a log just created, so opening a fresh
// live directory must sync the directory after it creates wal.log, before
// NewLive returns and any append can be acknowledged.
func TestWALCreationSyncsDirectory(t *testing.T) {
	dir := t.TempDir()
	rec := &dirSyncRecorder{FS: vfs.OS}
	lx, err := NewLive("fresh", &LiveConfig{Dir: dir, fs: rec})
	if err != nil {
		t.Fatalf("NewLive: %v", err)
	}
	defer lx.Close()
	rec.mu.Lock()
	ops := slices.Clone(rec.ops)
	rec.mu.Unlock()
	created := slices.Index(ops, "open-append "+filepath.Join(dir, walName))
	if created < 0 {
		t.Fatalf("NewLive never opened %s: %q", walName, ops)
	}
	if !slices.Contains(ops[created+1:], "syncdir "+dir) {
		t.Fatalf("the live directory is not synced after %s is created: %q", walName, ops)
	}
}
