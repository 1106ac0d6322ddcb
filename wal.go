package era

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"path/filepath"

	"era/internal/vfs"
)

// Write-ahead log for LiveIndex directory mode. The memtable is nothing but
// its raw documents, so the WAL only has to make the *mutations* durable:
// every Append/Delete appends one checksummed record and fsyncs before the
// call acknowledges, and recovery replays the tail into the memtable.
//
// File format — a sequence of records, no file header:
//
//	u32 payloadLen (≥ 1)
//	u32 crc32c(payload)     (Castagnoli)
//	payload
//
// payload:
//
//	kind u8 = 1 (append batch): firstID u64, nDocs u32,
//	                            nDocs × (docLen u32 + doc bytes)
//	kind u8 = 2 (delete):       id u64
//
// Replay truncates at the first torn or corrupt record: a crash mid-append
// loses at most the one record that was never acknowledged. Records for
// mutations the manifest already covers are skipped by id (append records
// whose firstID precedes the manifest's nextID; delete replay is
// idempotent), which makes the seal→manifest-swap→log-rotation sequence
// safe to interrupt anywhere.
//
// The minimum payload length of 1 matters: a preallocated or zero-filled
// tail would otherwise parse as an endless run of valid empty records
// (crc32c("") == 0).

const (
	walName         = "wal.log"
	walRecAppend    = 1
	walRecDelete    = 2
	walMaxRecordLen = 1 << 30
	// walMaxBatchDocs bounds the per-record document count on replay so a
	// corrupt-but-checksum-valid count field cannot demand a giant
	// allocation.
	walMaxBatchDocs = 1 << 24
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// wal is an open write-ahead log. A failed append is expunged — the file is
// cut back to the last durable record so the rolled-back mutation cannot
// resurface at replay — and the log keeps working. Only when the expunge
// itself fails is the log poisoned: a record may then be durable while the
// in-memory state rolled back, and continuing to assign ids would risk
// replaying the orphan over a reused id, so every subsequent mutation fails
// until the index is reopened (which re-establishes log/memory agreement by
// replay).
type wal struct {
	fs   vfs.FS
	path string
	f    vfs.File
	off  int64 // bytes of fully durable records
	err  error
}

// openWAL opens the log at path for appending, creating it if absent. An
// append's fsync makes the record durable but not the directory entry that
// names the log, so the directory is synced here: a fresh log's entry, and
// one a crashed run created but never synced, outlive a power cut along with
// every record appended to them.
func openWAL(fs vfs.FS, path string) (*wal, error) {
	f, err := fs.OpenAppend(path)
	if err != nil {
		return nil, err
	}
	if err := fs.SyncDir(filepath.Dir(path)); err != nil {
		f.Close()
		return nil, fmt.Errorf("era: syncing live directory after opening %s: %w", path, err)
	}
	fi, err := fs.Stat(path)
	if err != nil {
		f.Close()
		return nil, err
	}
	return &wal{fs: fs, path: path, f: f, off: fi.Size()}, nil
}

// append writes one record and fsyncs it. Durable on nil return.
func (w *wal) append(payload []byte) error {
	if w.err != nil {
		return fmt.Errorf("era: WAL poisoned by earlier failure: %w", w.err)
	}
	rec := make([]byte, 8+len(payload))
	binary.LittleEndian.PutUint32(rec, uint32(len(payload)))
	binary.LittleEndian.PutUint32(rec[4:], crc32.Checksum(payload, castagnoli))
	copy(rec[8:], payload)
	if _, err := w.f.Write(rec); err != nil {
		w.expunge(err)
		return err
	}
	if err := w.f.Sync(); err != nil {
		w.expunge(err)
		return err
	}
	w.off += int64(len(rec))
	return nil
}

// expunge cuts a partially landed record back off the log (the fd is
// O_APPEND, so later appends continue at the restored end). The sync makes
// the cut durable — without it a crash could resurrect bytes of a record
// whose mutation was already rolled back and re-acknowledged differently.
func (w *wal) expunge(cause error) {
	if w.fs.Truncate(w.path, w.off) != nil || w.f.Sync() != nil {
		w.err = cause
	}
}

// rotate discards every record. Callers rotate only after a manifest write
// that covers the logged mutations is durable; if the truncate itself is
// lost to a crash, replay skips the stale records by id. The fd is opened
// O_APPEND, so subsequent appends continue at the new (zero) end.
func (w *wal) rotate() error {
	if w.err != nil {
		return fmt.Errorf("era: WAL poisoned by earlier failure: %w", w.err)
	}
	if err := w.fs.Truncate(w.path, 0); err != nil {
		w.err = err
		return err
	}
	w.off = 0
	return nil
}

func (w *wal) close() error {
	if w.f == nil {
		return nil
	}
	err := w.f.Close()
	w.f = nil
	return err
}

func walEncodeAppend(firstID uint64, docs [][]byte) []byte {
	n := 13
	for _, d := range docs {
		n += 4 + len(d)
	}
	p := make([]byte, 0, n)
	p = append(p, walRecAppend)
	p = binary.LittleEndian.AppendUint64(p, firstID)
	p = binary.LittleEndian.AppendUint32(p, uint32(len(docs)))
	for _, d := range docs {
		p = binary.LittleEndian.AppendUint32(p, uint32(len(d)))
		p = append(p, d...)
	}
	return p
}

func walEncodeDelete(id uint64) []byte {
	p := make([]byte, 0, 9)
	p = append(p, walRecDelete)
	return binary.LittleEndian.AppendUint64(p, id)
}

// walRecord is one decoded mutation.
type walRecord struct {
	kind    byte
	firstID uint64   // append
	docs    [][]byte // append; slices alias the scanned buffer
	id      uint64   // delete
}

// walScan iterates the valid record prefix of buf, calling fn for each
// record, and returns the byte length of that prefix. Scanning stops — with
// no error; a damaged tail is the expected crash artifact — at the first
// torn, corrupt, or structurally invalid record, or when fn returns false.
func walScan(buf []byte, fn func(r walRecord) bool) int64 {
	var off int64
	for {
		rest := buf[off:]
		if len(rest) < 8 {
			return off
		}
		plen := int64(binary.LittleEndian.Uint32(rest))
		if plen < 1 || plen > walMaxRecordLen || plen > int64(len(rest))-8 {
			return off
		}
		payload := rest[8 : 8+plen]
		if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(rest[4:]) {
			return off
		}
		r, ok := walDecode(payload)
		if !ok {
			return off
		}
		if !fn(r) {
			return off
		}
		off += 8 + plen
	}
}

// walDecode unpacks one checksummed payload; false on any structural
// mismatch (possible only through a writer bug or a checksum collision —
// either way the record is unusable and scanning must stop).
func walDecode(p []byte) (walRecord, bool) {
	var r walRecord
	if len(p) < 1 {
		return r, false
	}
	r.kind = p[0]
	p = p[1:]
	switch r.kind {
	case walRecAppend:
		if len(p) < 12 {
			return r, false
		}
		r.firstID = binary.LittleEndian.Uint64(p)
		n := binary.LittleEndian.Uint32(p[8:])
		p = p[12:]
		if n < 1 || n > walMaxBatchDocs {
			return r, false
		}
		r.docs = make([][]byte, 0, min(n, 1<<12))
		for i := uint32(0); i < n; i++ {
			if len(p) < 4 {
				return r, false
			}
			dl := binary.LittleEndian.Uint32(p)
			p = p[4:]
			if int64(dl) > int64(len(p)) {
				return r, false
			}
			r.docs = append(r.docs, p[:dl:dl])
			p = p[dl:]
		}
		return r, len(p) == 0
	case walRecDelete:
		if len(p) != 8 {
			return r, false
		}
		r.id = binary.LittleEndian.Uint64(p)
		return r, true
	}
	return r, false
}
