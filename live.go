package era

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"era/internal/alphabet"
	"era/internal/vfs"
)

// LiveIndex is a mutable, query-compatible index over a live corpus: an
// LSM-style tier stack. Appends land in an in-memory memtable that is never
// indexed — an append costs a copy of its bytes, and queries scan the few
// unsealed kilobytes in place — which seals into an immutable v4 tier once
// full: one build, from a suffix array when the build budget holds the
// memtable (the default budget always does), by ERA otherwise; deletes are
// per-document tombstones filtered at query time; a seal that fills the stack
// folds its newest run of tiers into one (size-tiered, as in an LSM tree: the
// run grows toward older tiers while its live bytes reach the next one's, and
// a tier at least half dead joins it), rebuilding their surviving documents,
// and Compact folds every tier. In directory mode each such build writes its
// tier straight into the tier's file. Every query surface of Queryable
// answers byte-identically to a from-scratch BuildCorpus over the surviving
// documents in append order — LiveIndex trades none of the package's answer
// discipline for mutability.
//
// Concurrency: mutations and seals serialize on an internal mutex; a
// compaction builds outside it, so only the call that triggered it waits for
// it, and Close cancels it. Queries are lock-free against an atomically
// published, reference-counted snapshot and never block on (or are blocked
// by) mutations. Each mutation bumps Epoch, which serving layers use to
// invalidate result caches.
//
// Durability (directory mode, LiveConfig.Dir != ""): sealed tiers and the
// manifest are published tmp+fsync+rename, never rewritten; every Append and
// Delete is fsynced to a write-ahead log (wal.log) before it acknowledges,
// so even unsealed memtable contents survive a crash — reopening replays the
// log tail. With Dir == "" the whole index is heap-resident and vanishes
// with the process.
type LiveIndex struct {
	name string
	dir  string
	cfg  LiveConfig
	fs   vfs.FS
	wal  *wal // non-nil in directory mode once recovery has run

	snap     atomic.Pointer[liveSnapshot]
	epoch    atomic.Uint64
	closedFl atomic.Bool
	sortSlot chan struct{} // one snapshot's suffix order sorts at a time
	sorts    atomic.Int64  // suffix orders sorted

	stop      context.Context // a compaction builds under it; Close cancels it
	cancel    context.CancelFunc
	compactMu sync.Mutex // serializes compactions, and Close's release of tiers after them

	mu          sync.Mutex
	alpha       *alphabet.Alphabet
	fixedAlpha  bool
	seen        [256]bool
	sealed      []*tierState
	mem         []*tierState // the memtable: unsealed extents, oldest first
	nextID      uint64
	tierSeq     uint64
	quarantined []string // tier files moved aside at load for failing validation

	seals       int64
	compactions int64
	built       int64 // symbols built by seals and folds
	mutPause    time.Duration
}

var _ Queryable = (*LiveIndex)(nil)

var errLiveClosed = errors.New("era: live index is closed")

// memExtentBytes is the capacity the memtable grows by. Unsealed documents
// are copied into fixed extents, not one reallocating buffer: an append never
// moves what earlier ones wrote (snapshots keep viewing it), allocates at most
// one extent beyond its own bytes, and leaves a run of live documents
// contiguous — one in-place scan, no junction — for as long as an extent
// lasts. By default (MemtableMaxBytes) a memtable is one extent.
const memExtentBytes = 32 << 10

// memAppendLocked copies one acknowledged batch into the memtable, ids
// ascending from firstID: into the last extent when it has room for the whole
// batch (a document never straddles extents), else into a fresh one. Each
// extent is an unsealed tierState, append-only but for its tombstone flags.
// Returns the extent's view of the new ids. Caller holds mu.
func (lx *LiveIndex) memAppendLocked(firstID uint64, docs [][]byte) []uint64 {
	total := 0
	for _, d := range docs {
		total += len(d)
	}
	var ext *tierState
	if n := len(lx.mem); n > 0 && cap(lx.mem[n-1].data)-len(lx.mem[n-1].data) >= total {
		ext = lx.mem[n-1]
	} else {
		ext = &tierState{data: make([]byte, 0, max(total, memExtentBytes))}
		lx.mem = append(lx.mem, ext)
	}
	for i, d := range docs {
		ext.data = append(ext.data, d...)
		ext.docEnds = append(ext.docEnds, int32(len(ext.data)))
		ext.ids = append(ext.ids, firstID+uint64(i))
		ext.dead = append(ext.dead, false)
	}
	return ext.ids[len(ext.ids)-len(docs):]
}

// memSizeLocked returns the memtable's document and byte counts, tombstoned
// documents included. Caller holds mu.
func (lx *LiveIndex) memSizeLocked() (docs int, size int64) {
	for _, b := range lx.mem {
		docs += len(b.ids)
		size += int64(len(b.data))
	}
	return docs, size
}

// LiveConfig configures a LiveIndex. The zero value is usable: heap-only,
// default thresholds.
type LiveConfig struct {
	// Dir is the live directory holding the manifest (live.idx) and sealed
	// tier files. Empty keeps every tier heap-resident and volatile.
	Dir string
	// Build configures memtable and compaction builds. Nil is the zero
	// Config: inferred alphabet, and the 64 MB default budget, which a seal
	// or compaction of up to about 4.7 M symbols fits as a suffix array and
	// is therefore built in memory; past that, or at a smaller budget, or
	// with a parallel Mode named here, ERA builds it (Config.MemoryBudget).
	// Setting Build.Alphabet fixes the alphabet: appends with bytes outside
	// it are rejected instead of widening the inferred union.
	Build *Config
	// MemtableMaxDocs and MemtableMaxBytes are the seal thresholds; an
	// append that leaves the memtable at or past either seals it. Defaults:
	// 256 docs, 32 KiB.
	//
	// The memtable has no index: every query scans its bytes. The thresholds
	// therefore trade read latency against write work. BenchmarkLiveMemtableScan
	// puts a worst-case count over a full memtable at ~20 µs (DNA) to ~40 µs
	// (protein) per 32 KiB, growing linearly — 256 KiB costs 0.15–0.3 ms,
	// 4 MiB 2–4 ms — and the 32 KiB default keeps it under one served point
	// query (~50 µs). Raising MemtableMaxBytes seals, and later compacts,
	// proportionally less often (each seal is a build, and a tier every
	// query visits until the next compaction) and charges every read the
	// longer scan.
	MemtableMaxDocs  int
	MemtableMaxBytes int64
	// MaxTiers is the sealed-tier count at which a seal folds the newest run
	// of tiers into one, and the bound the fold keeps the stack below: it
	// folds again while tiers sealed during its build leave MaxTiers.
	// Default 8.
	MaxTiers int
	// fs overrides the filesystem behind the durability paths (tier files,
	// manifest, WAL); nil means the real OS. Unexported: only the
	// fault-injection tests swap in vfs.FaultFS.
	fs vfs.FS
}

func (c *LiveConfig) withLiveDefaults() LiveConfig {
	out := LiveConfig{}
	if c != nil {
		out = *c
	}
	if out.MemtableMaxDocs <= 0 {
		out.MemtableMaxDocs = 256
	}
	if out.MemtableMaxBytes <= 0 {
		out.MemtableMaxBytes = memExtentBytes
	}
	if out.MaxTiers <= 0 {
		out.MaxTiers = 8
	}
	return out
}

// NewLive opens (or creates) a live index. With cfg.Dir set, an existing
// manifest in the directory is loaded — sealed tiers are mapped back in,
// ids continue from where the last run sealed, and the write-ahead log's
// tail is replayed into the memtable so no acknowledged mutation is lost —
// otherwise the directory is initialized. A sealed tier that fails checksum
// or shape validation is renamed aside (*.quarantine) and its documents
// dropped; the rest of the corpus loads and serves (see LiveStats
// Quarantined). What a crash left in the directory — tier files the manifest
// does not list, *.tmp files — is removed. name may be empty, in which case
// the manifest's saved name or the directory base name is adopted.
func NewLive(name string, cfg *LiveConfig) (*LiveIndex, error) {
	lx := &LiveIndex{name: name, sortSlot: make(chan struct{}, 1)}
	lx.cfg = cfg.withLiveDefaults()
	lx.dir = lx.cfg.Dir
	lx.fs = lx.cfg.fs
	if lx.fs == nil {
		lx.fs = vfs.OS
	}
	lx.alpha = alphabet.DNA // placeholder until the first document is seen
	if lx.cfg.Build != nil && lx.cfg.Build.Alphabet != nil {
		lx.alpha = lx.cfg.Build.Alphabet
		lx.fixedAlpha = true
	}
	if lx.dir != "" {
		fail := func(err error) (*LiveIndex, error) {
			for _, st := range lx.sealed {
				st.h.release()
			}
			return nil, err
		}
		if err := lx.fs.MkdirAll(lx.dir, 0o755); err != nil {
			return nil, err
		}
		mpath := filepath.Join(lx.dir, liveManifestName)
		if _, err := lx.fs.Stat(mpath); err == nil {
			if err := lx.loadManifest(mpath); err != nil {
				return nil, err
			}
			lx.sweep()
		} else if !os.IsNotExist(err) {
			return nil, err
		} else if err := lx.writeManifestLocked(); err != nil {
			return nil, err
		}
		if err := lx.recoverWAL(); err != nil {
			return fail(err)
		}
		w, err := openWAL(lx.fs, filepath.Join(lx.dir, walName))
		if err != nil {
			return fail(err)
		}
		lx.wal = w
		if lx.name == "" {
			lx.name = filepath.Base(lx.dir)
		}
	}
	lx.stop, lx.cancel = context.WithCancel(context.Background())
	lx.publishLocked()
	return lx, nil
}

// OpenLive opens the live index whose manifest is at path (a live.idx file
// written by a previous run). cfg.Dir is ignored; the manifest's directory
// is used.
func OpenLive(path string, cfg *LiveConfig) (*LiveIndex, error) {
	lcfg := LiveConfig{}
	if cfg != nil {
		lcfg = *cfg
	}
	lcfg.Dir = filepath.Dir(path)
	return NewLive("", &lcfg)
}

// recoverWAL replays the write-ahead log's tail into the memtable: append
// batches the manifest does not cover are re-applied (ids re-derived from
// the record's firstID, which must meet nextID exactly), deletes are
// re-tombstoned (idempotently — the manifest may already carry them), and a
// torn or corrupt tail is truncated away so new records never land beyond
// damage the next replay would stop at. Runs during NewLive, after the
// manifest loaded and before any concurrency exists.
func (lx *LiveIndex) recoverWAL() error {
	path := filepath.Join(lx.dir, walName)
	buf, err := lx.fs.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return err
	}
	valid := walScan(buf, func(r walRecord) bool {
		switch r.kind {
		case walRecAppend:
			if r.firstID < lx.nextID {
				return true // sealed into a tier already; the rotate was lost
			}
			if r.firstID > lx.nextID {
				return false // id gap: treat like a corrupt tail
			}
			lx.memAppendLocked(lx.nextID, r.docs)
			lx.nextID += uint64(len(r.docs))
			if !lx.fixedAlpha {
				markSeen(&lx.seen, r.docs)
			}
		case walRecDelete:
			lx.deleteLocked(r.id)
		}
		return true
	})
	if valid < int64(len(buf)) {
		// Cut the damage away for good: the log is opened O_APPEND, and a
		// record written after a bad region would be unreachable to replay.
		if err := lx.fs.Truncate(path, valid); err != nil {
			return err
		}
	}
	if len(lx.mem) > 0 && !lx.fixedAlpha {
		if a, err := alphabetFromSeen(&lx.seen); err == nil {
			lx.alpha = a
		}
	}
	return nil
}

// markSeen records the documents' bytes in the alphabet-inference presence
// set.
func markSeen(seen *[256]bool, docs [][]byte) {
	for _, d := range docs {
		for _, b := range d {
			seen[b] = true
		}
	}
}

// buildConfig returns the Config value seal and compaction builds use.
func (lx *LiveIndex) buildConfig() Config {
	if lx.cfg.Build != nil {
		return *lx.cfg.Build
	}
	return Config{}
}

// publishLocked derives a fresh snapshot from the current tier stack and
// swaps it in, releasing ownership of the previous one. Racing queries keep
// their acquired snapshot until they return. Caller holds mu.
func (lx *LiveIndex) publishLocked() {
	s := newLiveSnapshot(slices.Concat(lx.sealed, lx.mem), lx.alpha)
	s.lx = lx
	if old := lx.snap.Swap(s); old != nil {
		old.release()
	}
}

// acquire returns the current snapshot with a reference held, or nil when
// the index is closed. The retry loop covers the race where a snapshot
// drains between the pointer load and the acquire.
func (lx *LiveIndex) acquire() *liveSnapshot {
	for {
		if lx.closedFl.Load() {
			return nil
		}
		s := lx.snap.Load()
		if s.acquire() {
			return s
		}
	}
}

// Append adds documents to the corpus, assigning each a stable id (ids are
// monotone across the index's whole life, surviving restarts in directory
// mode). The batch is atomic: all documents become visible to queries
// together, or none do on error. Documents are copied; callers may reuse
// their buffers. A document containing the terminator byte '$', or — when
// the alphabet was fixed via LiveConfig.Build — a byte outside it, rejects
// the whole batch.
func (lx *LiveIndex) Append(docs [][]byte) (ids []uint64, err error) {
	if len(docs) == 0 {
		return nil, nil
	}
	var full bool
	defer func() { // after mu is released
		if cerr := lx.compactIf(full); cerr != nil {
			err = errors.Join(err, fmt.Errorf("era: append applied; compacting tiers: %w", cerr))
		}
	}()
	lx.mu.Lock()
	defer lx.mu.Unlock()
	if lx.closedFl.Load() {
		return nil, errLiveClosed
	}
	for i, d := range docs {
		for _, b := range d {
			if b == alphabet.Terminator {
				return nil, fmt.Errorf("era: document %d contains the reserved terminator byte %q", i, alphabet.Terminator)
			}
			if lx.fixedAlpha && !lx.alpha.Contains(b) {
				return nil, fmt.Errorf("era: document %d contains byte %q outside the fixed %s alphabet", i, b, lx.alpha.Name())
			}
		}
	}

	// Nothing is applied until the batch is durable, so a failed log write
	// has nothing to roll back — not even the inferred alphabet.
	seen, alpha := lx.seen, lx.alpha
	if !lx.fixedAlpha {
		markSeen(&seen, docs)
		if seen != lx.seen { // a byte the corpus had not held: re-infer
			if a, err := alphabetFromSeen(&seen); err == nil {
				alpha = a
			}
		}
	}
	if lx.wal != nil {
		if err := lx.wal.append(walEncodeAppend(lx.nextID, docs)); err != nil {
			return nil, fmt.Errorf("era: append rejected; WAL write failed: %w", err)
		}
	}
	ids = slices.Clone(lx.memAppendLocked(lx.nextID, docs))
	lx.nextID += uint64(len(docs))
	lx.seen, lx.alpha = seen, alpha
	lx.publishLocked()
	lx.epoch.Add(1)

	if n, size := lx.memSizeLocked(); n >= lx.cfg.MemtableMaxDocs || size >= lx.cfg.MemtableMaxBytes {
		if full, err = lx.sealLocked(); err != nil {
			return ids, fmt.Errorf("era: append applied; sealing memtable: %w", err)
		}
	}
	return ids, nil
}

// Delete tombstones the document with the given id. It reports whether the
// id named a live document; deleting an unknown or already-deleted id is a
// no-op returning false. In directory mode the tombstone is fsynced to the
// write-ahead log before Delete returns (the manifest absorbs it at the
// next seal or compaction).
func (lx *LiveIndex) Delete(id uint64) (bool, error) {
	lx.mu.Lock()
	defer lx.mu.Unlock()
	if lx.closedFl.Load() {
		return false, errLiveClosed
	}
	if !lx.deleteLocked(id) {
		return false, nil
	}
	if lx.wal != nil {
		if werr := lx.wal.append(walEncodeDelete(id)); werr != nil {
			// Never durable, so never visible: put the document back.
			lx.undeleteLocked(id)
			return false, fmt.Errorf("era: delete rolled back; WAL write failed: %w", werr)
		}
	}
	lx.publishLocked()
	lx.epoch.Add(1)
	return true, nil
}

// findLocked locates the tier — a memtable extent or a sealed tier — holding
// the document with the given id, and its local index there. Caller holds mu.
func (lx *LiveIndex) findLocked(id uint64) (*tierState, int) {
	for _, tiers := range [2][]*tierState{lx.mem, lx.sealed} {
		for _, st := range tiers {
			if i := searchIDs(st.ids, id); i >= 0 {
				return st, i
			}
		}
	}
	return nil, -1
}

// deleteLocked tombstones id, reporting whether it named a live document.
func (lx *LiveIndex) deleteLocked(id uint64) bool {
	st, i := lx.findLocked(id)
	if st == nil || st.dead[i] {
		return false
	}
	st.dead[i] = true
	st.nDead++
	return true
}

// undeleteLocked reverses a just-applied deleteLocked whose WAL record
// failed to land. Caller holds mu.
func (lx *LiveIndex) undeleteLocked(id uint64) {
	st, i := lx.findLocked(id)
	st.dead[i] = false
	st.nDead--
}

// searchIDs finds id in the ascending slice, or -1.
func searchIDs(ids []uint64, id uint64) int {
	i := sort.Search(len(ids), func(j int) bool { return ids[j] >= id })
	if i < len(ids) && ids[i] == id {
		return i
	}
	return -1
}

// Epoch returns the mutation epoch: it increases on every visible mutation
// (append, delete), and only then. Serving layers key caches by it.
func (lx *LiveIndex) Epoch() uint64 { return lx.epoch.Load() }

// Name returns the corpus name.
func (lx *LiveIndex) Name() string { return lx.name }

// SetName renames the index. Like Index.SetName, call it before the index
// is shared; the name persists at the next manifest write.
func (lx *LiveIndex) SetName(name string) { lx.name = name }

// Alphabet returns the alphabet of the current snapshot (the inferred union
// over all live documents, or the fixed configured one).
func (lx *LiveIndex) Alphabet() *alphabet.Alphabet { return lx.snap.Load().alpha }

// Len returns the virtual global string length: live content bytes plus the
// single terminator.
func (lx *LiveIndex) Len() int { return lx.snap.Load().totalLen }

// NumDocs returns the number of live (non-tombstoned) documents.
func (lx *LiveIndex) NumDocs() int { return lx.snap.Load().numDocs }

// TreeNodes sums the tier trees' node counts (tombstoned content included —
// it still occupies tree nodes until compaction).
func (lx *LiveIndex) TreeNodes() int64 { return lx.snap.Load().treeNodes }

// MappedBytes sums the mapped sizes of the current snapshot's tiers.
func (lx *LiveIndex) MappedBytes() int64 { return lx.snap.Load().mapped }

// ResidentBytes sums the tiers' resident set contributions.
func (lx *LiveIndex) ResidentBytes() int64 {
	s := lx.acquire()
	if s == nil {
		return 0
	}
	defer s.release()
	var n int64
	for _, t := range s.tiers {
		n += t.h.idx.ResidentBytes()
	}
	return n
}

// Contains reports whether the pattern occurs in the live corpus: a one-op
// Batch.
func (lx *LiveIndex) Contains(p []byte) bool {
	return lx.Batch([]Op{{Kind: OpContains, Pattern: p}})[0].Found
}

// Count returns the number of occurrences of the pattern: a one-op Batch.
func (lx *LiveIndex) Count(p []byte) int {
	return lx.Batch([]Op{{Kind: OpCount, Pattern: p}})[0].Count
}

// Occurrences returns the ascending global offsets of every occurrence. A
// closed index or a tier failing checksum verification surfaces an error
// (the latter wrapping ErrCorruptIndex) instead of a silently short list.
func (lx *LiveIndex) Occurrences(p []byte) ([]int, error) {
	s := lx.acquire()
	if s == nil {
		return nil, errLiveClosed
	}
	defer s.release()
	if err := s.checkErr(); err != nil {
		return nil, err
	}
	occ := s.batch([]Op{{Kind: OpOccurrences, Pattern: p}})[0].Occurrences
	if occ == nil {
		occ = []int{} // Index.Occurrences answers nothing with an empty list
	}
	return occ, nil
}

// DocOccurrences returns per-document hits, sorted by (Doc, Offset), with
// document numbers being live ordinals (tombstoned documents renumber their
// successors, exactly as a rebuild over the survivors would).
func (lx *LiveIndex) DocOccurrences(p []byte) ([]DocHit, error) {
	s := lx.acquire()
	if s == nil {
		return nil, errLiveClosed
	}
	defer s.release()
	if err := s.checkErr(); err != nil {
		return nil, err
	}
	return s.docOccurrences(p), nil
}

// Batch answers many queries against one consistent snapshot: every op sees
// the same mutation epoch, regardless of concurrent appends or deletes.
func (lx *LiveIndex) Batch(ops []Op) []Result {
	s := lx.acquire()
	if s == nil {
		return make([]Result, len(ops))
	}
	defer s.release()
	return s.batch(ops)
}

// Frozen materializes the current live contents as an immutable monolithic
// Index: the same answers, rebuilt from scratch over the live documents.
func (lx *LiveIndex) Frozen() (*Index, error) {
	s := lx.acquire()
	if s == nil {
		return nil, errLiveClosed
	}
	defer s.release()
	docs := s.liveDocs()
	if len(docs) == 0 {
		return nil, fmt.Errorf("era: live index %q holds no live documents", lx.name)
	}
	cfg := lx.buildConfig()
	cfg.Alphabet = s.alpha
	idx, err := build(context.Background(), docs, &cfg)
	if err != nil {
		return nil, err
	}
	idx.SetName(lx.name)
	return idx, nil
}

// WriteFile exports a point-in-time frozen copy as a monolithic v4 file.
// The live directory's own persistence is the manifest + tier files; this
// is for snapshotting a live corpus into the static serving path.
func (lx *LiveIndex) WriteFile(path string) error {
	idx, err := lx.Frozen()
	if err != nil {
		return err
	}
	return idx.WriteFile(path)
}

// Close cancels a running compaction and waits for it to stop, seals any
// pending memtable in directory mode (so acknowledged appends survive;
// Close never compacts), and releases ownership of every tier. Tiers unmap
// once the last in-flight query drains; queries arriving after Close answer
// empty. Close is idempotent.
func (lx *LiveIndex) Close() error {
	lx.cancel()
	lx.compactMu.Lock() // the build reads the mapped tiers released below
	defer lx.compactMu.Unlock()
	lx.mu.Lock()
	defer lx.mu.Unlock()
	if lx.closedFl.Load() {
		return nil
	}
	var errs []error
	if lx.dir != "" && len(lx.mem) > 0 {
		if _, err := lx.sealLocked(); err != nil {
			errs = append(errs, err)
		}
	}
	if lx.wal != nil {
		if err := lx.wal.close(); err != nil {
			errs = append(errs, err)
		}
		lx.wal = nil
	}
	lx.closedFl.Store(true)
	if s := lx.snap.Load(); s != nil {
		s.release()
	}
	for _, st := range lx.sealed {
		st.h.release()
	}
	lx.sealed, lx.mem = nil, nil
	return errors.Join(errs...)
}

// LiveStats is a point-in-time summary of a live index's tier stack and
// maintenance history.
type LiveStats struct {
	Tiers         int           // sealed tiers
	MemtableDocs  int           // pending (unsealed) documents, dead included
	LiveDocs      int           // surviving documents across all tiers
	DeadDocs      int           // tombstones not yet compacted away
	Seals         int64         // memtable seals over the index's life
	Compactions   int64         // folds of a run of sealed tiers (Compact's of all of them included) over the index's life
	MutationPause time.Duration // cumulative wall time mutations stalled on seals and compaction swaps (not builds)
	NextID        uint64        // the id the next appended document receives
	Epoch         uint64        // current mutation epoch
	Quarantined   []string      // tier files renamed *.quarantine at load for failing validation
}

// Stats returns maintenance counters and tier occupancy.
func (lx *LiveIndex) Stats() LiveStats {
	lx.mu.Lock()
	defer lx.mu.Unlock()
	memDocs, _ := lx.memSizeLocked()
	st := LiveStats{
		Tiers:         len(lx.sealed),
		MemtableDocs:  memDocs,
		Seals:         lx.seals,
		Compactions:   lx.compactions,
		MutationPause: lx.mutPause,
		NextID:        lx.nextID,
		Epoch:         lx.epoch.Load(),
		Quarantined:   append([]string(nil), lx.quarantined...),
	}
	for _, t := range slices.Concat(lx.mem, lx.sealed) {
		st.DeadDocs += t.nDead
	}
	if s := lx.snap.Load(); s != nil {
		st.LiveDocs = s.numDocs
	}
	return st
}
