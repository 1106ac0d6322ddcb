package era

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"time"
)

// Tier maintenance for LiveIndex: sealing the memtable into an immutable
// tier, compacting the sealed tier set back into one, and the manifest that
// makes both durable.
//
// File discipline is the one every index file follows: tier files and the
// manifest are published by publishFile (persist.go) — written to a
// temporary name, fsynced, renamed into place, the directory fsynced —
// never rewritten. Replaced tier files are unlinked
// immediately after the manifest swap; snapshots still reading them are
// safe because their mmap keeps the inode alive until the last reference
// drains (the tierHandle refcount closes the mapping, which releases the
// inode).

const (
	// liveManifestName is the manifest file inside a live directory. Its
	// ".idx" suffix means Engine.LoadDir picks it up like any index file;
	// OpenIndex recognizes the kind-2 header and opens the live directory.
	liveManifestName = "live.idx"
	// liveTierPattern names sealed tier files. The ".tier" suffix keeps
	// LoadDir from double-loading them alongside the manifest.
	liveTierPattern = "tier-%06d.tier"
)

// memFullLocked reports whether the memtable has reached a seal threshold.
func (lx *LiveIndex) memFullLocked() bool {
	docs, size := lx.memSizeLocked()
	return docs >= lx.cfg.MemtableMaxDocs || size >= lx.cfg.MemtableMaxBytes
}

// Seal forces the memtable into a sealed tier (a v4 file in directory mode)
// regardless of thresholds. A no-op when the memtable is empty.
func (lx *LiveIndex) Seal() error {
	lx.mu.Lock()
	defer lx.mu.Unlock()
	if lx.closedFl.Load() {
		return errLiveClosed
	}
	return lx.sealLocked()
}

// Compact seals any pending memtable, then folds every sealed tier into
// one, dropping tombstoned documents for good.
func (lx *LiveIndex) Compact() error {
	lx.mu.Lock()
	defer lx.mu.Unlock()
	if lx.closedFl.Load() {
		return errLiveClosed
	}
	if err := lx.sealLocked(); err != nil {
		return err
	}
	return lx.compactLocked()
}

// sealLocked converts the memtable into a sealed tier — the one build its
// documents get, tombstoned ones included (they are filtered at query time
// like any tier's) — and publishes the new stack; at MaxTiers sealed tiers it
// compacts. A failed build or tier write leaves the memtable serving as it
// was. Caller holds mu.
func (lx *LiveIndex) sealLocked() error {
	if len(lx.mem) == 0 {
		return nil
	}
	start := time.Now()
	st, err := lx.buildTier(lx.mem, false)
	if err != nil {
		return err
	}
	lx.sealed = append(lx.sealed, st)
	lx.mem = nil
	errs := lx.commitTiersLocked()
	lx.seals++
	lx.mutPause += time.Since(start)
	if len(lx.sealed) >= lx.cfg.MaxTiers {
		if err := lx.compactLocked(); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// compactLocked merges the surviving documents of every sealed tier (ids
// preserved) into one freshly built tier, swaps the manifest, and unlinks
// the replaced tier files. Caller holds mu.
func (lx *LiveIndex) compactLocked() error {
	if len(lx.sealed) == 0 || (len(lx.sealed) == 1 && lx.sealed[0].nDead == 0) {
		return nil
	}
	start := time.Now()
	// The build copies the document bytes up front; the old tiers stay alive
	// until the swap below.
	st, err := lx.buildTier(lx.sealed, true)
	if err != nil {
		return err
	}
	old := lx.sealed
	lx.sealed = nil
	if st != nil {
		lx.sealed = []*tierState{st}
	}
	errs := lx.commitTiersLocked()
	for _, st := range old {
		if st.h.file != "" {
			lx.fs.Remove(filepath.Join(lx.dir, st.h.file))
		}
		st.h.release()
	}
	lx.compactions++
	lx.mutPause += time.Since(start)
	return errors.Join(errs...)
}

// buildTier folds the documents of the given tiers — all of them, or only
// the survivors — into one sealed tier (nil when none qualifies) through the
// single ERA build a seal or compaction pays. The tier is the heap-resident
// index itself, or in directory mode the next tier file, written from the
// sections it holds and mapped back in.
func (lx *LiveIndex) buildTier(from []*tierState, liveOnly bool) (*tierState, error) {
	var (
		docs  [][]byte
		ids   []uint64
		dead  []bool
		nDead int
	)
	for _, t := range from {
		start := int32(0)
		for d, end := range t.docEnds {
			if !liveOnly || !t.dead[d] {
				docs = append(docs, t.data[start:end])
				ids = append(ids, t.ids[d])
				dead = append(dead, t.dead[d])
			}
			start = end
		}
		if !liveOnly {
			nDead += t.nDead
		}
	}
	if len(docs) == 0 {
		return nil, nil
	}
	bcfg := lx.buildConfig()
	bcfg.Alphabet = lx.alpha
	idx, err := build(docs, &bcfg)
	if err != nil {
		return nil, err
	}
	file := ""
	if lx.dir != "" {
		file = fmt.Sprintf(liveTierPattern, lx.tierSeq)
		if idx, err = lx.writeTierFile(file, idx); err != nil {
			return nil, err // the file never landed; the sequence number is reused
		}
		lx.tierSeq++
	}
	return sealedTier(idx, file, ids, dead, nDead), nil
}

// commitTiersLocked makes a changed sealed-tier stack durable and visible:
// the manifest swap, the WAL rotation it licenses, and the new snapshot.
// Caller holds mu, with the memtable already empty.
func (lx *LiveIndex) commitTiersLocked() (errs []error) {
	if lx.dir != "" {
		if err := lx.writeManifestLocked(); err != nil {
			errs = append(errs, err)
		} else if lx.wal != nil {
			// The manifest now covers everything the log recorded; discard
			// it. A lost rotate is harmless — replay skips covered records
			// by id — but a rotate before a durable manifest would not be.
			if err := lx.wal.rotate(); err != nil {
				errs = append(errs, err)
			}
		}
	}
	lx.publishLocked()
	return errs
}

// compactLoop is the background maintenance goroutine (LiveConfig
// Background): it seals (and transitively compacts) whenever Append kicks
// it past a threshold, keeping the mutating call itself fast.
func (lx *LiveIndex) compactLoop() {
	defer close(lx.donec)
	for {
		select {
		case <-lx.stopc:
			return
		case <-lx.kick:
			lx.mu.Lock()
			if !lx.closedFl.Load() && lx.memFullLocked() {
				if err := lx.sealLocked(); err != nil && lx.bgErr == nil {
					lx.bgErr = err
				}
			}
			lx.mu.Unlock()
		}
	}
}

// writeTierFile writes idx as a v4 tier file (publishFile) and maps it back
// in, returning the mapped replacement.
func (lx *LiveIndex) writeTierFile(file string, idx *Index) (*Index, error) {
	// The manifest written next will point at the tier, so publishFile makes
	// its directory entry durable first.
	path := filepath.Join(lx.dir, file)
	if err := publishFile(lx.fs, path, idx); err != nil {
		return nil, err
	}
	opened, err := OpenIndex(path)
	if err != nil {
		return nil, fmt.Errorf("era: reopening sealed tier: %w", err)
	}
	mono, ok := opened.(*Index)
	if !ok {
		opened.Close()
		return nil, fmt.Errorf("era: sealed tier %s is not a monolithic index", path)
	}
	return mono, nil
}

// writeManifestLocked swaps the manifest (publishFile). Caller holds
// mu; the manifest records the sealed tiers only. It refuses to run while
// the memtable holds documents: the manifest's nextID would then cover their
// ids, and WAL replay — which skips records below nextID as already sealed —
// would silently drop the acknowledged batch.
func (lx *LiveIndex) writeManifestLocked() error {
	if n, _ := lx.memSizeLocked(); n > 0 {
		return fmt.Errorf("era: internal: manifest write with %d unsealed documents would orphan their WAL records", n)
	}
	m := &liveManifest{name: lx.name, nextID: lx.nextID, tierSeq: lx.tierSeq}
	for _, st := range lx.sealed {
		mt := liveManifestTier{file: st.h.file, ids: st.ids}
		for i, d := range st.dead {
			if d {
				mt.dead = append(mt.dead, uint32(i))
			}
		}
		m.tiers = append(m.tiers, mt)
	}
	buf, err := encodeLiveManifest(m)
	if err != nil {
		return err
	}
	// Callers rotate the WAL only after the manifest swap is fully durable,
	// which includes the directory entry: publishFile surfaces its fsync
	// failure.
	return publishFile(lx.fs, filepath.Join(lx.dir, liveManifestName), bytes.NewReader(buf))
}

// loadManifest restores the sealed tier stack from a manifest file, mapping
// every tier back in. A tier that fails to open, validate, or checksum is
// quarantined — renamed aside, its documents dropped — rather than failing
// the whole corpus: serving the surviving tiers beats serving nothing, and
// the renamed file stays on disk for forensics. Runs during NewLive, before
// any concurrency exists.
func (lx *LiveIndex) loadManifest(path string) error {
	buf, err := lx.fs.ReadFile(path)
	if err != nil {
		return err
	}
	m, err := parseLiveManifest(buf)
	if err != nil {
		return fmt.Errorf("reading live manifest %s: %w", path, err)
	}
	lx.nextID, lx.tierSeq = m.nextID, m.tierSeq
	if lx.name == "" {
		lx.name = m.name
	}
	for _, mt := range m.tiers {
		idx, err := openLiveTier(filepath.Join(lx.dir, mt.file), len(mt.ids))
		if err != nil {
			// Move the damaged file aside (best-effort: if even the rename
			// fails the manifest rewrite below still drops the reference)
			// and keep loading. The id space keeps the hole.
			tpath := filepath.Join(lx.dir, mt.file)
			lx.fs.Rename(tpath, tpath+".quarantine")
			lx.quarantined = append(lx.quarantined, mt.file)
			continue
		}
		dead := make([]bool, len(mt.ids))
		for _, di := range mt.dead {
			dead[di] = true
		}
		lx.sealed = append(lx.sealed, sealedTier(idx, mt.file, mt.ids, dead, len(mt.dead)))
		if !lx.fixedAlpha {
			for _, b := range idx.Alphabet().Symbols() {
				lx.seen[b] = true
			}
		}
	}
	if !lx.fixedAlpha && len(lx.sealed) > 0 {
		if a, err := alphabetFromSeen(&lx.seen); err == nil {
			lx.alpha = a
		}
	}
	if len(lx.quarantined) > 0 {
		// Best-effort: drop the quarantined tiers' manifest entries so the
		// next open does not trip over the renamed files. Failure is fine —
		// reopening just quarantines the (now missing) files again.
		lx.writeManifestLocked()
	}
	return nil
}

// openLiveTier opens and fully validates one sealed tier file: it must be a
// monolithic v4 image over the whole suffix order (not a shard's range of
// it), hold exactly the manifest's document count, and pass
// every stored checksum (verified eagerly here — a live tier's bytes feed
// compaction, so corruption must surface at load, not mid-merge). Opening a
// live directory and Verify both vet tiers through it.
func openLiveTier(path string, wantDocs int) (*Index, error) {
	q, err := OpenIndex(path)
	if err != nil {
		return nil, err
	}
	idx, ok := q.(*Index)
	if !ok {
		q.Close()
		return nil, fmt.Errorf("era: live tier %s is not a monolithic index", path)
	}
	if idx.NumDocs() != wantDocs {
		idx.Close()
		return nil, fmt.Errorf("era: live tier %s holds %d documents, manifest says %d", path, idx.NumDocs(), wantDocs)
	}
	if len(idx.lo)+len(idx.hi) > 0 {
		idx.Close()
		return nil, fmt.Errorf("era: live tier %s holds one range of the suffix order, not all of it", path)
	}
	if err := idx.CheckErr(); err != nil {
		idx.Close()
		return nil, err
	}
	return idx, nil
}
