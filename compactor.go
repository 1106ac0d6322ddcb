package era

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"strings"
	"time"
)

// Tier maintenance for LiveIndex: sealing the memtable into an immutable
// tier, compacting the sealed tier set back into one, and the manifest that
// makes both durable.
//
// File discipline is the one every index file follows: tier files and the
// manifest are written to a temporary name, fsynced, renamed into place and
// the directory fsynced (commitFile, persist.go), never rewritten. The
// manifest is streamed (publishFile); a tier is built in its tmp file, which
// is reserved and mapped at its final size so the build writes the string,
// the suffix array and the records where they are published
// (buildTierFile) — streamed from the heap only where blocks cannot be
// reserved. A build that fails or is cancelled removes its tmp; what a crash
// leaves, NewLive removes (sweep). Replaced tier files are unlinked
// immediately after the manifest swap; snapshots still reading them are
// safe because their mmap keeps the inode alive until the last reference
// drains (the tierHandle refcount closes the mapping, which releases the
// inode).
//
// A seal runs under LiveIndex.mu. A compaction holds compactMu, and mu only
// to copy what it folds and to swap its tier in: mutations proceed while it
// builds, and Close cancels the build.

const (
	// liveManifestName is the manifest file inside a live directory. Its
	// ".idx" suffix means Engine.LoadDir picks it up like any index file;
	// OpenIndex recognizes the kind-2 header and opens the live directory.
	liveManifestName = "live.idx"
	// liveTierPattern names sealed tier files, and liveTierGlob matches
	// them. The ".tier" suffix keeps LoadDir from double-loading them
	// alongside the manifest.
	liveTierPattern = "tier-%06d.tier"
	liveTierGlob    = "tier-*.tier"
)

// Seal forces the memtable into a sealed tier (a v4 file in directory mode)
// regardless of thresholds, compacting if that brings the stack to MaxTiers.
// A no-op when the memtable is empty.
func (lx *LiveIndex) Seal() (err error) {
	var full bool
	defer func() { err = errors.Join(err, lx.compactIf(full)) }() // after mu is released
	lx.mu.Lock()
	defer lx.mu.Unlock()
	if lx.closedFl.Load() {
		return errLiveClosed
	}
	full, err = lx.sealLocked()
	return err
}

// Compact seals any pending memtable, then folds every sealed tier into
// one, dropping tombstoned documents for good. A compaction already running
// finishes first.
func (lx *LiveIndex) Compact() error {
	lx.compactMu.Lock()
	defer lx.compactMu.Unlock()
	if err := lx.Seal(); err != nil {
		return err
	}
	return lx.compact()
}

// compactIf runs the compaction a seal that brought the stack to MaxTiers
// (full) triggers; its caller waits for it. If one is already running it
// returns at once, and the tiers sealed meanwhile wait for the next trigger.
func (lx *LiveIndex) compactIf(full bool) error {
	if !full || !lx.compactMu.TryLock() {
		return nil
	}
	defer lx.compactMu.Unlock()
	return lx.compact()
}

// sealLocked converts the memtable into a sealed tier — one build over its
// documents, tombstoned ones included (they are filtered at query time like
// any tier's) — and publishes the new stack; full reports that it holds
// MaxTiers tiers. A failed build or tier write leaves the memtable serving as
// it was. A seal covers at most one memtable: nothing cancels it. Caller
// holds mu.
func (lx *LiveIndex) sealLocked() (full bool, err error) {
	if len(lx.mem) == 0 {
		return false, nil
	}
	start := time.Now()
	st, err := lx.buildTierLocked(lx.mem, false)(context.Background())
	if err != nil {
		return false, err
	}
	lx.sealed = append(lx.sealed, st)
	lx.mem = nil
	errs := lx.commitTiersLocked()
	lx.seals++
	lx.mutPause += time.Since(start)
	return len(lx.sealed) >= lx.cfg.MaxTiers, errors.Join(errs...)
}

// compact merges the surviving documents of every sealed tier (ids
// preserved) into one freshly built tier, swaps the manifest, and unlinks the
// replaced tier files. Caller holds compactMu and not mu, which compact takes
// to copy what it folds and to swap the new tier in.
func (lx *LiveIndex) compact() error {
	lx.mu.Lock()
	from := slices.Clone(lx.sealed)
	if len(from) == 0 || (len(from) == 1 && from[0].nDead == 0) {
		lx.mu.Unlock()
		return nil
	}
	build := lx.buildTierLocked(from, true)
	lx.mu.Unlock()

	// Only this swap and Close, which both hold compactMu, release the
	// tiers whose mapped bytes the build reads.
	st, err := build(lx.stop)
	if err != nil {
		return err
	}
	lx.mu.Lock()
	defer lx.mu.Unlock()
	start := time.Now()
	var head []*tierState
	if st != nil {
		// Deletes that landed during the build tombstone the new copies.
		for _, t := range from {
			for d, gone := range t.dead {
				if gone {
					if i := searchIDs(st.ids, t.ids[d]); i >= 0 {
						st.dead[i] = true
						st.nDead++
					}
				}
			}
		}
		head = []*tierState{st}
	}
	// Compactions are serialized and seals only append, so the folded tiers
	// are still the head of the stack; the tiers sealed meanwhile follow.
	lx.sealed = slices.Concat(head, lx.sealed[len(from):])
	errs := lx.commitTiersLocked()
	for _, t := range from {
		if t.h.file != "" {
			lx.fs.Remove(filepath.Join(lx.dir, t.h.file))
		}
		t.h.release()
	}
	lx.compactions++
	lx.mutPause += time.Since(start)
	return errors.Join(errs...)
}

// buildTierLocked copies out, under mu, what the one build a seal or
// compaction pays needs: the documents of the given tiers (all, or only the
// survivors), the alphabet and a reserved tier number. The build it returns
// needs no lock (ctx stops ERA); its tier is the heap-resident index, or in
// directory mode a tier file the build writes in place (buildTierFile),
// mapped back in.
func (lx *LiveIndex) buildTierLocked(from []*tierState, liveOnly bool) func(ctx context.Context) (*tierState, error) {
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
				dead = append(dead, t.dead[d] && !liveOnly)
			}
			start = end
		}
		if !liveOnly {
			nDead += t.nDead
		}
	}
	bcfg := lx.buildConfig()
	bcfg.Alphabet = lx.alpha
	seq := lx.tierSeq
	lx.tierSeq++
	return func(ctx context.Context) (*tierState, error) {
		if len(docs) == 0 {
			return nil, nil
		}
		if lx.dir == "" {
			idx, err := build(ctx, docs, &bcfg)
			if err != nil {
				return nil, err
			}
			return sealedTier(idx, "", ids, dead, nDead), nil
		}
		// The manifest written next will point at the tier, so its
		// directory entry is durable before the build returns.
		file := fmt.Sprintf(liveTierPattern, seq)
		idx, err := buildTierFile(ctx, lx.fs, filepath.Join(lx.dir, file), docs, &bcfg)
		if err != nil {
			return nil, err
		}
		return sealedTier(idx, file, ids, dead, nDead), nil
	}
}

// commitTiersLocked makes a changed sealed-tier stack durable and visible:
// the manifest swap, the WAL rotation it licenses when the memtable is empty,
// and the new snapshot. Caller holds mu.
func (lx *LiveIndex) commitTiersLocked() (errs []error) {
	if lx.dir != "" {
		if err := lx.writeManifestLocked(); err != nil {
			errs = append(errs, err)
		} else if lx.wal != nil && len(lx.mem) == 0 {
			// With no document unsealed, the manifest covers everything the
			// log recorded: discard it. A lost rotate is harmless (replay
			// skips covered records by id); one before a durable manifest is not.
			if err := lx.wal.rotate(); err != nil {
				errs = append(errs, err)
			}
		}
	}
	lx.publishLocked()
	return errs
}

// writeManifestLocked swaps the manifest (publishFile). Caller holds mu; the
// manifest records the sealed tiers, and as nextID the first unsealed id: WAL
// replay skips the records below it as sealed and restores the memtable from
// the rest.
func (lx *LiveIndex) writeManifestLocked() error {
	m := &liveManifest{name: lx.name, nextID: lx.nextID, tierSeq: lx.tierSeq}
	if len(lx.mem) > 0 { // an extent holds at least the batch that made it
		m.nextID = lx.mem[0].ids[0]
	}
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

// liveLeftover reports whether name, a file in a live directory whose
// manifest lists the tier files in listed, is one a crash left behind: a tier
// file the manifest does not list — published but never listed, or folded by
// a compaction whose unlinks did not run — or a *.tmp, a publish that never
// renamed. Quarantined tiers (*.quarantine) are neither.
func liveLeftover(name string, listed map[string]bool) bool {
	if strings.HasSuffix(name, ".tmp") {
		return true
	}
	tier, _ := filepath.Match(liveTierGlob, name)
	return tier && !listed[name]
}

// sweep removes the leftovers (liveLeftover) of the loaded manifest's
// directory and syncs it, best-effort: a file it cannot remove is harmless,
// and the next open tries again. Removing an unlisted tier loses nothing,
// because the WAL rotates only after a manifest that lists a tier is
// durable: until then the tier's documents are still in the log. A tier
// whose quarantine rename failed keeps its name. Runs during NewLive, after
// loadManifest and before any concurrency exists.
func (lx *LiveIndex) sweep() {
	keep := map[string]bool{}
	for _, st := range lx.sealed {
		keep[st.h.file] = true
	}
	for _, q := range lx.quarantined {
		keep[q] = true
	}
	entries, err := lx.fs.ReadDir(lx.dir)
	if err != nil {
		return
	}
	removed := false
	for _, e := range entries {
		if !e.IsDir() && liveLeftover(e.Name(), keep) {
			removed = lx.fs.Remove(filepath.Join(lx.dir, e.Name())) == nil || removed
		}
	}
	if removed {
		lx.fs.SyncDir(lx.dir)
	}
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
