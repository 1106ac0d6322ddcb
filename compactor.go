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
// tier, folding a run of sealed tiers into one, and the manifest that makes
// both durable.
//
// The policy is size-tiered, as in an LSM tree (O'Neil et al., "The
// Log-Structured Merge-Tree", 1996). A seal that fills the stack folds only
// its newest run of tiers (foldStart), the run growing toward older tiers
// while its live bytes reach the next older tier's; Compact folds them all.
// With equal seals the stack behaves as a binary counter: a symbol is rebuilt
// about once each time the tiers below it double, and about once per
// doubling of the corpus a fold carries through the whole stack — that fold,
// and the Append that waits for it, cost a rebuild of the corpus.
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
// regardless of thresholds, folding tiers if that brings the stack to
// MaxTiers. A no-op when the memtable is empty.
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
	return lx.compact(true)
}

// compactIf runs the compaction a seal that brought the stack to MaxTiers
// (full) triggers; its caller waits for it. If one is already running it
// returns at once: that one re-checks the stack after its swap.
func (lx *LiveIndex) compactIf(full bool) error {
	if !full || !lx.compactMu.TryLock() {
		return nil
	}
	defer lx.compactMu.Unlock()
	return lx.compact(false)
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
	symbols, _ := st.sizes()
	lx.built += int64(symbols)
	lx.mutPause += time.Since(start)
	return len(lx.sealed) >= lx.cfg.MaxTiers, errors.Join(errs...)
}

// compact folds every sealed tier (all) or the run foldStart picks, then
// picks and folds again while the stack still holds MaxTiers tiers: tiers
// sealed during a build found the compaction running and did not start one.
// It stops re-checking once Close cancels, and after MaxTiers rounds, so
// appends that seal as fast as folds build cannot hold the triggering call
// for ever (the next seal triggers again). Caller holds compactMu and not mu.
func (lx *LiveIndex) compact(all bool) error {
	for round := 0; ; round++ {
		folded, err := lx.fold(all)
		if err != nil || !folded || round == lx.cfg.MaxTiers || lx.stop.Err() != nil {
			return err
		}
		lx.mu.Lock()
		full := len(lx.sealed) >= lx.cfg.MaxTiers
		lx.mu.Unlock()
		if !full {
			return nil
		}
		all = false
	}
}

// foldStart picks the run sealed[j:] a filled stack folds: starting from the
// newest two tiers, the run grows toward older ones while its live bytes are
// at least the next older tier's. A tier whose dead bytes are at least half
// its bytes joins the run too, with every tier newer than it, so the run
// stays contiguous: past a trigger no tier it saw is more than half dead, and
// deleted bytes do not wait for a carry to reach them. Caller holds mu.
func foldStart(sealed []*tierState) int {
	live := func(t *tierState) int { _, n := t.sizes(); return n }
	j := max(len(sealed)-2, 0)
	run := 0
	for _, t := range sealed[j:] {
		run += live(t)
	}
	for j > 0 && run >= live(sealed[j-1]) {
		j--
		run += live(sealed[j])
	}
	for i, t := range sealed[:j] {
		if total, n := t.sizes(); t.nDead > 0 && 2*(total-n) >= total {
			return i
		}
	}
	return j
}

// fold merges the surviving documents (ids preserved) of every sealed tier
// (all) or of the run foldStart picks into one freshly built tier, swaps it
// in for them, swaps the manifest, and unlinks the replaced tier files. It
// reports whether it replaced anything. It takes mu to copy what it folds and
// to swap the new tier in, and builds without it.
func (lx *LiveIndex) fold(all bool) (bool, error) {
	lx.mu.Lock()
	j := 0
	if !all {
		j = foldStart(lx.sealed)
	}
	from := slices.Clone(lx.sealed[j:])
	if len(from) == 0 || (len(from) == 1 && from[0].nDead == 0) {
		lx.mu.Unlock()
		return false, nil
	}
	build := lx.buildTierLocked(from, true)
	lx.mu.Unlock()

	// Only this swap and Close, which both hold compactMu, release the
	// tiers whose mapped bytes the build reads.
	st, err := build(lx.stop)
	if err != nil {
		return false, err
	}
	lx.mu.Lock()
	defer lx.mu.Unlock()
	start := time.Now()
	var mid []*tierState
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
		mid = []*tierState{st}
		symbols, _ := st.sizes()
		lx.built += int64(symbols)
	}
	// Compactions are serialized and seals only append, so the folded run is
	// still sealed[j:j+len(from)]: behind the older tiers it did not fold,
	// ahead of the tiers sealed meanwhile. The new tier takes its place, so
	// tiers keep holding contiguous, ascending id ranges.
	lx.sealed = slices.Concat(lx.sealed[:j], mid, lx.sealed[j+len(from):])
	errs := lx.commitTiersLocked()
	for _, t := range from {
		if t.h.file != "" {
			lx.fs.Remove(filepath.Join(lx.dir, t.h.file))
		}
		t.h.release()
	}
	lx.compactions++
	lx.mutPause += time.Since(start)
	return true, errors.Join(errs...)
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
