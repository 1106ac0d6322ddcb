// Package server is the concurrent query-serving layer over era indexes:
// a thread-safe multi-index Engine answering the classic suffix tree
// queries, an LRU result cache, and a JSON-over-HTTP front end (http.go).
//
// The ERA paper builds suffix trees because of the O(|P|) queries they
// enable (§1); this package is where those queries meet traffic. The hot
// read path takes no lock at all: the index catalog is an immutable map
// swapped atomically by writers (copy-on-write), and an Index itself is
// immutable once built, so any number of goroutines descend the trees in
// parallel. Only the result cache — which must mutate recency state on a
// hit — takes a (sharded) mutex.
package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"era"
	"era/internal/alphabet"
)

// ErrUnknownIndex reports a query addressed to an index name that is not
// loaded. The HTTP layer maps it — and only it — to 404; any other engine
// error is a server-side problem and surfaces as 500.
var ErrUnknownIndex = errors.New("unknown index")

// ErrNotMutable reports a mutation addressed to a static (snapshot) index.
// Only live indexes (era.LiveIndex, or anything else implementing Mutable)
// accept appends and deletes. The HTTP layer maps it to 400.
var ErrNotMutable = errors.New("index is not mutable")

// ErrBadDocument reports an appended document the engine rejected (it
// contains the reserved terminator byte). The HTTP layer maps it to 400.
var ErrBadDocument = errors.New("invalid document")

// ErrSaturated reports an append rejected because the target index already
// has MaxInflightAppends appends in flight. The HTTP layer maps it to 503
// with a Retry-After header; the rejection count is in Stats.
var ErrSaturated = errors.New("too many appends in flight")

// ErrCorruptIndex reports an index whose stored checksums failed
// verification when a request touched it; the engine quarantines the index
// (unloads it and renames its file *.quarantine) and keeps serving the rest
// of the catalog.
var ErrCorruptIndex = errors.New("index failed checksum verification")

// MaxInflightAppends is the per-index append concurrency bound. Appends
// serialize on the live index's internal mutex anyway; the bound caps how
// deep that queue gets before clients are told to back off.
const MaxInflightAppends = 8

// Mutable is the mutation surface a live index exposes through the engine:
// era.Queryable plus append/delete and a mutation epoch for cache keying.
// *era.LiveIndex implements it.
type Mutable interface {
	era.Queryable
	Append(docs [][]byte) ([]uint64, error)
	Delete(id uint64) (bool, error)
	Epoch() uint64
}

// Engine serves queries against a set of named indexes. Construct with
// NewEngine; all methods are safe for concurrent use.
type Engine struct {
	// catalog is copy-on-write: readers load the current map and never
	// block; writers clone it under mu and swap the pointer.
	catalog atomic.Pointer[map[string]*catalogEntry]
	mu      sync.Mutex // serializes catalog writers (Load/Unload/Close)

	cache *queryCache

	queries       atomic.Int64
	cacheHits     atomic.Int64
	cacheMisses   atomic.Int64
	appendRejects atomic.Int64
	nextEpoch     atomic.Uint64

	// quarantined lists files (base names) moved aside for failing checksum
	// or validation, at LoadDir or lazily when a request touched a corrupt
	// index. Guarded by mu.
	quarantined []string

	// retired tracks *mapped* entries replaced by a hot reload or Unload
	// that have not yet drained. Each catalog entry is reference-counted
	// (the catalog holds one reference, every in-flight query one more), so
	// a retired mapping is unmapped the moment its last racing query
	// returns — a reload or compaction loop's mapped memory stays bounded
	// instead of growing until Close. This list exists only for accounting
	// (MappedBytes) and as the Close backstop; drained entries are pruned
	// from it on the next retirement. Heap indexes are not tracked: their
	// memory is ordinary garbage once the last reference drops.
	retired []*catalogEntry
	closed  bool

	// notReady is set by SetReady(false) — the serve command flips it at
	// the start of a graceful drain so load balancers and the cluster
	// router's health checker stop sending new work before the listener
	// closes. Engines start ready.
	notReady atomic.Bool
}

// catalogEntry pairs an index — monolithic, sharded, or live, anything
// behind era.Queryable — with its load epoch and lifecycle state. The epoch
// is part of every cache key, so reloading a corpus under the same name
// orphans the stale cached results instead of serving them; a sharded index
// reloads (and purges) as one unit.
type catalogEntry struct {
	idx   era.Queryable
	epoch uint64
	// path is the backing file the index was loaded from ("" for indexes
	// handed to Load directly); the quarantine path renames it aside.
	path string
	// mapped caches idx.MappedBytes() at load: the accounting in
	// Engine.MappedBytes must not touch the index after a racing drain
	// closed its mapping.
	mapped int64
	// appendSem bounds in-flight appends (mutable indexes only; nil
	// otherwise). AppendDocs try-acquires: full means ErrSaturated.
	appendSem chan struct{}

	// refs counts the catalog's own reference plus every in-flight query.
	// Zero is terminal: the drop to zero closes the index, and acquire
	// refuses to resurrect the entry afterwards.
	refs atomic.Int64
	// retired is set (before the epoch's cache entries are purged) when the
	// entry leaves the catalog; batchEntry re-checks it after caching so a
	// put racing the purge cannot strand results under a dead epoch.
	retired atomic.Bool
	// closed is set once the deferred Close has run; closeErr (written
	// first) carries its error for Engine.Close to report.
	closed   atomic.Bool
	closeErr error
}

func newCatalogEntry(idx era.Queryable, epoch uint64) *catalogEntry {
	ent := &catalogEntry{idx: idx, epoch: epoch, mapped: idx.MappedBytes()}
	ent.refs.Store(1) // the catalog's reference
	return ent
}

// acquire takes an in-flight reference, failing once the entry drained.
func (ent *catalogEntry) acquire() bool {
	for {
		r := ent.refs.Load()
		if r <= 0 {
			return false
		}
		if ent.refs.CompareAndSwap(r, r+1) {
			return true
		}
	}
}

// release drops one reference; the holder of the last one closes the index
// (for a mapped index, that is the munmap). Exactly one goroutine observes
// the drop to zero.
func (ent *catalogEntry) release() {
	if ent.refs.Add(-1) == 0 {
		ent.closeErr = ent.idx.Close()
		ent.closed.Store(true)
	}
}

// NewEngine returns an engine whose result cache holds up to cacheSize
// query results (0 disables caching).
func NewEngine(cacheSize int) *Engine {
	e := &Engine{cache: newQueryCache(cacheSize)}
	e.catalog.Store(&map[string]*catalogEntry{})
	return e
}

// Load registers idx under its name, replacing any index already loaded
// under it (hot reload). The index must be named (era.Index.SetName, or
// loaded through era.OpenIndex which names unnamed files).
func (e *Engine) Load(idx era.Queryable) error { return e.loadPath(idx, "") }

func (e *Engine) loadPath(idx era.Queryable, path string) error {
	name := idx.Name()
	if name == "" {
		return fmt.Errorf("server: index has no name; call SetName before Load")
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return fmt.Errorf("server: engine is closed")
	}
	next := maps.Clone(*e.catalog.Load())
	replaced := next[name]
	ent := newCatalogEntry(idx, e.nextEpoch.Add(1))
	ent.path = path
	if _, mutable := idx.(Mutable); mutable {
		ent.appendSem = make(chan struct{}, MaxInflightAppends)
	}
	next[name] = ent
	e.catalog.Store(&next)
	if replaced != nil {
		if replaced.idx == idx {
			// The same object reloaded under a fresh epoch: purge the old
			// epoch's cache but leave the reference unreleased — draining
			// the old entry would close the index the new entry serves.
			replaced.retired.Store(true)
			e.cache.purgePrefix(epochPrefix(replaced.epoch))
		} else {
			e.retireEntryLocked(replaced)
		}
	}
	return nil
}

// retireEntryLocked takes an entry out of service after the catalog swap
// removed it: flags it retired, purges its cached results (in that order —
// the flag is what lets batchEntry detect a put racing this purge), records
// it for mapped-bytes accounting, and drops the catalog reference. Caller
// holds e.mu, and the catalog no longer references the entry.
func (e *Engine) retireEntryLocked(ent *catalogEntry) {
	ent.retired.Store(true)
	e.cache.purgePrefix(epochPrefix(ent.epoch))
	if ent.mapped > 0 {
		e.pruneRetiredLocked()
		e.retired = append(e.retired, ent)
	}
	ent.release()
}

// pruneRetiredLocked drops drained entries from the retired list so it
// cannot grow without bound across a long reload loop. Caller holds e.mu.
func (e *Engine) pruneRetiredLocked() {
	k := 0
	for _, ent := range e.retired {
		if !ent.closed.Load() {
			e.retired[k] = ent
			k++
		}
	}
	clear(e.retired[k:])
	e.retired = e.retired[:k]
}

// LoadFile opens the index file at path and registers it.
func (e *Engine) LoadFile(path string) (string, error) {
	idx, err := era.OpenIndex(path)
	if err != nil {
		return "", err
	}
	return idx.Name(), e.loadPath(idx, path)
}

// LoadDir registers every *.idx file in dir and returns the names loaded.
// A file that fails to load (corrupt, truncated, unreadable) no longer
// aborts the directory: the rest load, and the per-file failures come back
// joined into one error alongside the loaded names — so a startup can both
// serve the healthy catalog and report exactly which files need attention.
// A file whose content is damaged (as opposed to being unreadable at the
// filesystem level) is additionally quarantined: renamed *.quarantine so
// the next startup does not trip over it again, and listed in Stats. A file
// refused as old (era.ErrMustRebuild) is intact: it is reported with the
// rebuild message and stays where it is.
func (e *Engine) LoadDir(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	var errs []error
	matched := false
	for _, ent := range entries {
		if ent.IsDir() || !strings.HasSuffix(ent.Name(), ".idx") {
			continue
		}
		matched = true
		path := filepath.Join(dir, ent.Name())
		name, err := e.LoadFile(path)
		if err != nil {
			if !os.IsNotExist(err) && !os.IsPermission(err) && !errors.Is(err, era.ErrMustRebuild) {
				if rerr := os.Rename(path, path+".quarantine"); rerr == nil {
					e.noteQuarantine(ent.Name())
					err = fmt.Errorf("%w (quarantined as %s)", err, ent.Name()+".quarantine")
				}
			}
			errs = append(errs, fmt.Errorf("server: loading %s: %w", ent.Name(), err))
			continue
		}
		names = append(names, name)
	}
	if !matched {
		return nil, fmt.Errorf("server: no *.idx files in %s", dir)
	}
	return names, errors.Join(errs...)
}

// noteQuarantine records a quarantined file name for Stats.
func (e *Engine) noteQuarantine(file string) {
	e.mu.Lock()
	e.quarantined = append(e.quarantined, file)
	e.mu.Unlock()
}

// quarantineEntry takes a corrupt index out of service mid-serve: it
// unloads the entry (if it is still the cataloged one) and moves its
// backing file aside. The mapping behind any in-flight queries stays valid
// until they drain; new requests get ErrUnknownIndex.
func (e *Engine) quarantineEntry(name string, ent *catalogEntry) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return
	}
	if (*e.catalog.Load())[name] != ent {
		return // replaced or unloaded since; nothing to do
	}
	e.dropLocked(name, ent)
	if ent.path != "" {
		if err := os.Rename(ent.path, ent.path+".quarantine"); err == nil {
			e.quarantined = append(e.quarantined, filepath.Base(ent.path))
		}
	}
}

// Unload removes the index named name, reporting whether it was loaded.
// Unloading from a closed engine is a no-op: Close already emptied the
// catalog, and resurrecting retirement state after it drained would leak
// the mapping.
func (e *Engine) Unload(name string) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return false
	}
	ent, ok := (*e.catalog.Load())[name]
	if ok {
		e.dropLocked(name, ent)
	}
	return ok
}

// dropLocked swaps in the catalog without name and retires ent, the entry
// name held. Caller holds e.mu.
func (e *Engine) dropLocked(name string, ent *catalogEntry) {
	next := maps.Clone(*e.catalog.Load())
	delete(next, name)
	e.catalog.Store(&next)
	e.retireEntryLocked(ent)
}

// Close empties the catalog and closes every index the engine still holds —
// current, plus any retired mapping whose queries never drained — releasing
// the file mappings behind format-v4 indexes. Retired mappings normally
// unmap long before this, when their last in-flight query returns; Close is
// the backstop. Call it only after no queries can be in flight (after
// http.Server.Shutdown has drained); a query racing Close on a mapped index
// would fault. Idempotent; the engine serves no queries afterwards.
func (e *Engine) Close() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil
	}
	e.closed = true
	var errs []error
	cat := *e.catalog.Load()
	e.catalog.Store(&map[string]*catalogEntry{})
	for name, ent := range cat {
		ent.retired.Store(true)
		ent.release() // the catalog reference; with no queries in flight this closes now
		if ent.closed.Load() && ent.closeErr != nil {
			errs = append(errs, fmt.Errorf("server: closing %s: %w", name, ent.closeErr))
		}
	}
	for _, ent := range e.retired {
		if ent.closed.Load() {
			if ent.closeErr != nil {
				errs = append(errs, fmt.Errorf("server: closing retired %s: %w", ent.idx.Name(), ent.closeErr))
			}
			continue
		}
		if err := ent.idx.Close(); err != nil {
			errs = append(errs, fmt.Errorf("server: closing retired %s: %w", ent.idx.Name(), err))
		}
	}
	e.retired = nil
	return errors.Join(errs...)
}

// MappedBytes sums the mapped footprint of everything the engine still
// holds open: the cataloged indexes plus retired mappings whose in-flight
// queries have not yet drained. A reload or compaction loop must keep this
// bounded; growth proportional to reload count is the leak the refcounted
// retirement discipline exists to prevent.
func (e *Engine) MappedBytes() int64 {
	var n int64
	for _, ent := range *e.catalog.Load() {
		if ent.acquire() {
			n += ent.idx.MappedBytes()
			ent.release()
		}
	}
	e.mu.Lock()
	for _, ent := range e.retired {
		if !ent.closed.Load() {
			n += ent.mapped
		}
	}
	e.mu.Unlock()
	return n
}

// Get returns the index named name.
func (e *Engine) Get(name string) (era.Queryable, bool) {
	ent, ok := (*e.catalog.Load())[name]
	if !ok {
		return nil, false
	}
	return ent.idx, true
}

// Names returns the loaded index names, sorted.
func (e *Engine) Names() []string {
	cat := *e.catalog.Load()
	names := make([]string, 0, len(cat))
	for name := range cat {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Ready reports whether the engine should receive new traffic: it is not
// closed, has not been marked draining (SetReady(false)), and serves at
// least one index — an engine whose whole catalog was quarantined or never
// loaded is alive but not ready. The /readyz endpoint and the cluster
// router's health checker read this.
func (e *Engine) Ready() bool {
	if e.notReady.Load() {
		return false
	}
	e.mu.Lock()
	closed := e.closed
	e.mu.Unlock()
	return !closed && len(*e.catalog.Load()) > 0
}

// SetReady marks the engine ready (the default) or draining; see Ready.
func (e *Engine) SetReady(ready bool) { e.notReady.Store(!ready) }

// Query answers one op against the index named index. Results may be served
// from the cache; treat Result.Occurrences as read-only.
func (e *Engine) Query(index string, op era.Op) (era.Result, error) {
	res, err := e.Batch(index, []era.Op{op})
	if err != nil {
		return era.Result{}, err
	}
	return res[0], nil
}

// Batch answers ops against the index named index, in order. Cached results
// are served directly; the remaining ops share one era.Index.Batch call, so
// tree descents for related patterns are amortized. Treat the Occurrences
// of every result as read-only.
func (e *Engine) Batch(index string, ops []era.Op) ([]era.Result, error) {
	ent, err := e.acquireEntry(index)
	if err != nil {
		return nil, err
	}
	defer ent.release()
	return e.batchEntry(context.Background(), ent, ops)
}

// acquireEntry resolves a name to its catalog entry with an in-flight
// reference held; the caller must release it. The retry loop covers an
// entry draining between the catalog load and the acquire — retirement
// swaps the catalog before dropping the reference, so a reloaded snapshot
// is already visible by then and the loop terminates.
//
// Checksummed indexes verify lazily, and this is the first-touch gate: an
// index that turns out corrupt is quarantined here — unloaded, its file
// renamed aside — and the request fails with ErrCorruptIndex instead of a
// wrong answer. The rest of the catalog keeps serving.
func (e *Engine) acquireEntry(index string) (*catalogEntry, error) {
	for {
		ent, ok := (*e.catalog.Load())[index]
		if !ok {
			return nil, fmt.Errorf("server: %w: no index named %q loaded", ErrUnknownIndex, index)
		}
		if !ent.acquire() {
			continue
		}
		if c, checked := ent.idx.(interface{ CheckErr() error }); checked {
			if err := c.CheckErr(); err != nil {
				ent.release()
				e.quarantineEntry(index, ent)
				return nil, fmt.Errorf("server: %w: %q: %v", ErrCorruptIndex, index, err)
			}
		}
		return ent, nil
	}
}

// Answer is Batch with per-op plan validation (era.Query.Validate), the
// HTTP handler's Backend method: each op's own requirements are enforced —
// membership ops need a non-empty pattern inside the index's alphabet,
// analytics ops check their own parameters (k, min_len, document ordinals)
// and pattern-less ops are not rejected for having no pattern. A failure
// comes back as an *era.OpError naming the op and wrapping
// era.ErrInvalidQuery. Validation and execution use one catalog snapshot, so
// a concurrent hot reload cannot slip a pattern past a check made against a
// different index's alphabet. Batch keeps the lenient library semantics. An
// engine answers in full: partial is always nil.
//
// ctx is honored by the analytics executors (their long walks poll it
// periodically), so a canceled request or an expired server deadline
// abandons the work and surfaces ctx's error instead of running to
// completion against a client that already hung up.
func (e *Engine) Answer(ctx context.Context, index string, ops []era.Op) (results []era.Result, partial []bool, err error) {
	ent, err := e.acquireEntry(index)
	if err != nil {
		return nil, nil, err
	}
	defer ent.release()
	a := ent.idx.Alphabet()
	numDocs := ent.idx.NumDocs()
	for i, op := range ops {
		if err := op.Validate(a, numDocs); err != nil {
			return nil, nil, &era.OpError{Op: i, Err: err}
		}
	}
	results, err = e.batchEntry(ctx, ent, ops)
	return results, nil, err
}

// batchEntry answers ops against one resolved catalog entry; the caller
// holds an in-flight reference on it. Analytics ops execute through the
// layer's ctx-aware executor directly (membership ops share one amortized
// Queryable.Batch call, which cannot carry a context); a ctx cancellation
// aborts the whole batch with ctx's error, while any other analytics
// failure leaves that op's zero Result — the same discipline
// Queryable.Batch applies.
func (e *Engine) batchEntry(ctx context.Context, ent *catalogEntry, ops []era.Op) ([]era.Result, error) {
	e.queries.Add(int64(len(ops)))

	// A live index mutates under a stable load epoch, so its cache keys get
	// a second component: the mutation epoch observed before querying.
	// Results computed here may span a mutation (each op acquires its own
	// snapshot), so a post-put epoch re-check purges anything possibly
	// stale — same discipline as the retirement re-check below.
	prefix := epochPrefix(ent.epoch)
	var liveEpoch uint64
	live, isLive := ent.idx.(Mutable)
	if isLive {
		liveEpoch = live.Epoch()
		prefix += strconv.FormatUint(liveEpoch, 36) + "|"
	}

	// Patterns containing the reserved terminator byte can only "match"
	// the sentinel the builder appends internally — never corpus content —
	// so they are answered not-found without consulting the tree. Clients
	// must not see phantom occurrences of the internal '$'. Analytics ops
	// are exempt: their executors are content-windowed already (labels and
	// windows containing the terminator never surface), and several of them
	// legitimately carry no pattern at all.
	sane := func(op era.Op) bool {
		return op.Kind.IsAnalytic() || bytes.IndexByte(op.Pattern, alphabet.Terminator) < 0
	}

	// runAnalytic executes one analytics plan through the layer's ctx-aware
	// executor. A cancellation aborts the batch; any other executor error
	// (e.g. a corrupt index detected mid-walk) leaves the zero Result.
	runAnalytic := func(op era.Op) (era.Result, error) {
		a, err := ent.idx.Analytics(ctx, op)
		if err != nil {
			if cerr := ctx.Err(); cerr != nil {
				return era.Result{}, cerr
			}
			return era.Result{}, nil
		}
		return a, nil
	}

	// With the cache off (nil) no key is built, got or put.
	results := make([]era.Result, len(ops))
	var keys []string
	if e.cache != nil {
		keys = make([]string, len(ops))
	}
	// The cache is bounded in entries, so huge answer payloads (an
	// unlimited-max query on a frequent pattern can return O(corpus)
	// offsets; a low-min_len top-k can rank O(corpus) candidates) would
	// make its memory unbounded; serve them uncached.
	cachePut := func(i int, r era.Result) {
		if e.cache != nil && len(r.Occurrences) <= maxCachedOccurrences &&
			len(r.Top) <= maxCachedOccurrences &&
			len(r.Stats) <= maxCachedOccurrences {
			e.cache.put(keys[i], r)
		}
	}
	var missOps []era.Op
	var missAt []int
	var hits, misses int64
	for i, op := range ops {
		if !sane(op) {
			continue // results[i] stays the zero Result: not found
		}
		if e.cache != nil {
			keys[i] = cacheKey(prefix, op)
			if r, ok := e.cache.get(keys[i]); ok {
				results[i] = r
				hits++
				continue
			}
			misses++
		}
		if !op.Kind.IsAnalytic() {
			missOps = append(missOps, op)
			missAt = append(missAt, i)
			continue
		}
		a, err := runAnalytic(op)
		if err != nil {
			return nil, err
		}
		results[i] = a
		cachePut(i, a)
	}
	e.cacheHits.Add(hits)
	e.cacheMisses.Add(misses)
	if len(missOps) > 0 {
		for j, r := range ent.idx.Batch(missOps) {
			results[missAt[j]] = r
			cachePut(missAt[j], r)
		}
	}
	if misses == 0 {
		return results, nil
	}
	// Re-check after the puts: a Load/Unload that retired this entry — or a
	// mutation that moved a live index past the epoch these results were
	// keyed under — may have run its purge before the puts landed, which
	// would strand entries under a key prefix nothing ever purges again.
	// The retire path sets the flag (or bumps the epoch) before purging, so
	// whichever side runs second clears the stragglers.
	if ent.retired.Load() || (isLive && live.Epoch() != liveEpoch) {
		e.cache.purgePrefix(prefix)
	}
	return results, nil
}

// AppendDocs appends documents to the live index named index, returning
// their assigned stable ids, and purges the index's cached results. The
// documents must not contain the reserved terminator byte
// (ErrBadDocument); a static index rejects with ErrNotMutable.
func (e *Engine) AppendDocs(index string, docs [][]byte) ([]uint64, error) {
	ent, err := e.acquireEntry(index)
	if err != nil {
		return nil, err
	}
	defer ent.release()
	live, ok := ent.idx.(Mutable)
	if !ok {
		return nil, fmt.Errorf("server: %w: index %q is a static snapshot", ErrNotMutable, index)
	}
	select {
	case ent.appendSem <- struct{}{}:
		defer func() { <-ent.appendSem }()
	default:
		e.appendRejects.Add(1)
		return nil, fmt.Errorf("server: %w: index %q already has %d appends in flight", ErrSaturated, index, cap(ent.appendSem))
	}
	for i, d := range docs {
		if j := bytes.IndexByte(d, alphabet.Terminator); j >= 0 {
			return nil, fmt.Errorf("server: %w: document %d contains the reserved terminator byte %q at offset %d",
				ErrBadDocument, i, alphabet.Terminator, j)
		}
	}
	ids, err := live.Append(docs)
	if err != nil {
		return nil, err
	}
	// One purge of the load-epoch prefix covers every mutation epoch's keys.
	e.cache.purgePrefix(epochPrefix(ent.epoch))
	return ids, nil
}

// DeleteDoc tombstones the document with the given stable id in the live
// index named index, reporting whether it named a live document, and purges
// the index's cached results on success.
func (e *Engine) DeleteDoc(index string, id uint64) (bool, error) {
	ent, err := e.acquireEntry(index)
	if err != nil {
		return false, err
	}
	defer ent.release()
	live, ok := ent.idx.(Mutable)
	if !ok {
		return false, fmt.Errorf("server: %w: index %q is a static snapshot", ErrNotMutable, index)
	}
	deleted, err := live.Delete(id)
	if err != nil {
		return false, err
	}
	if deleted {
		e.cache.purgePrefix(epochPrefix(ent.epoch))
	}
	return deleted, nil
}

// maxCachedOccurrences bounds the size of one cached result; entries × this
// bounds the cache's worst-case memory.
const maxCachedOccurrences = 1024

// epochPrefix is the cache-key prefix shared by every result of one index
// load; purging it evicts exactly that load's entries.
func epochPrefix(epoch uint64) string {
	return strconv.FormatUint(epoch, 36) + "|"
}

// cacheKey encodes everything a result depends on: the entry's key prefix
// (load epoch — unique per Load — plus, for live indexes, the mutation
// epoch) and the op's canonical fingerprint, which covers every parameter
// of every op kind injectively.
func cacheKey(prefix string, op era.Op) string {
	// One buffer, seeded on the stack, for prefix and fingerprint: the string
	// conversion is the key's only allocation unless the pattern is long.
	var buf [128]byte
	return string(op.AppendFingerprint(append(buf[:0], prefix...)))
}

// Stats is a snapshot of engine activity.
type Stats struct {
	Indexes       int      `json:"indexes"`
	Queries       int64    `json:"queries"`
	CacheHits     int64    `json:"cache_hits"`
	CacheMisses   int64    `json:"cache_misses"`
	CacheSize     int      `json:"cache_size"`
	MappedBytes   int64    `json:"mapped_bytes"`
	AppendRejects int64    `json:"append_rejects"`
	Quarantined   []string `json:"quarantined,omitempty"`
}

// Stats returns a snapshot of engine activity.
func (e *Engine) Stats() Stats {
	s := Stats{
		Indexes:       len(*e.catalog.Load()),
		Queries:       e.queries.Load(),
		CacheHits:     e.cacheHits.Load(),
		CacheMisses:   e.cacheMisses.Load(),
		CacheSize:     e.cache.len(),
		MappedBytes:   e.MappedBytes(),
		AppendRejects: e.appendRejects.Load(),
	}
	e.mu.Lock()
	s.Quarantined = append([]string(nil), e.quarantined...)
	e.mu.Unlock()
	return s
}
