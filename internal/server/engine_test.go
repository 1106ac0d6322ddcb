package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"era"
	"era/internal/workload"
)

// buildIndex builds a DNA index of n symbols named name.
func buildIndex(t testing.TB, name string, n int, seed int64) *era.Index {
	t.Helper()
	data := workload.MustGenerate(workload.DNA, n, seed)
	data = data[:len(data)-1] // Build appends its own terminator
	idx, err := era.Build(data, &era.Config{MemoryBudget: 64 * 1024})
	if err != nil {
		t.Fatal(err)
	}
	idx.SetName(name)
	return idx
}

func TestEngineQueryKinds(t *testing.T) {
	idx := buildIndex(t, "dna", 2000, 1)
	e := NewEngine(128)
	if err := e.Load(idx); err != nil {
		t.Fatal(err)
	}

	pat := []byte("TGA")
	res, err := e.Query("dna", era.Op{Kind: era.OpContains, Pattern: pat})
	if err != nil {
		t.Fatal(err)
	}
	if res.Found != idx.Contains(pat) {
		t.Errorf("Contains(%s) = %v, want %v", pat, res.Found, idx.Contains(pat))
	}

	res, err = e.Query("dna", era.Op{Kind: era.OpCount, Pattern: pat})
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != idx.Count(pat) {
		t.Errorf("Count(%s) = %d, want %d", pat, res.Count, idx.Count(pat))
	}

	res, err = e.Query("dna", era.Op{Kind: era.OpOccurrences, Pattern: pat})
	if err != nil {
		t.Fatal(err)
	}
	want, _ := idx.Occurrences(pat)
	if len(res.Occurrences) != len(want) {
		t.Fatalf("Occurrences(%s) = %v, want %v", pat, res.Occurrences, want)
	}
	for i := range want {
		if res.Occurrences[i] != want[i] {
			t.Fatalf("Occurrences(%s) = %v, want %v", pat, res.Occurrences, want)
		}
	}

	if _, err := e.Query("nope", era.Op{Kind: era.OpCount, Pattern: pat}); err == nil {
		t.Error("query against unloaded index succeeded")
	}
	unnamed := buildIndex(t, "", 100, 2)
	if err := e.Load(unnamed); err == nil {
		t.Error("Load accepted an unnamed index")
	}
}

func TestEngineCacheHitAndHotReload(t *testing.T) {
	e := NewEngine(128)
	if err := e.Load(buildIndex(t, "dna", 2000, 1)); err != nil {
		t.Fatal(err)
	}
	op := era.Op{Kind: era.OpCount, Pattern: []byte("AC")}
	first, err := e.Query("dna", op)
	if err != nil {
		t.Fatal(err)
	}
	again, err := e.Query("dna", op)
	if err != nil {
		t.Fatal(err)
	}
	if first.Found != again.Found || first.Count != again.Count {
		t.Errorf("cached result %+v differs from first %+v", again, first)
	}
	st := e.Stats()
	if st.CacheHits != 1 || st.CacheMisses != 1 {
		t.Errorf("stats = %+v, want 1 hit / 1 miss", st)
	}

	// Hot reload under the same name: the next query must see the new
	// corpus, not the stale cached result (cache keys carry the epoch).
	fresh := buildIndex(t, "dna", 2000, 99)
	if err := e.Load(fresh); err != nil {
		t.Fatal(err)
	}
	after, err := e.Query("dna", op)
	if err != nil {
		t.Fatal(err)
	}
	if after.Count != fresh.Count(op.Pattern) {
		t.Errorf("post-reload Count = %d, want %d (stale cache served?)", after.Count, fresh.Count(op.Pattern))
	}
}

func TestEngineCacheEviction(t *testing.T) {
	e := NewEngine(cacheShards) // one entry per shard
	if err := e.Load(buildIndex(t, "dna", 1000, 1)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10*cacheShards; i++ {
		pat := []byte(fmt.Sprintf("A%d", i))
		if _, err := e.Query("dna", era.Op{Kind: era.OpContains, Pattern: pat}); err != nil {
			t.Fatal(err)
		}
	}
	if n := e.cache.len(); n > cacheShards {
		t.Errorf("cache holds %d entries, capacity %d", n, cacheShards)
	}
}

// TestEngineSkipsCachingHugeOccurrenceLists pins the cache memory bound:
// results whose occurrence lists exceed maxCachedOccurrences are served but
// not cached (the entry-counted LRU would otherwise hold O(corpus) slices).
func TestEngineSkipsCachingHugeOccurrenceLists(t *testing.T) {
	idx := buildIndex(t, "dna", 20000, 5)
	e := NewEngine(64)
	if err := e.Load(idx); err != nil {
		t.Fatal(err)
	}
	big := era.Op{Kind: era.OpOccurrences, Pattern: []byte("A")} // ~5000 offsets
	res, err := e.Query("dna", big)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Occurrences) <= maxCachedOccurrences {
		t.Skipf("pattern only has %d occurrences; test needs > %d", len(res.Occurrences), maxCachedOccurrences)
	}
	if n := e.cache.len(); n != 0 {
		t.Errorf("huge occurrence list was cached (%d entries)", n)
	}
	small := era.Op{Kind: era.OpCount, Pattern: []byte("ACGTACGT")}
	if _, err := e.Query("dna", small); err != nil {
		t.Fatal(err)
	}
	if n := e.cache.len(); n != 1 {
		t.Errorf("bounded result not cached (%d entries)", n)
	}
}

func TestEngineBatch(t *testing.T) {
	idx := buildIndex(t, "dna", 3000, 7)
	e := NewEngine(0) // no cache: exercise the raw batch path
	if err := e.Load(idx); err != nil {
		t.Fatal(err)
	}
	ops := []era.Op{
		{Kind: era.OpCount, Pattern: []byte("TG")},
		{Kind: era.OpContains, Pattern: []byte("TGGTTACGT")},
		{Kind: era.OpOccurrences, Pattern: []byte("ACG"), MaxOccurrences: 3},
		{Kind: era.OpCount, Pattern: []byte("TG")}, // duplicate: shared descent
		{Kind: era.OpContains, Pattern: nil},       // empty pattern: always found
	}
	results, err := e.Batch("dna", ops)
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Count != idx.Count([]byte("TG")) || results[3].Count != results[0].Count {
		t.Errorf("batched Count(TG) = %+v / %+v, want %d twice", results[0], results[3], idx.Count([]byte("TG")))
	}
	if results[1].Found != idx.Contains([]byte("TGGTTACGT")) {
		t.Errorf("batched Contains = %v", results[1].Found)
	}
	occ, _ := idx.Occurrences([]byte("ACG"))
	if results[2].Count != len(occ) {
		t.Errorf("batched Occurrences count = %d, want %d", results[2].Count, len(occ))
	}
	if len(occ) > 3 && len(results[2].Occurrences) != 3 {
		t.Errorf("MaxOccurrences not applied: got %d offsets", len(results[2].Occurrences))
	}
	for i, o := range results[2].Occurrences {
		if o != occ[i] {
			t.Errorf("occurrence %d = %d, want %d", i, o, occ[i])
		}
	}
	if !results[4].Found {
		t.Error("empty pattern not found")
	}
}

// TestEngineRejectsTerminatorPatterns pins that patterns containing the
// reserved '$' byte never surface the builder's internal sentinel: they are
// answered not-found instead of matching the appended terminator.
func TestEngineRejectsTerminatorPatterns(t *testing.T) {
	idx, err := era.Build([]byte("TGGTGC"), nil)
	if err != nil {
		t.Fatal(err)
	}
	idx.SetName("dna")
	for _, cacheSize := range []int{0, 64} {
		e := NewEngine(cacheSize)
		if err := e.Load(idx); err != nil {
			t.Fatal(err)
		}
		res, err := e.Batch("dna", []era.Op{
			{Kind: era.OpOccurrences, Pattern: []byte("GC$")}, // would match only via the sentinel
			{Kind: era.OpCount, Pattern: []byte("$")},
			{Kind: era.OpContains, Pattern: []byte("GC")}, // sane op in the same batch
		})
		if err != nil {
			t.Fatal(err)
		}
		if res[0].Found || res[0].Count != 0 || len(res[0].Occurrences) != 0 {
			t.Errorf("cache %d: pattern with terminator matched: %+v", cacheSize, res[0])
		}
		if res[1].Found {
			t.Errorf("cache %d: bare terminator matched", cacheSize)
		}
		if !res[2].Found {
			t.Errorf("cache %d: sane op in mixed batch lost", cacheSize)
		}
	}
}

// TestEngineUnloadPurgesCache pins that unloading (or replacing) an index
// immediately evicts its cached results instead of leaving them to age out.
func TestEngineUnloadPurgesCache(t *testing.T) {
	e := NewEngine(128)
	if err := e.Load(buildIndex(t, "dna", 1000, 1)); err != nil {
		t.Fatal(err)
	}
	if err := e.Load(buildIndex(t, "other", 1000, 2)); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{"A", "C", "G", "T", "AC", "GT"} {
		if _, err := e.Query("dna", era.Op{Kind: era.OpCount, Pattern: []byte(p)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.Query("other", era.Op{Kind: era.OpCount, Pattern: []byte("A")}); err != nil {
		t.Fatal(err)
	}
	if n := e.cache.len(); n != 7 {
		t.Fatalf("cache holds %d entries before unload, want 7", n)
	}
	e.Unload("dna")
	if n := e.cache.len(); n != 1 {
		t.Errorf("cache holds %d entries after unload, want 1 (only \"other\")", n)
	}
	// Replacing an index purges the old load's entries the same way.
	if err := e.Load(buildIndex(t, "other", 1000, 3)); err != nil {
		t.Fatal(err)
	}
	if n := e.cache.len(); n != 0 {
		t.Errorf("cache holds %d entries after hot reload, want 0", n)
	}
}

func TestEngineLoadDirAndUnload(t *testing.T) {
	dir := t.TempDir()
	named := buildIndex(t, "genome", 1500, 3)
	if err := named.WriteFile(filepath.Join(dir, "a.idx")); err != nil {
		t.Fatal(err)
	}
	// An unnamed index (as written by pre-v2 tooling) adopts its file name.
	legacy := buildIndex(t, "", 800, 4)
	if err := legacy.WriteFile(filepath.Join(dir, "legacy.idx")); err != nil {
		t.Fatal(err)
	}
	os.WriteFile(filepath.Join(dir, "notes.txt"), []byte("ignored"), 0o644)

	e := NewEngine(16)
	names, err := e.LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 {
		t.Fatalf("LoadDir loaded %v, want 2 indexes", names)
	}
	got := e.Names()
	want := []string{"genome", "legacy"}
	for i := range want {
		if i >= len(got) || got[i] != want[i] {
			t.Fatalf("Names() = %v, want %v", got, want)
		}
	}
	if !e.Unload("legacy") {
		t.Error("Unload(legacy) = false")
	}
	if e.Unload("legacy") {
		t.Error("second Unload(legacy) = true")
	}
	if _, err := e.Query("legacy", era.Op{Kind: era.OpContains, Pattern: []byte("A")}); err == nil {
		t.Error("query against unloaded index succeeded")
	}
	if _, err := e.LoadDir(t.TempDir()); err == nil {
		t.Error("LoadDir on an empty directory succeeded")
	}
}

// TestConcurrentQueries is the acceptance test for the lock-free read path:
// 16 goroutines hammer one engine with mixed single and batched queries
// while a writer hot-reloads a second index, all under -race in CI. Answers
// are checked against results computed up front on the immutable index.
func TestConcurrentQueries(t *testing.T) {
	idx := buildIndex(t, "dna", 4000, 11)
	e := NewEngine(256)
	if err := e.Load(idx); err != nil {
		t.Fatal(err)
	}

	// Precompute expected answers for a pool of patterns (some absent).
	patterns := make([][]byte, 0, 64)
	data := workload.MustGenerate(workload.DNA, 4000, 11)
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 56; i++ {
		off := rng.Intn(len(data) - 9)
		patterns = append(patterns, data[off:off+2+rng.Intn(7)])
	}
	for i := 0; i < 8; i++ {
		patterns = append(patterns, bytes.Repeat([]byte("ACGT"), 3+i)) // likely absent
	}
	type expect struct {
		found bool
		count int
		occ   []int
	}
	expected := make([]expect, len(patterns))
	for i, p := range patterns {
		occ, _ := idx.Occurrences(p)
		expected[i] = expect{idx.Contains(p), idx.Count(p), occ}
	}

	const clients = 16
	const rounds = 200
	var wg sync.WaitGroup
	errc := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c)))
			for r := 0; r < rounds; r++ {
				pi := rng.Intn(len(patterns))
				p, want := patterns[pi], expected[pi]
				switch r % 4 {
				case 0:
					res, err := e.Query("dna", era.Op{Kind: era.OpContains, Pattern: p})
					if err != nil || res.Found != want.found {
						errc <- fmt.Errorf("client %d: Contains(%s) = %v, %v; want %v", c, p, res.Found, err, want.found)
						return
					}
				case 1:
					res, err := e.Query("dna", era.Op{Kind: era.OpCount, Pattern: p})
					if err != nil || res.Count != want.count {
						errc <- fmt.Errorf("client %d: Count(%s) = %d, %v; want %d", c, p, res.Count, err, want.count)
						return
					}
				case 2:
					res, err := e.Query("dna", era.Op{Kind: era.OpOccurrences, Pattern: p})
					if err != nil || len(res.Occurrences) != len(want.occ) {
						errc <- fmt.Errorf("client %d: Occurrences(%s) = %v, %v; want %v", c, p, res.Occurrences, err, want.occ)
						return
					}
					for i := range want.occ {
						if res.Occurrences[i] != want.occ[i] {
							errc <- fmt.Errorf("client %d: Occurrences(%s)[%d] = %d, want %d", c, p, i, res.Occurrences[i], want.occ[i])
							return
						}
					}
				case 3:
					qi := rng.Intn(len(patterns))
					ops := []era.Op{
						{Kind: era.OpCount, Pattern: p},
						{Kind: era.OpCount, Pattern: patterns[qi]},
					}
					res, err := e.Batch("dna", ops)
					if err != nil || res[0].Count != want.count || res[1].Count != expected[qi].count {
						errc <- fmt.Errorf("client %d: Batch = %+v, %v; want counts %d, %d", c, res, err, want.count, expected[qi].count)
						return
					}
				}
			}
		}(c)
	}

	// A writer churns the catalog concurrently: queries against "dna" must
	// be completely isolated from loads/unloads of "other".
	other := buildIndex(t, "other", 500, 23)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			if err := e.Load(other); err != nil {
				errc <- err
				return
			}
			e.Unload("other")
		}
	}()

	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	if st := e.Stats(); st.Queries == 0 {
		t.Error("no queries recorded")
	}
}

// buildShardedIndex builds a small sharded DNA corpus index named name.
func buildShardedIndex(t testing.TB, name string, nDocs, docLen int, seed int64) *era.ShardedIndex {
	t.Helper()
	docs := make([][]byte, nDocs)
	for i := range docs {
		d := workload.MustGenerate(workload.DNA, docLen, seed+int64(i))
		docs[i] = d[:len(d)-1]
	}
	sx, err := era.BuildShardedCorpus(docs, &era.ShardConfig{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	sx.SetName(name)
	return sx
}

// TestEngineServesShardedIndex pins that a ShardedIndex is one catalog
// entry answering through the same engine paths as a monolithic index.
func TestEngineServesShardedIndex(t *testing.T) {
	sx := buildShardedIndex(t, "corpus", 8, 500, 17)
	e := NewEngine(64)
	if err := e.Load(sx); err != nil {
		t.Fatal(err)
	}
	pat := []byte("TGA")
	res, err := e.Query("corpus", era.Op{Kind: era.OpCount, Pattern: pat})
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != sx.Count(pat) {
		t.Errorf("engine Count = %d, want %d", res.Count, sx.Count(pat))
	}
	batch, err := e.Batch("corpus", []era.Op{
		{Kind: era.OpOccurrences, Pattern: pat, MaxOccurrences: 5},
		{Kind: era.OpContains, Pattern: []byte("GATTACAGATTACAGATTACA")},
	})
	if err != nil {
		t.Fatal(err)
	}
	if batch[0].Count != sx.Count(pat) {
		t.Errorf("batched sharded Count = %d, want %d", batch[0].Count, sx.Count(pat))
	}
	if occ, _ := sx.Occurrences(pat); len(occ) > 5 && len(batch[0].Occurrences) != 5 {
		t.Errorf("sharded MaxOccurrences not applied: %d offsets", len(batch[0].Occurrences))
	}
}

// TestEngineShardedHotReloadPurgesCache is the epoch-purge regression for
// sharded indexes: reloading a sharded corpus under the same name must
// orphan every cached result of the old load as one unit.
func TestEngineShardedHotReloadPurgesCache(t *testing.T) {
	e := NewEngine(128)
	old := buildShardedIndex(t, "corpus", 6, 400, 1)
	if err := e.Load(old); err != nil {
		t.Fatal(err)
	}
	op := era.Op{Kind: era.OpCount, Pattern: []byte("AC")}
	if _, err := e.Query("corpus", op); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Query("corpus", op); err != nil { // cache hit
		t.Fatal(err)
	}
	if st := e.Stats(); st.CacheHits != 1 {
		t.Fatalf("stats before reload = %+v, want 1 hit", st)
	}
	if n := e.cache.len(); n != 1 {
		t.Fatalf("cache holds %d entries before reload, want 1", n)
	}

	fresh := buildShardedIndex(t, "corpus", 6, 400, 999)
	if err := e.Load(fresh); err != nil {
		t.Fatal(err)
	}
	if n := e.cache.len(); n != 0 {
		t.Errorf("cache holds %d entries after sharded hot reload, want 0", n)
	}
	res, err := e.Query("corpus", op)
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != fresh.Count(op.Pattern) {
		t.Errorf("post-reload Count = %d, want %d (stale epoch served?)", res.Count, fresh.Count(op.Pattern))
	}
}

// TestEngineLoadDirPartialFailure pins the LoadDir bugfix: one bad .idx
// file no longer aborts the load half-way — the healthy files serve, and
// the error names every file that failed.
func TestEngineLoadDirPartialFailure(t *testing.T) {
	dir := t.TempDir()
	if err := buildIndex(t, "alpha", 800, 1).WriteFile(filepath.Join(dir, "alpha.idx")); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "broken.idx"), []byte("not an index"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "empty.idx"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := buildIndex(t, "zeta", 800, 2).WriteFile(filepath.Join(dir, "zeta.idx")); err != nil {
		t.Fatal(err)
	}

	e := NewEngine(16)
	names, err := e.LoadDir(dir)
	if err == nil {
		t.Fatal("LoadDir with corrupt files returned nil error")
	}
	for _, bad := range []string{"broken.idx", "empty.idx"} {
		if !strings.Contains(err.Error(), bad) {
			t.Errorf("LoadDir error does not name %s: %v", bad, err)
		}
	}
	if len(names) != 2 {
		t.Fatalf("LoadDir loaded %v, want the 2 healthy indexes", names)
	}
	for _, name := range []string{"alpha", "zeta"} {
		if _, ok := e.Get(name); !ok {
			t.Errorf("healthy index %q not loaded", name)
		}
	}

	// A directory with only bad files: no names, an error naming them.
	badDir := t.TempDir()
	if err := os.WriteFile(filepath.Join(badDir, "junk.idx"), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	names, err = e.LoadDir(badDir)
	if err == nil || len(names) != 0 {
		t.Errorf("all-bad dir: names=%v err=%v, want empty + error", names, err)
	}
}

// TestEngineUnknownIndexError pins the sentinel the HTTP layer maps to 404.
func TestEngineUnknownIndexError(t *testing.T) {
	e := NewEngine(0)
	_, err := e.Query("ghost", era.Op{Kind: era.OpContains, Pattern: []byte("A")})
	if !errors.Is(err, ErrUnknownIndex) {
		t.Errorf("unknown-index error = %v, want errors.Is(_, ErrUnknownIndex)", err)
	}
}

// TestEngineReloadLoopBoundsMappedBytes pins the retired-mapping fix: a hot
// reload loop with racing queries must keep the engine-wide mapped
// footprint bounded by a small constant multiple of one index image — each
// replaced mapping is released when its last in-flight query drains, not
// held until Close.
func TestEngineReloadLoopBoundsMappedBytes(t *testing.T) {
	e := NewEngine(64)
	p := v4Fixture(t, "loop")
	fi, err := os.Stat(p)
	if err != nil {
		t.Fatal(err)
	}
	one := fi.Size()
	if _, err := e.LoadFile(p); err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	for q := 0; q < 4; q++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pats := [][]byte{[]byte("ATTA"), []byte("GA"), []byte("CATT")}
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				if _, err := e.Batch("loop", []era.Op{{Kind: era.OpOccurrences, Pattern: pats[i%len(pats)]}}); err != nil {
					t.Errorf("Batch: %v", err)
					return
				}
			}
		}()
	}
	for i := 0; i < 40; i++ {
		if _, err := e.LoadFile(p); err != nil {
			t.Fatal(err)
		}
		// The catalog maps one image; a handful of retirees may still be
		// draining under the racing queries. Anything near 40 images is
		// the leak this test exists to catch.
		if got, limit := e.MappedBytes(), 8*one; got > limit {
			t.Fatalf("reload %d: engine maps %d bytes (> %d = 8 images) — retired mappings are leaking", i, got, limit)
		}
	}
	close(done)
	wg.Wait()
	if got, want := e.MappedBytes(), one; got != want {
		t.Fatalf("after drain: engine maps %d bytes, want exactly one %d-byte image", got, want)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestEngineCachePurgePutInterleaving pins the orphaned-cache-entry fix: a
// batch that resolved its entry before a hot reload, but caches its results
// after the reload's purge ran, must not strand entries under the dead
// epoch — the post-put retirement re-check clears them.
func TestEngineCachePurgePutInterleaving(t *testing.T) {
	e := NewEngine(128)
	if err := e.Load(buildIndex(t, "dna", 1000, 1)); err != nil {
		t.Fatal(err)
	}
	ent := (*e.catalog.Load())["dna"]
	if !ent.acquire() {
		t.Fatal("entry not acquirable right after Load")
	}
	// The reload purges the old epoch's (empty) key range and retires the
	// entry while our simulated in-flight batch still holds it.
	if err := e.Load(buildIndex(t, "dna", 1000, 2)); err != nil {
		t.Fatal(err)
	}
	res, err := e.batchEntry(context.Background(), ent, []era.Op{
		{Kind: era.OpCount, Pattern: []byte("A")},
		{Kind: era.OpCount, Pattern: []byte("ACG")},
	})
	ent.release()
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 || !res[0].Found {
		t.Fatalf("stale-entry batch answered %+v", res)
	}
	// Without the re-check these two puts would sit under the dead epoch's
	// prefix forever (nothing ever purges that prefix again).
	if n := e.cache.len(); n != 0 {
		t.Fatalf("cache holds %d orphaned entries keyed to a purged epoch, want 0", n)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestEngineUnloadAfterClose pins the closed-engine Unload fix: an Unload
// racing shutdown must not resurrect retirement state after Close drained
// it (the appended mapping would leak permanently).
func TestEngineUnloadAfterClose(t *testing.T) {
	e := NewEngine(0)
	if _, err := e.LoadFile(v4Fixture(t, "uc")); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if e.Unload("uc") {
		t.Fatal("Unload reported success on a closed engine")
	}
	if got := e.MappedBytes(); got != 0 {
		t.Fatalf("closed engine still accounts %d mapped bytes", got)
	}
}

// TestEngineLiveMutations serves a LiveIndex through the engine: mutations
// go through AppendDocs/DeleteDoc, every mutation invalidates cached
// results, and static indexes reject mutations.
func TestEngineLiveMutations(t *testing.T) {
	e := NewEngine(128)
	lx, err := era.NewLive("live", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Load(lx); err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	count := func() int {
		t.Helper()
		r, err := e.Query("live", era.Op{Kind: era.OpCount, Pattern: []byte("GATTACA")})
		if err != nil {
			t.Fatal(err)
		}
		return r.Count
	}
	if got := count(); got != 0 {
		t.Fatalf("empty live index counts %d", got)
	}
	ids, err := e.AppendDocs("live", [][]byte{[]byte("GATTACAGATTACA"), []byte("CCCC")})
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 2 {
		t.Fatalf("AppendDocs returned ids %v, want 2", ids)
	}
	// The pre-append count was cached; a stale hit here is the bug.
	if got := count(); got != 2 {
		t.Fatalf("count after append = %d, want 2", got)
	}
	if got := count(); got != 2 { // cached path
		t.Fatalf("cached count after append = %d, want 2", got)
	}
	deleted, err := e.DeleteDoc("live", ids[0])
	if err != nil || !deleted {
		t.Fatalf("DeleteDoc = (%v, %v)", deleted, err)
	}
	if got := count(); got != 0 {
		t.Fatalf("count after delete = %d, want 0", got)
	}
	if deleted, err := e.DeleteDoc("live", 12345); err != nil || deleted {
		t.Fatalf("DeleteDoc(unknown) = (%v, %v), want (false, nil)", deleted, err)
	}
	if _, err := e.AppendDocs("live", [][]byte{[]byte("AC$GT")}); !errors.Is(err, ErrBadDocument) {
		t.Fatalf("AppendDocs with terminator byte: %v, want ErrBadDocument", err)
	}

	if err := e.Load(buildIndex(t, "static", 500, 9)); err != nil {
		t.Fatal(err)
	}
	if _, err := e.AppendDocs("static", [][]byte{[]byte("A")}); !errors.Is(err, ErrNotMutable) {
		t.Fatalf("AppendDocs on a static index: %v, want ErrNotMutable", err)
	}
	if _, err := e.DeleteDoc("static", 0); !errors.Is(err, ErrNotMutable) {
		t.Fatalf("DeleteDoc on a static index: %v, want ErrNotMutable", err)
	}
}

// TestCacheKeyOneAllocation: a membership op's cache key — prefix and
// fingerprint — is built in one buffer and costs the key string alone, and
// it is still the prefix followed by the op's fingerprint.
func TestCacheKeyOneAllocation(t *testing.T) {
	op := era.Op{Kind: era.OpOccurrences, Pattern: []byte("the quick brown fox"), MaxOccurrences: 100}
	prefix := epochPrefix(12345) + "77|"
	if got, want := cacheKey(prefix, op), prefix+op.Fingerprint(); got != want {
		t.Fatalf("cacheKey = %q, want %q", got, want)
	}
	var sink string
	if n := testing.AllocsPerRun(100, func() { sink = cacheKey(prefix, op) }); n > 1 {
		t.Errorf("cacheKey allocates %.0f objects per membership op, want ≤ 1", n)
	}
	_ = sink
}
