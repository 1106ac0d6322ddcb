// Command era builds and queries suffix tree indexes with the ERA
// algorithm.
//
// Usage:
//
//	era build -in genome.seq -out genome.idx -mem 67108864 -mode serial
//	era build -gen dna -n 500000 -out dna.idx
//	era shard -in corpus.txt -shards 4 -out corpus.idx
//	era shard -gen english -n 2000000 -docs 64 -shards 8 -out text.idx
//	era query -index dna.idx -pattern GGTGATG
//	era stats -index dna.idx
//	era serve -addr :8329 dna.idx genome.idx
//	era serve -addr :8329 -dir indexes/
//	era serve -addr :8329 -live corpus.live/
//
// shard builds a document corpus once and cuts its suffix order into
// prefix ranges of about equal size, one tree each over all of S, and
// persists one sharded index file; serve loads it like any other index and
// answers the same JSON queries, each from the shards whose ranges own it.
//
// build and shard write the one index file format, the mmap-native image:
// serve opens it zero-copy in O(header) time, so startup is milliseconds
// regardless of index size and concurrent server processes share one
// page-cache copy. A file in an earlier format (v1–v3, or an image written
// before the compact node layout) is refused by name everywhere — no reader
// for it is kept; rebuild it from its source.
//
// serve drains gracefully on SIGTERM/SIGINT (http.Server.Shutdown), then
// closes the engine so mapped indexes unmap only after the last in-flight
// query finished. /metricz exposes per-op latency histograms and per-index
// mapped/resident byte counts.
//
// serve exposes the indexes over a JSON HTTP API (see internal/server):
//
//	curl -s localhost:8329/v1/indexes
//	curl -s -d '{"index":"dna","op":"count","pattern":"GGTGATG"}' localhost:8329/v1/query
//	curl -s -d '{"index":"dna","ops":[{"op":"contains","pattern":"TG"},{"op":"occurrences","pattern":"GGT","max":10}]}' localhost:8329/v1/batch
//
// -live DIR opens (or creates) a mutable live index persisted under DIR
// (see era.LiveIndex): the usual query endpoints work unchanged, and the
// corpus can be mutated while serving:
//
//	curl -s -d '{"docs":["GATTACA","CCAT"]}' localhost:8329/v1/indexes/corpus/docs
//	curl -s -X DELETE localhost:8329/v1/indexes/corpus/docs/0
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"log"
	"maps"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"time"

	"era"
	"era/internal/cluster/route"
	"era/internal/server"
	"era/internal/workload"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "build":
		build(os.Args[2:])
	case "shard":
		shard(os.Args[2:])
	case "query":
		query(os.Args[2:])
	case "stats":
		stats(os.Args[2:])
	case "verify":
		verify(os.Args[2:])
	case "serve":
		serve(os.Args[2:])
	case "route":
		routeCmd(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  era build -in FILE | -gen KIND -n N [-out FILE] [-mem BYTES] [-mode serial|shared-disk|shared-nothing] [-workers N] [-skipseek]
  era shard -in FILE | -gen KIND -n N -docs D [-shards K] [-out FILE] [-name NAME] [-mem BYTES] [-workers N]
  era query -index FILE -pattern P [-max N]
  era stats -index FILE
  era verify FILE|LIVEDIR ...
  era serve [-addr HOST:PORT] [-cache N] [-dir DIR] [-live DIR] [-drain DURATION] [-timeout DURATION] [INDEX.idx ...]
  era route -replicas URL,URL,... [-addr HOST:PORT] [-corpus NAME] [-replication N]
            [-timeout D] [-attempt D] [-retries N] [-hedge D] [-strict] [-check D]`)
	os.Exit(2)
}

func serve(args []string) {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	var (
		addr    = fs.String("addr", ":8329", "listen address")
		dir     = fs.String("dir", "", "load every *.idx file in this directory")
		live    = fs.String("live", "", "open (or create) a mutable live index persisted under this directory")
		cache   = fs.Int("cache", 4096, "query result cache capacity (0 disables)")
		drain   = fs.Duration("drain", 15*time.Second, "graceful shutdown drain budget on SIGTERM/SIGINT")
		timeout = fs.Duration("timeout", 0, "server-side per-query execution budget (0 = unbounded); past it long analytics walks abandon and the client gets 504")
	)
	fs.Parse(args)
	if *dir == "" && *live == "" && fs.NArg() == 0 {
		fatal(fmt.Errorf("serve needs -dir, -live or at least one index file"))
	}

	engine := server.NewEngine(*cache)
	// Engine.Load treats a repeated name as a hot reload; at startup that
	// would silently shadow one file's corpus with another's, so duplicate
	// names across -dir and positional files are an error here.
	seen := make(map[string]bool)
	checkDup := func(name string) {
		if seen[name] {
			fatal(fmt.Errorf("two index files carry the name %q; rebuild one with a distinct `era build -name` (unnamed files use their base name)", name))
		}
		seen[name] = true
	}
	if *dir != "" {
		// LoadDir skips unreadable files and reports them joined; a partial
		// catalog still serves, but every failure is logged by file.
		names, err := engine.LoadDir(*dir)
		if err != nil && len(names) == 0 {
			fatal(err)
		}
		if err != nil {
			log.Printf("warning: some index files failed to load:\n%v", err)
		}
		for _, name := range names {
			checkDup(name)
		}
		log.Printf("loaded %d indexes from %s: %v", len(names), *dir, names)
	}
	for _, path := range fs.Args() {
		name, err := engine.LoadFile(path)
		if err != nil {
			fatal(err)
		}
		checkDup(name)
		idx, _ := engine.Get(name)
		log.Printf("loaded %s as %q (%d symbols, %d tree nodes)", path, name, idx.Len(), idx.TreeNodes())
	}
	if *live != "" {
		lx, err := era.NewLive("", &era.LiveConfig{Dir: *live})
		if err != nil {
			fatal(err)
		}
		checkDup(lx.Name())
		if err := engine.Load(lx); err != nil {
			fatal(err)
		}
		st := lx.Stats()
		log.Printf("opened live index %s as %q (%d live docs, %d sealed tiers, %d tombstones)",
			*live, lx.Name(), lx.NumDocs(), st.Tiers, st.DeadDocs)
		if len(st.Quarantined) > 0 {
			log.Printf("warning: live index %q quarantined %d damaged tiers at load: %v",
				lx.Name(), len(st.Quarantined), st.Quarantined)
		}
	}

	log.Printf("serving %d indexes on %s", len(engine.Names()), *addr)
	h := server.NewHandlerOpts(engine, server.Options{ErrLog: log.Default(), QueryTimeout: *timeout})
	// Fail /readyz first on the signal: routers eject this replica and stop
	// sending new traffic while the in-flight requests drain. Only after the
	// drain does the engine close — mapped indexes must not unmap under a
	// live query.
	listenAndDrain(*addr, h, *drain, func() { engine.SetReady(false) })
	if err := engine.Close(); err != nil {
		log.Printf("closing engine: %v", err)
	}
	log.Printf("shut down cleanly")
}

// listenAndDrain serves h on addr until SIGTERM/SIGINT, then runs onSignal
// (if any), stops accepting, and drains in-flight requests within the drain
// budget. Benchmarks and rolling deploys rely on this to terminate without
// dropping replies.
func listenAndDrain(addr string, h http.Handler, drain time.Duration, onSignal func()) {
	srv := &http.Server{
		Addr:    addr,
		Handler: h,
		// Bound header dribble and idle keep-alives so stalled clients
		// cannot park goroutines and fds forever. No WriteTimeout: large
		// occurrence responses on slow links are legitimate.
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	select {
	case err := <-errc:
		fatal(err)
	case <-ctx.Done():
	}
	stop()
	if onSignal != nil {
		onSignal()
	}
	log.Printf("signal received; draining for up to %v", drain)
	dctx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := srv.Shutdown(dctx); err != nil {
		log.Printf("drain incomplete: %v", err)
		srv.Close()
	}
}

func build(args []string) {
	fs := flag.NewFlagSet("build", flag.ExitOnError)
	var (
		in      = fs.String("in", "", "input file (raw symbols; terminator optional)")
		gen     = fs.String("gen", "", "generate a synthetic dataset instead: genome, dna, protein, english")
		n       = fs.Int("n", 1<<20, "symbols to generate with -gen")
		seed    = fs.Int64("seed", 42, "generator seed")
		out     = fs.String("out", "index.idx", "output index file")
		name    = fs.String("name", "", "corpus name stored in the index (default: -out base name); era serve addresses indexes by it")
		mem     = fs.Int64("mem", 64<<20, "construction memory budget in bytes")
		mode    = fs.String("mode", "serial", "serial, shared-disk or shared-nothing")
		workers = fs.Int("workers", 4, "cores/nodes for the parallel modes")
		skip    = fs.Bool("skipseek", true, "enable the disk seek optimization (§4.4)")
	)
	fs.Parse(args)

	var data []byte
	var err error
	switch {
	case *gen != "":
		data, err = workload.Generate(workload.Kind(*gen), *n, *seed)
		if err == nil {
			data = data[:len(data)-1] // Build appends its own terminator
		}
	case *in != "":
		data, err = os.ReadFile(*in)
		if err == nil && len(data) > 0 && data[len(data)-1] == '$' {
			data = data[:len(data)-1]
		}
	default:
		err = fmt.Errorf("one of -in or -gen is required")
	}
	if err != nil {
		fatal(err)
	}

	cfg := &era.Config{MemoryBudget: *mem, Workers: *workers, SkipSeek: *skip}
	switch *mode {
	case "serial":
		cfg.Mode = era.Serial
	case "shared-disk":
		cfg.Mode = era.SharedDisk
	case "shared-nothing":
		cfg.Mode = era.SharedNothing
	default:
		fatal(fmt.Errorf("unknown mode %q", *mode))
	}
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	idx, err := era.Build(data, cfg)
	if err != nil {
		fatal(err)
	}
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	if *name == "" {
		base := filepath.Base(*out)
		*name = strings.TrimSuffix(base, filepath.Ext(base))
	}
	idx.SetName(*name)
	if err := os.MkdirAll(filepath.Dir(*out), 0o755); err != nil {
		fatal(err)
	}
	if err := idx.WriteFile(*out); err != nil {
		fatal(err)
	}
	s := idx.Stats()
	fmt.Printf("indexed %d symbols (alphabet %s) into %s as %q\n", idx.Len()-1, idx.Alphabet().Name(), *out, *name)
	if s.InMemory {
		fmt.Printf("built in-memory (suffix array): the input fits the %d-byte budget, %d tree nodes\n", *mem, s.TreeNodes)
	} else {
		fmt.Printf("modeled time %v, %d scans, %d prefixes, %d virtual trees, %d sub-trees, %d tree nodes\n",
			s.ModeledTime, s.Scans, s.Prefixes, s.Groups, s.SubTrees, s.TreeNodes)
	}
	fmt.Printf("build allocated %.1f MB total, heap high-water %.1f MB\n",
		float64(after.TotalAlloc-before.TotalAlloc)/(1<<20), float64(after.HeapSys-after.HeapReleased)/(1<<20))
}

// shard builds a prefix-partitioned sharded index. Documents come from -in
// (one per line) or -gen (generated symbols sliced into -docs equal
// documents); the corpus is built once with the parallel shared-disk path
// and its suffix order cut into -shards ranges.
func shard(args []string) {
	fs := flag.NewFlagSet("shard", flag.ExitOnError)
	var (
		in       = fs.String("in", "", "input file, one document per line")
		gen      = fs.String("gen", "", "generate a synthetic corpus instead: genome, dna, protein, english")
		n        = fs.Int("n", 1<<20, "symbols to generate with -gen")
		nDocs    = fs.Int("docs", 64, "documents to slice a generated corpus into")
		seed     = fs.Int64("seed", 42, "generator seed")
		shards   = fs.Int("shards", 4, "number of prefix ranges the suffix order is cut into")
		out      = fs.String("out", "index.idx", "output index file")
		name     = fs.String("name", "", "corpus name stored in the index (default: -out base name)")
		mem      = fs.Int64("mem", 64<<20, "construction memory budget of the one build, in bytes")
		workers  = fs.Int("workers", 4, "cores of the one build")
		splitdir = fs.String("splitdir", "", "additionally write each shard as a standalone index NAME~i.idx under this directory, for era route replicas")
	)
	fs.Parse(args)

	var docs [][]byte
	switch {
	case *gen != "":
		data, err := workload.Generate(workload.Kind(*gen), *n, *seed)
		if err != nil {
			fatal(err)
		}
		data = data[:len(data)-1] // the builder appends its own terminator
		if docs, err = workload.SliceDocs(data, *nDocs); err != nil {
			fatal(err)
		}
	case *in != "":
		raw, err := os.ReadFile(*in)
		if err != nil {
			fatal(err)
		}
		for _, line := range bytes.Split(raw, []byte{'\n'}) {
			if len(line) > 0 {
				docs = append(docs, line)
			}
		}
		if len(docs) == 0 {
			fatal(fmt.Errorf("%s holds no non-empty lines", *in))
		}
	default:
		fatal(fmt.Errorf("one of -in or -gen is required"))
	}

	sx, err := era.BuildShardedCorpus(docs, &era.ShardConfig{
		Shards: *shards,
		Build:  &era.Config{Mode: era.SharedDisk, MemoryBudget: *mem, Workers: *workers},
	})
	if err != nil {
		fatal(err)
	}
	if *name == "" {
		base := filepath.Base(*out)
		*name = strings.TrimSuffix(base, filepath.Ext(base))
	}
	sx.SetName(*name)
	if err := os.MkdirAll(filepath.Dir(*out), 0o755); err != nil {
		fatal(err)
	}
	if err := sx.WriteFile(*out); err != nil {
		fatal(err)
	}
	fmt.Printf("sharded %d documents (%d symbols, alphabet %s) into %s as %q\n",
		sx.NumDocs(), sx.Len()-1, sx.Alphabet().Name(), *out, *name)
	printShards(sx)
	if *splitdir != "" {
		// One standalone file per shard, named NAME~i — the shard-family
		// convention era route discovers. Each replica loads whichever of
		// them it should serve; the router asks a shard of the replicas
		// that list it.
		if err := os.MkdirAll(*splitdir, 0o755); err != nil {
			fatal(err)
		}
		for i := 0; i < sx.NumShards(); i++ {
			sh, _ := sx.Shard(i)
			shardName := fmt.Sprintf("%s~%d", *name, i)
			sh.SetName(shardName)
			path := filepath.Join(*splitdir, shardName+".idx")
			if err := sh.WriteFile(path); err != nil {
				fatal(err)
			}
			fmt.Printf("  wrote %s\n", path)
		}
	}
}

// routeCmd runs the stateless cluster router (see internal/cluster/route)
// over `era serve` replicas, each loading some of a corpus's shards:
// health-checked routing of each op to the shards that own it, with retries
// and hedging, answering byte-identically to one monolithic index.
func routeCmd(args []string) {
	fs := flag.NewFlagSet("route", flag.ExitOnError)
	var (
		addr        = fs.String("addr", ":8330", "listen address")
		replicas    = fs.String("replicas", "", "comma-separated base URLs of era serve replicas (required)")
		corpus      = fs.String("corpus", "", "shard family to serve (NAME for shards NAME~0..K-1); empty auto-detects")
		replication = fs.Int("replication", 2, "replicas per shard")
		timeout     = fs.Duration("timeout", 10*time.Second, "end-to-end budget per client request")
		attempt     = fs.Duration("attempt", 0, "per-attempt sub-request deadline (default timeout/(retries+2))")
		retries     = fs.Int("retries", 2, "additional attempts per failed sub-request")
		hedge       = fs.Duration("hedge", 0, "hedged-read delay: fire a second copy of a slow first attempt (0 disables)")
		strict      = fs.Bool("strict", false, "refuse degraded answers with 503 instead of flagging partial:true")
		check       = fs.Duration("check", time.Second, "health probe interval")
		drain       = fs.Duration("drain", 15*time.Second, "graceful shutdown drain budget on SIGTERM/SIGINT")
	)
	fs.Parse(args)
	if *replicas == "" {
		fatal(fmt.Errorf("route needs -replicas"))
	}
	var bases []string
	for _, r := range strings.Split(*replicas, ",") {
		if r = strings.TrimSpace(r); r != "" {
			bases = append(bases, strings.TrimSuffix(r, "/"))
		}
	}
	rt, err := route.NewRouter(route.RouterConfig{
		Replicas:       bases,
		Corpus:         *corpus,
		Replication:    *replication,
		Timeout:        *timeout,
		AttemptTimeout: *attempt,
		Retries:        *retries,
		HedgeDelay:     *hedge,
		Strict:         *strict,
		ErrLog:         log.Default(),
	})
	if err != nil {
		fatal(err)
	}
	rt.Health().Interval = *check
	rctx, rcancel := context.WithTimeout(context.Background(), *timeout)
	err = rt.Refresh(rctx)
	rcancel()
	if err != nil {
		fatal(err)
	}
	placement, under := rt.Placement(), rt.UnderReplicated()
	for _, shard := range slices.Sorted(maps.Keys(placement)) {
		log.Printf("shard %s -> %v", shard, placement[shard])
		if slices.Contains(under, shard) {
			log.Printf("warning: shard %s is listed by fewer replicas than -replication: losing %v leaves its ops partial", shard, placement[shard])
		}
	}
	rt.Health().Start()
	defer rt.Health().Stop()

	log.Printf("routing over %d replicas on %s (replication %d)", len(bases), *addr, *replication)
	listenAndDrain(*addr, rt.Handler(), *drain, nil)
	log.Printf("shut down cleanly")
}

func query(args []string) {
	fs := flag.NewFlagSet("query", flag.ExitOnError)
	var (
		index   = fs.String("index", "", "index file written by era build")
		pattern = fs.String("pattern", "", "pattern to search")
		maxOut  = fs.Int("max", 10, "maximum occurrences to print")
	)
	fs.Parse(args)
	if *index == "" || *pattern == "" {
		fatal(fmt.Errorf("-index and -pattern are required"))
	}
	idx := load(*index)
	occ, err := idx.Occurrences([]byte(*pattern))
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%q occurs %d times\n", *pattern, len(occ))
	for i, o := range occ {
		if i >= *maxOut {
			fmt.Printf("... and %d more\n", len(occ)-*maxOut)
			break
		}
		fmt.Printf("  offset %d\n", o)
	}
}

func stats(args []string) {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	index := fs.String("index", "", "index file written by era build")
	fs.Parse(args)
	if *index == "" {
		fatal(fmt.Errorf("-index is required"))
	}
	idx := load(*index)
	fmt.Printf("string length: %d symbols (terminator included)\n", idx.Len())
	fmt.Printf("alphabet: %s (%d symbols)\n", idx.Alphabet().Name(), idx.Alphabet().Size())
	fmt.Printf("documents: %d\n", idx.NumDocs())
	switch x := idx.(type) {
	case *era.Index:
		scope := ""
		if lo, hi := x.Range(); len(lo)+len(hi) > 0 {
			// A split shard file: its tree holds one range of the suffix order.
			fmt.Printf("shard of a prefix-partitioned corpus: %s\n", shardRange(x))
			scope = " in its range"
		}
		lrs, occ := x.LongestRepeatedSubstring()
		show := lrs
		if len(show) > 60 {
			show = show[:60]
		}
		fmt.Printf("longest repeated substring%s: %d symbols (%q...), %d occurrences\n", scope, len(lrs), show, len(occ))
	case *era.ShardedIndex:
		fmt.Printf("shards: %d (%d tree nodes total)\n", x.NumShards(), x.TreeNodes())
		printShards(x)
	case *era.LiveIndex:
		s := x.Stats()
		fmt.Printf("live index: %d sealed tiers, %d memtable docs, %d tombstones pending compaction\n",
			s.Tiers, s.MemtableDocs, s.DeadDocs)
		fmt.Printf("next document id: %d (mutation epoch %d)\n", s.NextID, s.Epoch)
		fmt.Printf("lifetime: %d seals, %d compactions, %v cumulative mutation pause\n",
			s.Seals, s.Compactions, s.MutationPause.Round(time.Microsecond))
		if len(s.Quarantined) > 0 {
			fmt.Printf("QUARANTINED tiers (failed validation at load, renamed *.quarantine): %s\n",
				strings.Join(s.Quarantined, ", "))
		}
	}
}

// printShards lists each shard's key range — its part of the suffix order —
// and its share of the suffixes.
func printShards(sx *era.ShardedIndex) {
	for i := 0; i < sx.NumShards(); i++ {
		sh, _ := sx.Shard(i)
		fmt.Printf("  shard %d: %s\n", i, shardRange(sh))
	}
}

// shardRange describes a shard's key range and its share of the suffixes.
func shardRange(sh *era.Index) string {
	lo, hi := sh.Range()
	end := fmt.Sprintf("%q", hi)
	if len(hi) == 0 {
		end = "end"
	}
	return fmt.Sprintf("keys [%q, %s), %d suffixes (%.1f%%), %d tree nodes",
		lo, end, sh.Suffixes(), 100*float64(sh.Suffixes())/float64(sh.Len()), sh.TreeNodes())
}

// verify checks the stored checksums of index files and live directories
// without modifying anything (unlike opening a live directory, which
// truncates torn WAL tails and quarantines damaged tiers). Exits nonzero if
// any path has problems, so it can gate CI and deploys.
func verify(args []string) {
	fs := flag.NewFlagSet("verify", flag.ExitOnError)
	quiet := fs.Bool("q", false, "print problems only")
	fs.Parse(args)
	if fs.NArg() == 0 {
		fatal(fmt.Errorf("verify needs at least one index file or live directory"))
	}
	bad := 0
	for _, path := range fs.Args() {
		rep, err := era.Verify(path)
		if err != nil {
			fatal(err)
		}
		if !*quiet || !rep.OK() {
			fmt.Printf("%s (%s):\n", rep.Path, rep.Kind)
		}
		if !*quiet {
			for _, n := range rep.Notes {
				fmt.Printf("  ok: %s\n", n)
			}
		}
		for _, p := range rep.Problems {
			fmt.Printf("  CORRUPT: %s\n", p)
		}
		if !rep.OK() {
			bad++
		}
	}
	if bad > 0 {
		fatal(fmt.Errorf("%d of %d paths failed verification", bad, fs.NArg()))
	}
	fmt.Printf("verified %d paths, all healthy\n", fs.NArg())
}

func load(path string) era.Queryable {
	idx, err := era.OpenIndex(path)
	if err != nil {
		fatal(err)
	}
	return idx
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "era:", err)
	os.Exit(1)
}
