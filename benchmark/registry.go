package main

import (
	"fmt"
	"io"
	"text/tabwriter"
)

// The registry is the single definition of what the benchmark runs and
// reports. -list prints it, every run's output is keyed by it, and
// registry_test.go requires BENCHMARK.json to name exactly the same
// workloads and metrics.

type workloadDef struct {
	Name string
	Why  string
	new  func() bench
}

var workloads = []workloadDef{
	{"build", "DNA build->v4->open->verify, serial at 4 B/symbol (out-of-core regime) then SharedDisk with nproc workers: the paper's headline; core does the work, serving layers none",
		func() bench { return &buildWorkload{} }},
	{"lookup", "English v4 image opened by mmap, 2 goroutines calling the library directly with Zipf patterns: suffixtree+index are the whole 1-2 us call; server and route do nothing",
		func() bench { return &lookupWorkload{} }},
	{"point", "same corpus and op stream over HTTP to one era-serve equivalent with cache 4096: JSON+net/http dominate, so a descent optimisation must not move it",
		func() bench { return &httpWorkload{routed: false} }},
	{"routed", "same corpus and op stream through route.Router over 2 replicas x 3 shards: fan-out, stitch and merge dominate; same traffic as point, so the gap is a subtraction",
		func() bench { return &httpWorkload{routed: true} }},
	{"live", "protein docs appended and deleted over HTTP into a fresh WAL-backed LiveIndex beside a closed-loop reader: seals, compactions, reopen; a read-side win that costs ingest shows here",
		func() bench { return &liveWorkload{} }},
	{"analytics", "DNA; topk, lrs, lcs, docfreq, mismatch on mono v4, ShardedIndex, LiveIndex and the router with caches off: the heavy walks and the merge code membership traffic bypasses",
		func() bench { return &analyticsWorkload{} }},
}

// metricDef is one end-to-end metric. Every workload reports every one of
// them; Bound is the share of the parent's median a later change may worsen
// it by.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
	Doc    string
}

// The bounds are three times the widest spread (quartile distance over median,
// ten seeds) any workload showed, as the driver's contract asks; README.md
// has the measurements.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25, "everything before the first trial: corpus, oracle, builds, image write and open, servers; median of the run's set-ups (3 or more)"},
	{"alloc_kb_per_op", "kB", "lower", 0.18, "heap bytes allocated (/gc/heap/allocs:bytes delta) per operation, load generator included"},
	{"allocs_per_op", "count", "lower", 0.18, "heap objects allocated (/gc/heap/allocs:objects delta) per operation, load generator included"},
	{"index_bytes_per_sym", "B", "lower", 0.025, "bytes of index on disk per indexed symbol (live: live directory after reopen per surviving symbol)"},
	{"peak_rss_mb", "MB", "lower", 0.25, "resident-set high-water mark (VmHWM) over one trial; memory is returned to the OS and the mark reset before each"},
}

// wall are the wall-clock figures a user of the system watches. Every
// untraced run measures and prints them, and a traced run exports its
// untraced trial's as per-layer wall.* metrics, but they are not end-to-end
// metrics the driver gates: on the shared two-core box their ten-seed medians
// moved by up to 30 % between two back-to-back sessions of the same binary
// (the README has the measurements), more than any bound the driver accepts.
// The issue's rule for a figure that does not repeat is to report it under
// its layer, not to widen its bound.
var wall = []metricDef{
	{Name: "ops_s", Unit: "1/s", Better: "higher", Doc: "operations completed per second of trial wall time (build: build pairs; live: mutations; else calls or requests)"},
	{Name: "lat_p50_us", Unit: "us", Better: "lower", Doc: "median latency of one operation"},
	{Name: "lat_tail_us", Unit: "us", Better: "lower", Doc: "tail latency: p99 per trial on lookup/point/routed, p90 pooled over trials on live/analytics, slowest pair on build"},
}

// layerMetricDef is one per-layer metric from the traced pass. Moves names
// the end-to-end metric (and workload) it is expected to move. A traced run
// reports every per-layer metric; the ones whose layer does no work on the
// workload read 0.
type layerMetricDef struct {
	Name   string
	Unit   string
	Better string
	Moves  string
}

var perLayer = buildPerLayer()

func buildPerLayer() []layerMetricDef {
	const (
		mvBuild  = "build: wall.ops_s, peak_rss_mb, alloc_kb_per_op; setup_s elsewhere; nothing on serving"
		mvCount  = "exact count; build: explains modeled vs wall, moves no wall here (the disk is simulated)"
		mvPers   = "build: wall.lat_p50_us, index_bytes_per_sym; live: seal cost"
		mvLookup = "lookup: wall.lat_p50_us, wall.ops_s (the whole call); under 2% of point"
		mvEngine = "point: wall.lat_p50_us by at most 5%"
		mvHTTP   = "point: wall.lat_p50_us, wall.ops_s, alloc_kb_per_op, allocs_per_op; routed: K+1-fold"
		mvRoute  = "routed only: wall.lat_p50_us, wall.ops_s, alloc_kb_per_op, allocs_per_op"
		mvLive   = "live only: wall.lat_p50_us, wall.ops_s, alloc_kb_per_op, index_bytes_per_sym"
		mvAna    = "analytics: wall.lat_p50_us, wall.ops_s, alloc_kb_per_op"
	)
	m := []layerMetricDef{
		{"core.vp_s", "s", "lower", mvBuild},
		{"core.groups_s", "s", "lower", mvBuild},
		{"core.assemble_s", "s", "lower", mvBuild},
		{"core.par_speedup", "x", "higher", mvBuild},
		{"core.alloc_mb", "MB", "lower", mvBuild},
		{"core.gc_cycles", "count", "lower", mvBuild},
		{"core.scans", "count", "lower", mvCount},
		{"core.groups", "count", "lower", mvCount},
		{"core.subtrees", "count", "lower", mvCount},
		{"core.rounds", "count", "lower", mvCount},
		{"core.symbols_read", "count", "lower", mvCount},
		{"core.bytes_fetched", "B", "lower", mvCount},
		{"core.tree_nodes", "count", "lower", mvCount},
		{"core.modeled_s", "s", "lower", mvCount},
		{"core.modeled_over_wall", "x", "lower", mvCount},
		{"diskio.read_ops", "count", "lower", mvCount},
		{"diskio.bytes_read", "B", "lower", mvCount},
		{"diskio.seeks", "count", "lower", mvCount},
		{"index.build_serial_msym_s", "Msym/s", "higher", mvBuild},
		{"index.build_par_msym_s", "Msym/s", "higher", mvBuild},
		{"index.build_overhead_s", "s", "lower", mvBuild},
		{"persist.write_s", "s", "lower", mvPers},
		{"persist.write_mb_s", "MB/s", "higher", mvPers},
		{"persist.open_us", "us", "lower", mvPers},
		{"persist.verify_s", "s", "lower", mvPers},
		{"persist.image_bytes", "B", "lower", mvPers},
		{"suffixtree.op_ns", "ns", "lower", mvLookup},
		{"index.op_ns", "ns", "lower", mvLookup},
		{"index.batch32_us", "us", "lower", mvLookup},
		{"shard.op_ns", "ns", "lower", "routed: the in-process cost the router's fan-out is compared with"},
		{"shard.batch32_us", "us", "lower", "routed: one sub-batch per shard, the shape route.batch32_us lacks"},
		{"live.op_ns", "ns", "lower", "live: read side (live.read_*)"},
		{"server.engine.op_ns", "ns", "lower", mvEngine},
		{"server.engine.cached_op_ns", "ns", "lower", mvEngine},
		{"server.engine.cache_hit_ratio", "ratio", "higher", mvEngine},
		{"server.http.op_us", "us", "lower", mvHTTP},
		{"server.http.batch32_us", "us", "lower", mvHTTP},
		{"route.op_us", "us", "lower", mvRoute},
		{"route.batch32_us", "us", "lower", mvRoute},
		{"route.subreq_per_op", "count", "lower", mvRoute},
		{"route.retries", "count", "lower", mvRoute},
		{"route.hedges", "count", "lower", mvRoute},
		{"route.partials", "count", "lower", mvRoute},
		{"live.append_ms", "ms", "lower", mvLive},
		{"live.seal_ms", "ms", "lower", mvLive},
		{"live.compact_ms", "ms", "lower", mvLive},
		{"live.mutation_pause_ms", "ms", "lower", mvLive},
		{"live.seals", "count", "lower", mvLive},
		{"live.compactions", "count", "lower", mvLive},
		{"live.write_amp", "x", "lower", mvLive},
		{"live.reopen_ms", "ms", "lower", mvLive},
		{"live.write_docs_s", "1/s", "higher", mvLive},
		{"live.read_p50_us", "us", "lower", "live: reads beside the writer; not gated end to end"},
		{"live.read_p99_us", "us", "lower", "live: reads beside the writer; not gated end to end"},
	}
	for _, layer := range analyticsLayers {
		for _, op := range analyticsOps {
			m = append(m, layerMetricDef{layer + "." + op + "_ms", "ms", "lower", mvAna})
		}
	}
	for _, w := range wall {
		m = append(m, layerMetricDef{"wall." + w.Name, w.Unit, w.Better, "itself: the user-visible figure, from the traced run's one untraced trial; too noisy on a shared box to gate"})
	}
	return append(m, layerMetricDef{"trace_overhead_pct", "%", "lower", "none: the cost of recording spans, untraced ops_s against traced"})
}

// Layer and op names of the 20 analytics cells, in reporting order.
var (
	analyticsLayers = []string{"index", "shard", "live", "route"}
	analyticsOps    = []string{"topk", "lrs", "lcs", "docfreq", "mismatch"}
)

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// printRegistry is -list.
func printRegistry(w io.Writer) {
	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "WORKLOAD\tWHY")
	for _, wl := range workloads {
		fmt.Fprintf(tw, "%s\t%s\n", wl.Name, wl.Why)
	}
	fmt.Fprintln(tw, "\nEND-TO-END METRIC\tUNIT\tBETTER\tBOUND\tMEANING")
	for _, m := range endToEnd {
		fmt.Fprintf(tw, "%s\t%s\t%s\t%g\t%s\n", m.Name, m.Unit, m.Better, m.Bound, m.Doc)
	}
	fmt.Fprintln(tw, "\nMEASURED, NOT GATED\tUNIT\tBETTER\t\tMEANING")
	for _, m := range wall {
		fmt.Fprintf(tw, "%s\t%s\t%s\t\t%s\n", m.Name, m.Unit, m.Better, m.Doc)
	}
	fmt.Fprintln(tw, "\nPER-LAYER METRIC\tUNIT\tBETTER\tSHOULD MOVE")
	for _, m := range perLayer {
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\n", m.Name, m.Unit, m.Better, m.Moves)
	}
	tw.Flush()
}
