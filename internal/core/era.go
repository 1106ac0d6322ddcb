package core

import (
	"context"
	"fmt"
	"sort"
	"time"

	"era/internal/seq"
	"era/internal/sim"
	"era/internal/suffixtree"
)

// Method selects the horizontal partitioning variant (§4.2).
type Method int

const (
	// StrMem is ERa-str+mem: SubTreePrepare + BuildSubTree, tuning both
	// string and memory access (§4.2.2). The default.
	StrMem Method = iota
	// Str is ERa-str: ComputeSuffixSubTree/BranchEdge, tuning string access
	// only (§4.2.1). Kept for the Fig. 7 comparison.
	Str
)

func (m Method) String() string {
	switch m {
	case StrMem:
		return "ERa-str+mem"
	case Str:
		return "ERa-str"
	}
	return fmt.Sprintf("Method(%d)", int(m))
}

// Options configure an ERA build.
type Options struct {
	// MemoryBudget is the total memory in bytes (the paper's 0.5–16 GB
	// knob, scaled). Required.
	MemoryBudget int64
	// RSize overrides the next-symbols buffer size; 0 picks the §4.4
	// default for the alphabet.
	RSize int64
	// StaticRange pins the per-round prefetch width in symbols, disabling
	// the elastic range (Fig. 9(b) ablation). 0 = elastic.
	StaticRange int
	// SkipSeek enables the §4.4 disk block-skipping optimization.
	SkipSeek bool
	// NoGrouping disables virtual trees (Fig. 9(a) ablation).
	NoGrouping bool
	// Method selects ERa-str+mem (default) or ERa-str.
	Method Method
	// AssembleFlat emits the mmap-native flat (format v4) sections of the
	// whole tree directly from the groups' sorted suffixes: no heap tree is
	// ever materialized. The image is byte-identical to flattening the
	// suffix tree of S. Off, every sub-tree is accounted and dropped — the
	// paper's experiments measure construction, not the tree. Mutually
	// exclusive with WriteTrees; requires ERa-str+mem.
	AssembleFlat bool
	// Shards is how many prefix ranges of the suffix order AssembleFlat cuts
	// the tree into, each an image of its own (Result.Shards) — what
	// era.BuildShardedCorpus serves; 0 and 1 are the one whole tree, which
	// Result.Flat also holds.
	Shards int
	// Sink supplies, under AssembleFlat, the suffix array the groups write
	// and the node and symbol sections of each assembled tree; nil allocates
	// them (suffixtree.HeapSink).
	Sink suffixtree.Sink
	// WriteTrees serializes every finished sub-tree to the disk (charged
	// I/O), as the real system does.
	WriteTrees bool
	// Validate cross-checks every prepared sub-tree against the string
	// (slow; tests only).
	Validate bool
	// Context stops the build with its error: Err (never Done) is read per VP
	// pass, group pulled and round, and before the assembly. Nil never stops.
	Context context.Context
}

// stopped is a build's one stop check; a nil context never stops.
func stopped(c context.Context) error {
	if c == nil {
		return nil
	}
	return c.Err()
}

// Stats aggregates the accounted work of a build.
type Stats struct {
	VirtualTime time.Duration // modeled end-to-end time
	VPTime      time.Duration // vertical partitioning portion
	// Scans counts sequential passes over S: a serial build's VP and group
	// scans — its VP is the one-worker run, reading through the context's
	// group scanner — and a parallel build's group scans only (each
	// worker's VP span is read by a scanner of its own, priced per round,
	// not counted).
	Scans        int
	VPIterations int
	Prefixes     int
	Groups       int
	SubTrees     int
	TreeNodes    int64
	Rounds       int // prepare rounds across all groups
	SymbolsRead  int64
	MinRange     int
	MaxRange     int
	BytesFetched int64
	SkipsTaken   int
}

// Result of an ERA build, whichever entry point ran it.
type Result struct {
	Flat   *suffixtree.Flat   // flat sections of the whole tree when Options.AssembleFlat
	Shards []suffixtree.Shard // flat sections per prefix range when Options.AssembleFlat
	Groups []Group
	Stats  Stats
	// Workers is each worker's accounted demand under the modeled LPT
	// schedule: one per core of a shared-disk build, per node of a
	// shared-nothing one, and one for a serial build.
	Workers []WorkerStats
	// TransferTime is the broadcast of S to the nodes of a shared-nothing
	// build, zero otherwise. Stats.VirtualTime is TransferTime + Stats.VPTime
	// + the group phase's completion.
	TransferTime time.Duration

	order suffixOrder // what the groups wrote and the assembly read, under Options.AssembleFlat
}

// BuildSerial runs serial ERA (§4) over the on-disk string f: the pipeline
// with one worker context over f itself, so f's disk counts the whole
// build's traffic, partitioned by the one-worker run of the VP, which scans
// through that context's group scanner.
func BuildSerial(f *seq.File, opts Options) (*Result, error) {
	model := f.Disk().Model()
	return pipeline{
		workers: 1,
		budget:  opts.MemoryBudget,
		context: func(_ int, layout MemoryLayout) (*buildContext, error) {
			return newNodeContext(f, layout, opts)
		},
		partition: func(ctxs []*buildContext, fm int64, grouping bool) ([]Group, VerticalStats, time.Duration, error) {
			return verticalPartitionChunked(ctxs, f.Len(), model, fm, grouping, sim.CombineSharedDisk, nil)
		},
		combine: sim.CombineSharedDisk,
	}.run(f, opts)
}

// pipeline is the one ERA build behind every entry point: plan the memory,
// set up one context per worker, partition vertically, give every prefix its
// window of the suffix order, drain the cost-sorted group queue and assemble.
// The serial, shared-disk and shared-nothing builds differ only in what the
// fields supply.
type pipeline struct {
	workers  int
	budget   int64         // each worker's memory share
	transfer time.Duration // what it costs to get S to every worker first
	// context sets up worker i's context.
	context func(i int, layout MemoryLayout) (*buildContext, error)
	// partition runs vertical partitioning on the contexts and returns its
	// modeled time.
	partition func(ctxs []*buildContext, fm int64, grouping bool) ([]Group, VerticalStats, time.Duration, error)
	// combine folds the workers' group-phase demands into the phase's
	// completion; it may price contention into io in place, and the
	// workers' stats report what it priced.
	combine func(cpu, io []time.Duration) time.Duration
	// lend gives the workers a queue of fewer groups than workers leaves
	// idle to the groups' prepare rounds (lendIdle): cores of one machine,
	// not nodes.
	lend bool
}

func (p pipeline) run(f *seq.File, opts Options) (*Result, error) {
	if opts.MemoryBudget <= 0 {
		return nil, fmt.Errorf("core: Options.MemoryBudget is required")
	}
	if err := validateFlatOptions(opts); err != nil {
		return nil, err
	}
	model := f.Disk().Model()
	layout, err := PlanMemory(p.budget, opts.RSize, f.Alphabet().Bits())
	if err != nil {
		return nil, err
	}
	ctxs := make([]*buildContext, p.workers)
	for i := range ctxs {
		if ctxs[i], err = p.context(i, layout); err != nil {
			return nil, err
		}
	}
	groups, vstats, vpTime, err := p.partition(ctxs, layout.FM, !opts.NoGrouping)
	if err != nil {
		return nil, err
	}

	res := &Result{Groups: groups, TransferTime: p.transfer}
	// Every worker writes its groups' windows of the one suffix order.
	if res.order, err = newSuffixOrder(opts, groups, f.Len(), ctxs...); err != nil {
		return nil, err
	}
	res.Stats.VPTime = vpTime
	res.Stats.VPIterations = vstats.Iterations
	res.Stats.Prefixes = vstats.Prefixes
	res.Stats.Groups = vstats.Groups
	res.Stats.MinRange = int(^uint(0) >> 1)
	// Only a serial build's VP scans through a group scanner; a parallel
	// worker's VP spans are priced, not counted.
	for _, ctx := range ctxs {
		st := ctx.sc.Stats()
		res.Stats.Scans += st.Scans
		res.Stats.BytesFetched += st.BytesFetched
		res.Stats.SkipsTaken += st.Skips
	}

	jobs := scheduleGroups(groups)
	owners := ctxs
	if p.lend {
		owners = lendIdle(ctxs, len(jobs))
	}
	runs, err := runGroupQueue(owners, jobs, model, layout, opts)
	if err != nil {
		return nil, err
	}
	cpu, io, ws := foldRuns(jobs, runs, p.workers, &res.Stats)

	if err := stopped(opts.Context); err != nil {
		return nil, err
	}
	if opts.AssembleFlat {
		raw, err := f.Disk().Bytes(f.Name())
		if err != nil {
			return nil, err
		}
		if res.Shards, res.Flat, err = res.order.assemble(raw, opts.Shards, sinkOf(opts)); err != nil {
			return nil, err
		}
	}

	groupTime := p.combine(cpu, io)
	for w := range ws {
		ws[w].IO = io[w]
	}
	res.Workers = ws
	res.Stats.VirtualTime = p.transfer + vpTime + groupTime
	return res, nil
}

// processGroup runs one virtual tree end to end on a worker context: collect
// occurrence lists (one scan shared by the group), prepare or branch, then
// either count the nodes of each sub-tree its windows of the suffix order
// now hold (Options.AssembleFlat: the assembly reads the windows where they
// are) or materialize each sub-tree, serialize it if asked, and drop it,
// adding the group's counters to st. gi is the group's global index —
// sub-tree file names derive from it alone, so serialized output is
// identical whichever worker of whichever build processes the group. CPU
// work is charged to the context's CPU clock and scans and serialized-tree
// writes to its I/O clock.
//
// A dropped ERa-str+mem sub-tree is built into the context's arena-backed
// tree, recycled across sub-trees instead of allocated fresh each time.
func processGroup(ctx *buildContext, model sim.CostModel, layout MemoryLayout, opts Options, g Group, gi int, st *Stats) error {
	f := ctx.f
	account := func(t *suffixtree.Tree, ti int) error {
		st.SubTrees++
		st.TreeNodes += int64(t.NumNodes() - 1) // exclude the local root
		if opts.WriteTrees {
			name := fmt.Sprintf("trees/g%04d-p%02d.st", gi, ti)
			w := f.Disk().Create(name, ctx.io)
			if _, err := t.WriteTo(w); err != nil {
				return fmt.Errorf("serializing %s: %w", name, err)
			}
		}
		return nil
	}

	var pstats PrepareStats
	switch opts.Method {
	case StrMem:
		prepared, ps, err := GroupPrepare(ctx, f, ctx.sc, ctx.cpu, model, g, layout.RSize, opts.StaticRange)
		if err != nil {
			return err
		}
		pstats = ps
		view, err := f.View()
		if err != nil {
			return err
		}
		if opts.Validate {
			for _, p := range prepared {
				if err := VerifyPrepared(view, p); err != nil {
					return fmt.Errorf("group %d: %w", gi, err)
				}
			}
		}
		if !opts.AssembleFlat {
			// Pre-size the recycled tree once from the group's leaf count
			// (≤ 2·leaves nodes plus the local root across all sub-trees).
			if ctx.tree == nil {
				ctx.tree = suffixtree.New(view)
			}
			ctx.tree.EnsureCap(2*int(g.Freq) + 1)
		}
		for ti, p := range prepared {
			if opts.AssembleFlat {
				// The node count and the one-stack-pass charge (2m
				// sequential node touches) materializing the sub-tree
				// would give, so Stats and modeled times match either way.
				nodes, err := countSubTreeNodes(int32(f.Len()), p, &ctx.depthScratch)
				if err != nil {
					return err
				}
				ctx.cpu.Advance(model.CPUTime(int64(2 * len(p.L))))
				st.SubTrees++
				st.TreeNodes += nodes
				continue
			}
			t, err := buildSubTreeInto(ctx.tree, ctx.cpu, model, p)
			if err != nil {
				return err
			}
			if err := account(t, ti); err != nil {
				return err
			}
		}
	case Str:
		view, err := f.View()
		if err != nil {
			return err
		}
		trees, ps, err := GroupBranch(ctx, f, view, ctx.sc, ctx.cpu, model, g, layout.RSize, opts.StaticRange)
		if err != nil {
			return err
		}
		pstats = ps
		for ti, t := range trees {
			if err := account(t, ti); err != nil {
				return err
			}
		}
	default:
		return fmt.Errorf("core: unknown method %v", opts.Method)
	}

	st.Rounds += pstats.Rounds
	st.SymbolsRead += pstats.SymbolsRead
	if pstats.MinRange > 0 && pstats.MinRange < st.MinRange {
		st.MinRange = pstats.MinRange
	}
	if pstats.MaxRange > st.MaxRange {
		st.MaxRange = pstats.MaxRange
	}
	return nil
}

// CollectOccurrences streams S once and gathers, for every prefix of the
// group, the positions at which it occurs, in appearance (string) order.
// This is the scan that seeds array L (SubTreePrepare line 1); the group
// shares it, which is the virtual-tree I/O amortization of §4.1.
func CollectOccurrences(f *seq.File, sc *seq.Scanner, clock *sim.Clock, model sim.CostModel, g Group) ([][]int32, error) {
	occs, _, err := CollectWithFill(nil, f, sc, clock, model, g, 0)
	return occs, err
}

// CollectWithFill is CollectOccurrences fused with the first fill round:
// alongside each occurrence it captures the rng symbols that follow the
// occurrence's prefix, in the same sequential pass, into ctx.chunks
// (untouched when rng == 0). Occurrence j of prefix i owns slot
// (Σ_{k<i} Freq_k) + j, so the slots need no table; captured is the total
// number of symbols captured.
//
// Each prefix's occurrences are appended straight into its window of the
// suffix array: in a flat build, the window at the prefix's Rank in the
// context's suffix order, which prepare then sorts in place; otherwise one
// of the windows a pooled slab holds in group order. ctx.lcpLists gets the
// LCP windows beside them, for GroupPrepare.
//
// The group's prefix-free label set resolves through a shortest-match code
// trie (collectMatcher) whose first levels are collapsed into one rolling
// root-table probe. The
// root fold is capped at a cache-resident size, so the trie handles labels
// of any length and needs no fallback; the original map scan below remains
// as the reference the equivalence tests replay, with identical probe and
// capture accounting. A non-nil ctx supplies the reusable scan and chunk
// buffers, the recycled matcher, and the pooled windows (nil allocates
// throwaway ones, so only the occurrences survive); the pooled outputs are
// valid until the next CollectWithFill on the same ctx.
func CollectWithFill(ctx *buildContext, f *seq.File, sc *seq.Scanner, clock *sim.Clock, model sim.CostModel, g Group, rng int) (occs [][]int32, captured int64, err error) {
	if ctx == nil {
		ctx = new(buildContext) // throwaway: the pools below start empty
	}
	n := f.Len()
	maxLen := 0
	var total int64
	for _, p := range g.Prefixes {
		if len(p.Label) > maxLen {
			maxLen = len(p.Label)
		}
		total += p.Freq
	}
	// Distinct label lengths via a pooled presence array (a map here was
	// one of the last per-group allocations).
	seen := growClearBool(ctx.lengthSeen, maxLen+1)
	ctx.lengthSeen = seen
	lengths := ctx.lengthsBuf[:0]
	for _, p := range g.Prefixes {
		if !seen[len(p.Label)] {
			seen[len(p.Label)] = true
			lengths = append(lengths, len(p.Label))
		}
	}
	sort.Ints(lengths)
	ctx.lengthsBuf = lengths

	// Each prefix's list is its window, exactly its frequency in capacity,
	// so the scan's appends never reallocate. The running offset in group
	// order is the prefix's first chunk slot, and its window in the slab.
	occs = growLists(ctx.occLists, len(g.Prefixes))
	lcps := growLists(ctx.lcpLists, len(g.Prefixes))
	ctx.occLists, ctx.lcpLists = occs, lcps
	sa, lcp := ctx.order.sa, ctx.order.lcp
	if sa == nil {
		if cap(ctx.winSlab) < 2*int(total) {
			ctx.winSlab = make([]int32, 2*total)
		}
		sa, lcp = ctx.winSlab[:total], ctx.winSlab[total:2*total]
	}
	if cap(ctx.slotBase) < len(g.Prefixes) {
		ctx.slotBase = make([]int32, len(g.Prefixes))
	}
	base := ctx.slotBase[:len(g.Prefixes)]
	pos := 0
	for i, p := range g.Prefixes {
		at := pos
		if ctx.order.sa != nil {
			at = int(p.Rank)
		}
		occs[i] = sa[at : at : at+int(p.Freq)]
		lcps[i] = lcp[at : at+int(p.Freq)]
		base[i] = int32(pos)
		pos += int(p.Freq)
	}
	if rng > 0 {
		ctx.chunks.reset(int(total), rng)
	}

	ctx.cm = newCollectMatcher(ctx.cm, f.Alphabet(), g, lengths, maxLen)
	captured, err = collectScanTrie(ctx, ctx.cm, sc, clock, model, n, rng, occs, base)
	if err != nil {
		return nil, captured, err
	}

	for i, p := range g.Prefixes {
		if int64(len(occs[i])) != p.Freq {
			return nil, captured, fmt.Errorf("core: prefix %q: collected %d occurrences, expected %d", p.Label, len(occs[i]), p.Freq)
		}
	}
	return occs, captured, nil
}

// growClearBool returns a false-filled bool slice of length n backed by s's
// capacity when it suffices.
func growClearBool(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// growLists resizes pooled window headers.
func growLists(s [][]int32, n int) [][]int32 {
	if cap(s) < n {
		return make([][]int32, n)
	}
	return s[:n]
}

// pendingFill is a chunk whose tail lies beyond the current scan window; it
// is completed as later windows stream past.
type pendingFill struct {
	buf  []byte
	got  int
	from int // absolute offset of buf[got]
}

// collectScanTrie is the hash-free collect scan: each position resolves the
// rolling packed code of its next rootLen symbols with one dense root-table
// probe, walking the shortest-match code trie's child blocks only for
// labels longer than the root fold. Probe accounting replays the
// reference's length-by-length loop: a match at length l costs its rank
// among the distinct lengths, a miss costs every length that fits in the
// window (zero for the tail positions too short for any label, which is why
// they need no walk at all). The round-one chunks go to ctx.chunks,
// which the caller has sized for the group when rng > 0: occurrence j of
// prefix i fills slot slot[i]+j.
func collectScanTrie(ctx *buildContext, m *collectMatcher, sc *seq.Scanner, clock *sim.Clock, model sim.CostModel, n, rng int, occs [][]int32, slot []int32) (captured int64, err error) {
	maxLen := m.maxLen
	var pend []pendingFill

	sc.Reset()
	const chunk = 64 * 1024
	buf := ctx.scanBuf(chunk + maxLen - 1)
	chunks := &ctx.chunks
	root, trie, codes := m.root, m.trie, m.codes
	bits, rootLen := m.bits, m.rootLen
	mask := len(root) - 1
	var probes int64
	for base := 0; base < n; base += chunk {
		want := chunk + maxLen - 1
		if base+want > n {
			want = n - base
		}
		got, err := sc.Fetch(buf[:want], base)
		if err != nil {
			return captured, err
		}
		hi := base + got

		// Top off chunks left incomplete by earlier windows.
		if rng > 0 && len(pend) > 0 {
			remain := pend[:0]
			for _, pf := range pend {
				if pf.from < hi {
					c := copy(pf.buf[pf.got:], buf[pf.from-base:got])
					pf.got += c
					pf.from += c
					captured += int64(c)
				}
				if pf.got < len(pf.buf) {
					remain = append(remain, pf)
				}
			}
			pend = remain
		}

		// Positions with fewer than rootLen symbols before hi can match no
		// label (rootLen ≤ every label length) and contribute no probes
		// (fitCount is zero below the shortest length), so the loop ends at
		// the last position with a full root window.
		end := base + chunk
		if e := hi - rootLen + 1; e < end {
			end = e
		}
		code := 0
		for t := 0; t < rootLen-1 && t < got; t++ {
			code = code<<bits | int(codes[buf[t]])
		}
		for i := base; i < end; i++ {
			code = (code<<bits | int(codes[buf[i-base+rootLen-1]])) & mask
			v := root[code]
			if v == 0 {
				avail := hi - i
				if avail > maxLen {
					avail = maxLen
				}
				probes += int64(m.fitCount[avail])
				continue
			}
			l := rootLen
			if v > 0 {
				// Walk the deep blocks for the labels longer than the fold.
				avail := hi - i
				if avail > maxLen {
					avail = maxLen
				}
				node := v
				v = 0
				for d := rootLen; d < avail; d++ {
					w := trie[node+int32(codes[buf[i-base+d]])]
					if w == 0 {
						break
					}
					if w < 0 {
						v, l = w, d+1
						break
					}
					node = w
				}
				if v == 0 {
					probes += int64(m.fitCount[avail])
					continue
				}
			}
			// Mark: the label of length l matches at i.
			pi := -v - 1
			probes += int64(m.probesByLen[l])
			if rng > 0 {
				wantC := rng
				if i+l+wantC > n {
					wantC = n - i - l
				}
				cb := chunks.fill(int(slot[pi])+len(occs[pi]), wantC)
				c := copy(cb, buf[i+l-base:got])
				captured += int64(c)
				if c < wantC {
					pend = append(pend, pendingFill{buf: cb, got: c, from: i + l + c})
				}
			}
			occs[pi] = append(occs[pi], int32(i))
		}
	}
	if len(pend) > 0 {
		return captured, fmt.Errorf("core: %d round-one chunks left incomplete after the scan", len(pend))
	}
	clock.Advance(model.CPUTime(probes + captured))
	return captured, nil
}

// collectScanMap is the original map-probe collect scan, kept as the
// reference implementation the equivalence tests check collectScanTrie
// against (outputs, probe accounting and scanner traffic must all agree).
func collectScanMap(g Group, sc *seq.Scanner, clock *sim.Clock, model sim.CostModel, n, maxLen int, lengths []int, rng int, occs [][]int32, chunks [][][]byte) (captured int64, err error) {
	byLabel := make(map[string]int, len(g.Prefixes))
	for i, p := range g.Prefixes {
		byLabel[string(p.Label)] = i
	}
	var pend []pendingFill

	sc.Reset()
	const chunk = 64 * 1024
	buf := make([]byte, chunk+maxLen-1)
	var probes int64
	for base := 0; base < n; base += chunk {
		want := chunk + maxLen - 1
		if base+want > n {
			want = n - base
		}
		got, err := sc.Fetch(buf[:want], base)
		if err != nil {
			return captured, err
		}
		hi := base + got

		// Top off chunks left incomplete by earlier windows.
		if rng > 0 && len(pend) > 0 {
			remain := pend[:0]
			for _, pf := range pend {
				if pf.from < hi {
					c := copy(pf.buf[pf.got:], buf[pf.from-base:got])
					pf.got += c
					pf.from += c
					captured += int64(c)
				}
				if pf.got < len(pf.buf) {
					remain = append(remain, pf)
				}
			}
			pend = remain
		}

		for i := base; i < base+chunk && i < n; i++ {
			for _, l := range lengths {
				if i+l > hi {
					break
				}
				w := buf[i-base : i-base+l]
				probes++
				pi, ok := byLabel[string(w)]
				if !ok {
					continue
				}
				occs[pi] = append(occs[pi], int32(i))
				if rng > 0 {
					wantC := rng
					if i+l+wantC > n {
						wantC = n - i - l
					}
					cb := make([]byte, wantC)
					c := copy(cb, buf[i+l-base:got])
					captured += int64(c)
					if c < wantC {
						pend = append(pend, pendingFill{buf: cb, got: c, from: i + l + c})
					}
					chunks[pi] = append(chunks[pi], cb)
				}
				break // prefixes are prefix-free: at most one matches
			}
		}
	}
	if len(pend) > 0 {
		return captured, fmt.Errorf("core: %d round-one chunks left incomplete after the scan", len(pend))
	}
	clock.Advance(model.CPUTime(probes + captured))
	return captured, nil
}
