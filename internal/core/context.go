package core

import (
	"era/internal/diskio"
	"era/internal/seq"
	"era/internal/sim"
	"era/internal/suffixtree"
)

// buildContext is the reusable state of one construction worker. Everything
// a group build needs beyond its inputs lives here — the rolling-code window
// counter, the round-loop scratch, the collect-scan buffers and a recycled
// sub-tree. Each array grows to the largest group or area the worker meets
// and R to the memory plan's size, after which a round allocates nothing,
// not even a regrowth of R, and a group only per-group bookkeeping. The
// serial driver owns one context; the parallel drivers create one per worker
// and keep it across vertical partitioning and every group the worker pulls
// from the queue.
//
// A context is single-threaded: it must only ever be used by one goroutine
// at a time.
type buildContext struct {
	// Worker plumbing, set by the parallel drivers (nil/zero for plain
	// scratch contexts): a private handle onto the shared input bytes, the
	// group-scan and chunked-VP scanners, and the worker's demand clocks.
	f    *seq.File
	sc   *seq.Scanner // group scans; charges io
	vpsc *seq.Scanner // VP chunk scans; skip-enabled so a chunk opens with one positioning seek
	cpu  *sim.Clock
	io   *sim.Clock

	// Rolling-code window counter: one per worker, reused across every VP
	// iteration and available to the worker's later group rounds (its scan
	// buffer doubles as the chunk-scan buffer).
	vc *vertCounter

	// Round-loop scratch shared by GroupPrepare and GroupBranch, and the
	// area-sort scratch of GroupPrepare's rounds. offs is the fill schedule:
	// the string position of each fill, in the order the fetch writes them
	// into R. chunks is array R, allocated once at the memory plan's size:
	// the collect scan fills it for round one, and each later round — the
	// previous round's chunks being dead by then — refills it.
	offs        []int32
	heap        fillHeap
	chunks      chunkBuf
	sortScratch sortScratch

	// Collect-scan scratch: the streaming window buffer.
	collectBuf []byte

	// Sub-tree materialization: a recycled arena-backed tree — every
	// ERa-str+mem sub-tree is dropped after accounting — plus the LCP
	// scratch feeding FromSortedSuffixesInto and the depth stack the
	// direct-to-flat collect path replays node counts on.
	tree         *suffixtree.Tree
	lcp          []int32
	depthScratch []int32

	// Per-group pooled storage — the remaining per-group allocations the
	// ROADMAP flagged after PR 3: the collect matcher (root table + trie
	// blocks), the occurrence list headers and their slab, each prefix's
	// first chunk slot, and the subState headers with their
	// P/I/area/R/B/defined backing. Carved per group, reused across every
	// group a worker processes, so the steady state allocates nothing per
	// group either. The pooled outputs (CollectWithFill's occs and
	// chunks, GroupPrepare's []Prepared with its L and B) stay valid
	// only until the next CollectWithFill/GroupPrepare on the same context —
	// exactly the lifetime processGroup gives them.
	cm         *collectMatcher
	lengthsBuf []int
	lengthSeen []bool
	occLists   [][]int32
	occSlab    []int32
	slotBase   []int32
	subStates  []subState
	subPtrs    []*subState
	startsBuf  []int
	prepBuf    []Prepared
	i32Slab    []int32
	bSlab      []BEntry
	defSlab    []bool
}

// scanBuf returns the reusable collect-scan buffer of at least n bytes.
func (ctx *buildContext) scanBuf(n int) []byte {
	if cap(ctx.collectBuf) < n {
		ctx.collectBuf = make([]byte, n)
	}
	return ctx.collectBuf[:n]
}

// lcpBuf returns the reusable LCP scratch of length n.
func (ctx *buildContext) lcpBuf(n int) []int32 {
	if cap(ctx.lcp) < n {
		ctx.lcp = make([]int32, n)
	}
	return ctx.lcp[:n]
}

// newWorkerContext gives a shared-disk worker its private handle onto the
// input bytes (same backing array, separate simulated arm — cross-worker
// interference is modeled analytically by sim.CombineSharedDisk) and wraps
// it in a context.
func newWorkerContext(orig *seq.File, raw []byte, model sim.CostModel, layout MemoryLayout, opts Options) (*buildContext, error) {
	disk := diskio.NewDisk(model)
	disk.CreateFile(orig.Name(), raw)
	f, err := seq.Attach(disk, orig.Name(), orig.Alphabet())
	if err != nil {
		return nil, err
	}
	return newNodeContext(f, layout, opts)
}

// newNodeContext wraps a file that already lives on a private disk (a
// shared-disk worker handle or a cluster node's local copy) in a worker
// context with fresh demand clocks.
func newNodeContext(f *seq.File, layout MemoryLayout, opts Options) (*buildContext, error) {
	ioClock, cpuClock := new(sim.Clock), new(sim.Clock)
	sc, err := f.NewScanner(ioClock, seq.ScannerConfig{BufSize: int(layout.InputBuf), SkipSeek: opts.SkipSeek})
	if err != nil {
		return nil, err
	}
	vpsc, err := f.NewScanner(ioClock, seq.ScannerConfig{BufSize: int(layout.InputBuf), SkipSeek: true})
	if err != nil {
		return nil, err
	}
	return &buildContext{
		f: f, sc: sc, vpsc: vpsc,
		cpu: cpuClock, io: ioClock,
		vc: newVertCounter(f.Alphabet()),
	}, nil
}
