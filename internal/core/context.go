package core

import (
	"context"

	"era/internal/diskio"
	"era/internal/seq"
	"era/internal/sim"
	"era/internal/suffixtree"
)

// buildContext is the reusable state of one construction worker. Everything
// a group build needs beyond its inputs lives here — the rolling-code window
// counter, the round-loop scratch, the collect-scan buffers, the windows
// the sub-trees are written into and a recycled sub-tree. Each array grows
// to the largest group or area the worker meets and R to the memory plan's
// size, after which a round allocates nothing, not even a regrowth of R, and
// a group only per-group bookkeeping. A build creates one per worker (a
// serial build has one) and keeps it across vertical partitioning and every
// group the worker pulls from the queue.
//
// A context is single-threaded: it must only ever be used by one goroutine
// at a time.
type buildContext struct {
	// Worker plumbing, set by newNodeContext (nil/zero for plain scratch
	// contexts): the worker's handle onto the input, the group-scan and
	// chunked-VP scanners, and the worker's demand clocks.
	f    *seq.File
	sc   *seq.Scanner // group scans (and the serial VP's); charges io
	vpsc *seq.Scanner // VP chunk scans; skip-enabled so a chunk opens with one positioning seek
	cpu  *sim.Clock
	io   *sim.Clock
	stop context.Context // Options.Context, checked once per pass and round

	// Rolling-code window counter of the chunked VP: one per worker, reused
	// across every VP iteration (its scan buffer doubles as the chunk-scan
	// buffer).
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
	// ERa-str+mem sub-tree is dropped after accounting — and the depth stack
	// a flat build replays each sub-tree's node count on.
	tree         *suffixtree.Tree
	depthScratch []int32

	// The windows the groups write their sub-trees into. A flat build sets
	// order to the build's one suffix order, shared by every worker (each
	// prefix's window sits at its Rank, and workers write disjoint
	// windows); a build that drops its sub-trees leaves it empty, and the
	// windows come from winSlab instead, laid out in group order and reused
	// by the next group.
	order   suffixOrder
	winSlab []int32

	// Per-group pooled storage — the remaining per-group allocations the
	// ROADMAP flagged after PR 3: the collect matcher (root table + trie
	// blocks), the per-prefix headers of the SA and LCP windows, each
	// prefix's first chunk slot, and the subState headers with their P/I/R
	// and area backing. Carved per group, reused across every group a worker
	// processes, so the steady state allocates nothing per group either.
	// The pooled outputs (CollectWithFill's occs and chunks, GroupPrepare's
	// []Prepared) stay valid only until the next CollectWithFill/GroupPrepare
	// on the same context — exactly the lifetime processGroup gives them;
	// windows of order are the build's output and stay.
	cm         *collectMatcher
	lengthsBuf []int
	lengthSeen []bool
	occLists   [][]int32
	lcpLists   [][]int32
	slotBase   []int32
	subStates  []subState
	subPtrs    []*subState
	startsBuf  []int
	prepBuf    []Prepared
	i32Slab    []int32
	areaSlab   []byte
}

// scanBuf returns the reusable collect-scan buffer of at least n bytes.
func (ctx *buildContext) scanBuf(n int) []byte {
	if cap(ctx.collectBuf) < n {
		ctx.collectBuf = make([]byte, n)
	}
	return ctx.collectBuf[:n]
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
	return newNodeContext(f, layout, opts, true)
}

// newNodeContext wraps a file on a disk of its own (f itself in a serial
// build, a shared-disk worker's handle, a cluster node's local copy) in a
// worker context with fresh demand clocks. chunked adds the counter and the
// scanner of the chunked vertical partitioning, which the serial build does
// not run.
func newNodeContext(f *seq.File, layout MemoryLayout, opts Options, chunked bool) (*buildContext, error) {
	ioClock, cpuClock := new(sim.Clock), new(sim.Clock)
	sc, err := f.NewScanner(ioClock, seq.ScannerConfig{BufSize: int(layout.InputBuf), SkipSeek: opts.SkipSeek})
	if err != nil {
		return nil, err
	}
	ctx := &buildContext{f: f, sc: sc, cpu: cpuClock, io: ioClock, stop: opts.Context}
	if chunked {
		if ctx.vpsc, err = f.NewScanner(ioClock, seq.ScannerConfig{BufSize: int(layout.InputBuf), SkipSeek: true}); err != nil {
			return nil, err
		}
		ctx.vc = newVertCounter(f.Alphabet())
	}
	return ctx, nil
}
