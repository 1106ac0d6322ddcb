package core

import (
	"fmt"
	"time"

	"era/internal/seq"
	"era/internal/sim"
	"era/internal/suffixtree"
)

// ParallelOptions configure the shared-memory, shared-disk parallel build
// (§5). The memory budget is the machine total and is divided equally among
// the workers, exactly as in the Fig. 12 experiments.
type ParallelOptions struct {
	Options
	// Workers is the number of cores. Each gets MemoryBudget/Workers.
	Workers int
}

// WorkerStats is the accounted demand of one worker under the modeled LPT
// schedule (deterministic — independent of which goroutine really ran which
// group).
type WorkerStats struct {
	CPU      time.Duration
	IO       time.Duration
	Seeks    int64
	Groups   int
	SubTrees int
}

// ParallelResult reports a parallel build.
type ParallelResult struct {
	Flat        *suffixtree.Flat   // flat sections of the whole tree when Options.AssembleFlat
	Shards      []suffixtree.Shard // flat sections per prefix range when Options.AssembleFlat
	Stats       Stats              // aggregate counters (scans etc. summed)
	ModeledTime time.Duration      // virtual completion incl. VP and contention
	VPTime      time.Duration
	Workers     []WorkerStats

	order suffixOrder // what the groups wrote and the assembly read, under Options.AssembleFlat
}

// BuildParallel runs ERA on a shared-memory, shared-disk machine. Every
// phase scales with the cores: vertical partitioning's counting scans are
// chunked across the workers (one rolling-code counter each, merged dense
// tables, max-chunk modeled time), and the groups then feed a shared
// cost-sorted queue that idle workers pull from (LPT + work stealing) with
// every worker reusing one persistent build context across all its groups.
// Real goroutines do the real work; the modeled completion combines
// per-worker demands with the single-disk serialization bound
// (sim.CombineSharedDisk), and — matching the Fig. 12(b) observation —
// charges extra arm travel when several workers run the seek optimization
// concurrently. Images, serialized sub-trees and every Stats counter except
// the modeled times are byte-identical across worker counts.
func BuildParallel(f *seq.File, opts ParallelOptions) (*ParallelResult, error) {
	if opts.Workers < 1 {
		return nil, fmt.Errorf("core: Workers must be ≥ 1, got %d", opts.Workers)
	}
	if err := validateFlatOptions(opts.Options); err != nil {
		return nil, err
	}
	perCore := opts.MemoryBudget / int64(opts.Workers)
	model := f.Disk().Model()

	// Vertical partitioning with the per-core FM (every core must fit its
	// virtual trees in its own share), chunked across the workers.
	layout, err := PlanMemory(perCore, opts.RSize, f.Alphabet().Bits())
	if err != nil {
		return nil, err
	}
	raw, err := f.Disk().Bytes(f.Name())
	if err != nil {
		return nil, err
	}
	ctxs := make([]*buildContext, opts.Workers)
	for w := range ctxs {
		if ctxs[w], err = newWorkerContext(f, raw, model, layout, opts.Options); err != nil {
			return nil, err
		}
	}
	groups, vstats, vpTime, err := verticalPartitionChunked(ctxs, f.Len(), model, layout.FM, !opts.NoGrouping, sim.CombineSharedDisk, nil)
	if err != nil {
		return nil, err
	}

	res := &ParallelResult{VPTime: vpTime}
	if res.order, err = newSuffixOrder(opts.Options, groups, f.Len(), ctxs...); err != nil {
		return nil, err
	}
	res.Stats.VPTime = vpTime
	res.Stats.VPIterations = vstats.Iterations
	res.Stats.Prefixes = vstats.Prefixes
	res.Stats.Groups = vstats.Groups
	res.Stats.MinRange = int(^uint(0) >> 1)

	jobs := scheduleGroups(groups)
	runs, err := runGroupQueue(ctxs, jobs, model, layout, opts.Options)
	if err != nil {
		return nil, err
	}

	cpu, io, ws := foldRuns(jobs, runs, opts.Workers, &res.Stats)

	if opts.AssembleFlat {
		if res.Shards, res.Flat, err = res.order.assemble(raw, opts.Shards); err != nil {
			return nil, err
		}
	}

	if opts.SkipSeek && opts.Workers > 1 {
		// Concurrent skip-seek patterns from independent cores swing the
		// shared arm back and forth (§6.2): fine-grained skip-mode requests
		// defeat the disk's readahead once they interleave with other cores'
		// request streams, degrading each core's effective read bandwidth in
		// proportion to its competitors. Sequential (no-seek) streams
		// coexist via readahead and are not penalized.
		for w := range io {
			io[w] += io[w] * time.Duration(16*(opts.Workers-1)) / 100
			ws[w].IO = io[w]
		}
	}
	res.Workers = ws
	res.ModeledTime = vpTime + sim.CombineSharedDisk(cpu, io)
	res.Stats.VirtualTime = res.ModeledTime
	return res, nil
}
