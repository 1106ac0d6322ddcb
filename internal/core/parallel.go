package core

import (
	"fmt"
	"time"

	"era/internal/seq"
	"era/internal/sim"
)

// ParallelOptions configure the shared-memory, shared-disk parallel build
// (§5). The memory budget is the machine total and is divided equally among
// the workers, exactly as in the Fig. 12 experiments.
type ParallelOptions struct {
	Options
	// Workers is the number of cores. Each gets MemoryBudget/Workers, and
	// each runs groups or, when there are fewer groups than cores, the
	// prepare rounds of a group beside the worker that owns it.
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

// BuildParallel runs ERA on a shared-memory, shared-disk machine. Every
// phase scales with the cores: vertical partitioning's counting scans are
// chunked across the workers (one rolling-code counter each, merged dense
// tables, max-chunk modeled time), and the groups then feed a shared
// cost-sorted queue that idle workers pull from (LPT + work stealing) with
// every worker reusing one persistent build context across all its groups.
// A queue of g groups with w ≥ 2g workers would leave cores idle, so each
// group's owner is lent ⌊w/g⌋−1 of them (lendIdle): their goroutines run
// the group's per-sub-tree prepare rounds beside the owner's, each in its own
// context's sort scratch, while the collect scan, the fill schedule and the
// fetch stay with the owner. Their operations are charged to the owner, so
// the lent workers change the wall time and nothing modeled. Real goroutines
// do the real work; the modeled completion combines
// per-worker demands with the single-disk serialization bound
// (sim.CombineSharedDisk), and — matching the Fig. 12(b) observation —
// charges extra arm travel when several workers run the seek optimization
// concurrently. Images, serialized sub-trees and every Stats counter except
// the modeled times are byte-identical across worker counts.
func BuildParallel(f *seq.File, opts ParallelOptions) (*Result, error) {
	p, err := sharedDisk(f, opts)
	if err != nil {
		return nil, err
	}
	return p.run(f, opts.Options)
}

// sharedDisk is BuildParallel's pipeline.
func sharedDisk(f *seq.File, opts ParallelOptions) (pipeline, error) {
	if opts.Workers < 1 {
		return pipeline{}, fmt.Errorf("core: Workers must be ≥ 1, got %d", opts.Workers)
	}
	raw, err := f.Disk().Bytes(f.Name())
	if err != nil {
		return pipeline{}, err
	}
	model := f.Disk().Model()
	return pipeline{
		workers: opts.Workers,
		lend:    true,
		// Every core must fit its virtual trees in its own share.
		budget: opts.MemoryBudget / int64(opts.Workers),
		context: func(_ int, layout MemoryLayout) (*buildContext, error) {
			return newWorkerContext(f, raw, model, layout, opts.Options)
		},
		partition: func(ctxs []*buildContext, fm int64, grouping bool) ([]Group, VerticalStats, time.Duration, error) {
			return verticalPartitionChunked(ctxs, f.Len(), model, fm, grouping, sim.CombineSharedDisk, nil)
		},
		combine: func(cpu, io []time.Duration) time.Duration {
			if opts.SkipSeek && opts.Workers > 1 {
				// Concurrent skip-seek patterns from independent cores swing
				// the shared arm back and forth (§6.2): fine-grained
				// skip-mode requests defeat the disk's readahead once they
				// interleave with other cores' request streams, degrading
				// each core's effective read bandwidth in proportion to its
				// competitors. Sequential (no-seek) streams coexist via
				// readahead and are not penalized.
				for w := range io {
					io[w] += io[w] * time.Duration(16*(opts.Workers-1)) / 100
				}
			}
			return sim.CombineSharedDisk(cpu, io)
		},
	}, nil
}
