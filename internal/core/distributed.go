package core

import (
	"fmt"
	"time"

	"era/internal/cluster"
	"era/internal/seq"
	"era/internal/sim"
)

// DistributedOptions configure the shared-nothing parallel build (§5,
// Table 3, Fig. 13). MemoryBudget is interpreted per node (the paper uses
// 1 GB per CPU in Table 3).
type DistributedOptions struct {
	Options
	// Nodes is the cluster size. Each node holds its own copy of S on its
	// own disk after the initial broadcast.
	Nodes int
}

// BuildDistributed runs ERA on a simulated shared-nothing cluster: the
// master broadcasts S, every node counts one chunk of the vertical
// partitioning scans against its local copy (the master merges the count
// tables, priced per round), and the groups then feed the shared cost-sorted
// queue — in a real cluster the master hands groups to idle nodes with
// control messages; every node builds its virtual trees entirely locally.
// Completion is the slowest node (no merge phase — the property that makes
// ERA "easily parallelizable", §5). The result separates the component
// times the paper's Table 3 does: Result.TransferTime, Stats.VPTime, and the
// rest of Stats.VirtualTime for tree construction.
func BuildDistributed(f *seq.File, opts DistributedOptions) (*Result, error) {
	if opts.Nodes < 1 {
		return nil, fmt.Errorf("core: Nodes must be ≥ 1, got %d", opts.Nodes)
	}
	// Broadcast S to every node (§5: "during initialization the input
	// string should be transmitted to each node").
	cl, err := cluster.New(f, opts.Nodes)
	if err != nil {
		return nil, err
	}
	model := f.Disk().Model()
	// Per-round count-table exchange: every node ships one counter per
	// working prefix through the switch (a single pipelined gather).
	var mergeCost func(working int) time.Duration
	if opts.Nodes > 1 {
		mergeCost = func(working int) time.Duration { return model.NetTime(8 * int64(working)) }
	}
	return pipeline{
		workers:  opts.Nodes,
		budget:   opts.MemoryBudget,
		transfer: cl.TransferTime(),
		context: func(i int, layout MemoryLayout) (*buildContext, error) {
			return newChunkContext(cl.Node(i), layout, opts.Options)
		},
		partition: func(ctxs []*buildContext, fm int64, grouping bool) ([]Group, VerticalStats, time.Duration, error) {
			return verticalPartitionChunked(ctxs, f.Len(), model, fm, grouping, sim.CombineSharedNothing, mergeCost)
		},
		combine: sim.CombineSharedNothing,
	}.run(f, opts.Options)
}
