package core

import (
	"fmt"
	"time"

	"era/internal/cluster"
	"era/internal/seq"
	"era/internal/sim"
	"era/internal/suffixtree"
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

// DistributedResult reports a shared-nothing build with the component times
// the paper's Table 3 separates: string transfer, vertical partitioning
// (chunked across the nodes), and tree construction.
type DistributedResult struct {
	Flat             *suffixtree.Flat   // flat sections of the whole tree when Options.AssembleFlat
	Shards           []suffixtree.Shard // flat sections per prefix range when Options.AssembleFlat
	Stats            Stats
	TransferTime     time.Duration // broadcast of S to all nodes
	VPTime           time.Duration // chunked vertical partitioning
	ConstructionTime time.Duration // slowest node under the modeled LPT schedule
	TotalTime        time.Duration // everything
	Nodes            []WorkerStats

	order suffixOrder // what the groups wrote and the assembly read, under Options.AssembleFlat
}

// BuildDistributed runs ERA on a simulated shared-nothing cluster: the
// master broadcasts S, every node counts one chunk of the vertical
// partitioning scans against its local copy (the master merges the count
// tables, priced per round), and the groups then feed the shared cost-sorted
// queue — in a real cluster the master hands groups to idle nodes with
// control messages; every node builds its virtual trees entirely locally.
// Completion is the slowest node (no merge phase — the property that makes
// ERA "easily parallelizable", §5).
func BuildDistributed(f *seq.File, opts DistributedOptions) (*DistributedResult, error) {
	if opts.Nodes < 1 {
		return nil, fmt.Errorf("core: Nodes must be ≥ 1, got %d", opts.Nodes)
	}
	if err := validateFlatOptions(opts.Options); err != nil {
		return nil, err
	}
	model := f.Disk().Model()

	// Broadcast S to every node (§5: "during initialization the input
	// string should be transmitted to each node").
	cl, err := cluster.New(f, opts.Nodes)
	if err != nil {
		return nil, err
	}
	transfer := cl.TransferTime()

	layout, err := PlanMemory(opts.MemoryBudget, opts.RSize, f.Alphabet().Bits())
	if err != nil {
		return nil, err
	}

	ctxs := make([]*buildContext, opts.Nodes)
	for i := range ctxs {
		if ctxs[i], err = newNodeContext(cl.Node(i), layout, opts.Options); err != nil {
			return nil, err
		}
	}
	// Per-round count-table exchange: every node ships one counter per
	// working prefix through the switch (a single pipelined gather).
	var mergeCost func(working int) time.Duration
	if opts.Nodes > 1 {
		mergeCost = func(working int) time.Duration { return model.NetTime(8 * int64(working)) }
	}
	groups, vstats, vpTime, err := verticalPartitionChunked(ctxs, f.Len(), model, layout.FM, !opts.NoGrouping, sim.CombineSharedNothing, mergeCost)
	if err != nil {
		return nil, err
	}

	res := &DistributedResult{TransferTime: transfer, VPTime: vpTime}
	// Every node writes its groups' windows of the one suffix order: the
	// simulated cluster shares the process, as a real one would share the
	// shards' output files.
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

	cpu, io, ws := foldRuns(jobs, runs, opts.Nodes, &res.Stats)
	res.Nodes = ws

	if opts.AssembleFlat {
		raw, err := f.Disk().Bytes(f.Name())
		if err != nil {
			return nil, err
		}
		if res.Shards, res.Flat, err = res.order.assemble(raw, opts.Shards); err != nil {
			return nil, err
		}
	}

	res.ConstructionTime = sim.CombineSharedNothing(cpu, io)
	res.TotalTime = transfer + vpTime + res.ConstructionTime
	res.Stats.VirtualTime = res.TotalTime
	return res, nil
}
