package wavefront

import (
	"fmt"
	"sync"
	"time"

	"era/internal/cluster"
	"era/internal/core"
	"era/internal/diskio"
	"era/internal/seq"
	"era/internal/sim"
)

// ParallelResult reports a PWaveFront run (shared-disk or shared-nothing).
type ParallelResult struct {
	Stats            Stats
	ModeledTime      time.Duration
	VPTime           time.Duration
	TransferTime     time.Duration // shared-nothing only
	ConstructionTime time.Duration
}

// BuildParallel runs PWaveFront on a shared-memory, shared-disk machine:
// the master partitions the tree, sub-trees are divided equally among
// workers, each worker builds them against the shared disk. The memory is
// divided equally among cores, like the Fig. 12 experiments.
func BuildParallel(f *seq.File, opts Options, workers int) (*ParallelResult, error) {
	return parallel(f, opts, workers, false)
}

// BuildDistributed runs PWaveFront on a shared-nothing cluster (per-node
// budget, string broadcast), the configuration of Table 3 and Fig. 13.
func BuildDistributed(f *seq.File, opts Options, nodes int) (*ParallelResult, error) {
	return parallel(f, opts, nodes, true)
}

func parallel(f *seq.File, opts Options, workers int, sharedNothing bool) (*ParallelResult, error) {
	if workers < 1 {
		return nil, fmt.Errorf("wavefront: workers must be ≥ 1, got %d", workers)
	}
	if opts.Assemble {
		return nil, fmt.Errorf("wavefront: Assemble is not supported by the parallel drivers")
	}
	model := f.Disk().Model()

	budget := opts.MemoryBudget
	if !sharedNothing {
		budget = opts.MemoryBudget / int64(workers)
	}
	_, _, _, fm, err := Layout(budget)
	if err != nil {
		return nil, err
	}

	var transfer time.Duration
	files := make([]*seq.File, workers)
	if sharedNothing {
		cl, err := cluster.New(f, workers)
		if err != nil {
			return nil, err
		}
		transfer = cl.TransferTime()
		for i := range files {
			files[i] = cl.Node(i)
		}
	} else {
		raw, err := f.Disk().Bytes(f.Name())
		if err != nil {
			return nil, err
		}
		for i := range files {
			d := diskio.NewDisk(model)
			d.CreateFile(f.Name(), raw)
			nf, err := seq.Attach(d, f.Name(), f.Alphabet())
			if err != nil {
				return nil, err
			}
			files[i] = nf
		}
	}

	// Master: vertical partitioning (serial), no grouping.
	masterClock := new(sim.Clock)
	msc, err := files[0].NewScanner(masterClock, seq.ScannerConfig{BufSize: 1 << 20})
	if err != nil {
		return nil, err
	}
	groups, vstats, err := core.VerticalPartition(files[0], msc, masterClock, model, fm, false)
	if err != nil {
		return nil, err
	}
	vpTime := masterClock.Now()

	assign := make([][]core.Group, workers)
	for i, g := range groups {
		assign[i%workers] = append(assign[i%workers], g)
	}

	res := &ParallelResult{VPTime: vpTime, TransferTime: transfer}
	res.Stats.VPTime = vpTime
	res.Stats.Prefixes = vstats.Prefixes
	res.Stats.Groups = vstats.Groups

	perWorker := make([]*workerOut, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			perWorker[w], errs[w] = runWorker(files[w], budget, assign[w])
		}(w)
	}
	wg.Wait()

	cpu := make([]time.Duration, workers)
	io := make([]time.Duration, workers)
	for w, out := range perWorker {
		if errs[w] != nil {
			return nil, fmt.Errorf("wavefront: worker %d: %w", w, errs[w])
		}
		cpu[w] = out.cpu
		io[w] = out.io
		res.Stats.Scans += out.stats.Scans
		res.Stats.Rounds += out.stats.Rounds
		res.Stats.SymbolsRead += out.stats.SymbolsRead
		res.Stats.SubTrees += out.stats.SubTrees
		res.Stats.TreeNodes += out.stats.TreeNodes
		res.Stats.BytesFetched += out.stats.BytesFetched
	}
	if sharedNothing {
		res.ConstructionTime = sim.CombineSharedNothing(cpu, io)
		res.ModeledTime = transfer + vpTime + res.ConstructionTime
	} else {
		res.ConstructionTime = sim.CombineSharedDisk(cpu, io)
		res.ModeledTime = vpTime + res.ConstructionTime
	}
	res.Stats.VirtualTime = res.ModeledTime
	return res, nil
}

type workerOut struct {
	stats Stats
	cpu   time.Duration
	io    time.Duration
}

// runWorker builds the sub-trees of the assigned groups on a private disk
// handle with separate CPU and I/O clocks.
func runWorker(f *seq.File, budget int64, groups []core.Group) (*workerOut, error) {
	model := f.Disk().Model()
	_, bufArea, _, _, err := Layout(budget)
	if err != nil {
		return nil, err
	}
	ioClock := new(sim.Clock)
	cpuClock := new(sim.Clock)
	sc, err := f.NewScanner(ioClock, seq.ScannerConfig{BufSize: 1 << 20})
	if err != nil {
		return nil, err
	}
	view, err := f.View()
	if err != nil {
		return nil, err
	}
	out := &workerOut{}
	for _, g := range groups {
		occs, err := core.CollectOccurrences(f, sc, cpuClock, model, g)
		if err != nil {
			return nil, err
		}
		for pi := range g.Prefixes {
			t, rounds, syms, err := buildSubTree(f, view, sc, cpuClock, model, g.Prefixes[pi], occs[pi], bufArea)
			if err != nil {
				return nil, err
			}
			out.stats.Rounds += rounds
			out.stats.SymbolsRead += syms
			out.stats.SubTrees++
			out.stats.TreeNodes += int64(t.NumNodes() - 1)
		}
	}
	out.stats.Scans = sc.Stats().Scans
	out.stats.BytesFetched = sc.Stats().BytesFetched
	out.cpu = cpuClock.Now()
	out.io = ioClock.Now()
	return out, nil
}
