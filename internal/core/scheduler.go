package core

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"era/internal/sim"
)

// This file schedules virtual-tree groups onto workers. The old drivers
// dealt groups round-robin up front, so one unlucky worker holding the
// heaviest groups set the wall clock ("ERA Revisited" identifies exactly
// this group-size skew as a scaling dominator). Instead, groups sorted by
// estimated cost feed a shared queue that idle workers pull from — LPT plus
// work stealing. Real goroutines drain the queue for wall time; the modeled
// completion replays the same queue order deterministically with
// sim.AssignLPT over the measured per-group demands, so virtual times do not
// depend on goroutine timing.
//
// Determinism: a group's demand is a function of the group alone. Every
// group scan starts with one positioning seek whatever the arm position left
// by the previous group, CPU advances are pure sums, and each worker's disk
// handle is private (cross-worker interference is folded in analytically),
// so the measured (cpu, io) deltas are identical whichever worker runs the
// group, in whatever order. Sub-tree names derive from the global group
// index and every sub-tree is written to its label's window of the suffix
// order, so images, serialized output and aggregate Stats are
// byte-identical across worker counts — and match the serial build, which
// is this queue drained by one worker.

// groupJob is one queue entry: a group, its original index (naming, stats
// and assembly order) and its estimated cost (queue order).
type groupJob struct {
	gi   int
	g    Group
	cost int64
}

// estimateGroupCost predicts a group's relative construction demand from the
// VP statistics alone: every round fetches ~range symbols for each of the
// group's Freq leaves (range × frequency is the per-round traffic), and the
// leaf count also drives the sort and split work per round, so Freq
// dominates; the prefix count adds per-sub-tree fixed cost.
func estimateGroupCost(g Group) int64 {
	return g.Freq + int64(len(g.Prefixes))
}

// scheduleGroups orders the groups by descending estimated cost — the
// service order of the shared queue — stably, so equal-cost groups keep
// their original relative order and the schedule is deterministic.
func scheduleGroups(groups []Group) []groupJob {
	jobs := make([]groupJob, len(groups))
	for i, g := range groups {
		jobs[i] = groupJob{gi: i, g: g, cost: estimateGroupCost(g)}
	}
	sort.SliceStable(jobs, func(a, b int) bool { return jobs[a].cost > jobs[b].cost })
	return jobs
}

// groupRun records the measured demand and output of one group's build. The
// Stats field holds only this group's share (scans, rounds, symbols, ranges,
// sub-trees, nodes, bytes, skips).
type groupRun struct {
	cpu, io time.Duration
	seeks   int64
	stats   Stats
}

// runGroupQueue drains the job queue with one goroutine per context: idle
// workers pull the next-costliest remaining group (work stealing via a
// shared cursor). Results land in queue order; runs[i] belongs to jobs[i].
// Once the build is stopped or a group fails, no worker pulls another.
func runGroupQueue(ctxs []*buildContext, jobs []groupJob, model sim.CostModel,
	layout MemoryLayout, opts Options) ([]groupRun, error) {

	runs := make([]groupRun, len(jobs))
	errs := make([]error, len(ctxs))
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for w := range ctxs {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(cursor.Add(1) - 1)
				if errs[w] = stopped(opts.Context); errs[w] != nil || i >= len(jobs) {
					return
				}
				if err := runGroupOn(ctxs[w], jobs[i], model, layout, opts, &runs[i]); err != nil {
					if errs[w] = stopped(opts.Context); errs[w] == nil {
						errs[w] = fmt.Errorf("group %d: %w", jobs[i].gi, err)
					}
					cursor.Store(int64(len(jobs))) // the others pull no more
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return runs, nil
}

// runGroupOn builds one group on a worker context, measuring its demands as
// deltas of the worker's clocks and counters.
func runGroupOn(ctx *buildContext, job groupJob, model sim.CostModel,
	layout MemoryLayout, opts Options, out *groupRun) error {

	cpu0, io0 := ctx.cpu.Now(), ctx.io.Now()
	scan0 := ctx.sc.Stats()
	seeks0 := ctx.f.Disk().Stats().Seeks

	st := &out.stats
	st.MinRange = int(^uint(0) >> 1)
	if err := processGroup(ctx, model, layout, opts, job.g, job.gi, st); err != nil {
		return err
	}

	scan1 := ctx.sc.Stats()
	st.Scans = scan1.Scans - scan0.Scans
	st.BytesFetched = scan1.BytesFetched - scan0.BytesFetched
	st.SkipsTaken = scan1.Skips - scan0.Skips
	if st.MinRange > st.MaxRange {
		st.MinRange = 0
	}
	out.cpu = ctx.cpu.Now() - cpu0
	out.io = ctx.io.Now() - io0
	out.seeks = ctx.f.Disk().Stats().Seeks - seeks0
	return nil
}

// foldRuns aggregates the per-group results: Stats sums (in original group
// order), the deterministic modeled LPT assignment of measured demands onto
// workers, and per-worker WorkerStats.
func foldRuns(jobs []groupJob, runs []groupRun, workers int, agg *Stats) (cpu, io []time.Duration, ws []WorkerStats) {
	byGi := make([]int, len(jobs))
	for qi, job := range jobs {
		byGi[job.gi] = qi
	}
	for gi := range byGi {
		s := &runs[byGi[gi]].stats
		agg.Scans += s.Scans
		agg.Rounds += s.Rounds
		agg.SymbolsRead += s.SymbolsRead
		agg.SubTrees += s.SubTrees
		agg.TreeNodes += s.TreeNodes
		agg.BytesFetched += s.BytesFetched
		agg.SkipsTaken += s.SkipsTaken
		if s.MinRange > 0 && s.MinRange < agg.MinRange {
			agg.MinRange = s.MinRange
		}
		if s.MaxRange > agg.MaxRange {
			agg.MaxRange = s.MaxRange
		}
	}
	if agg.MinRange > agg.MaxRange {
		agg.MinRange = 0
	}

	durs := make([]time.Duration, len(runs))
	for i := range runs {
		durs[i] = runs[i].cpu + runs[i].io
	}
	assign := sim.AssignLPT(durs, workers)
	cpu = make([]time.Duration, workers)
	io = make([]time.Duration, workers)
	ws = make([]WorkerStats, workers)
	for i, w := range assign {
		cpu[w] += runs[i].cpu
		io[w] += runs[i].io
		ws[w].CPU += runs[i].cpu
		ws[w].IO += runs[i].io
		ws[w].Seeks += runs[i].seeks
		ws[w].Groups++
		ws[w].SubTrees += runs[i].stats.SubTrees
	}
	return cpu, io, ws
}
