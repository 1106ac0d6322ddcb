package bench

import (
	"fmt"

	"era/internal/core"
	"era/internal/workload"
)

// ScalingWorkers is the worker-count sweep of the "scaling" experiment.
// cmd/era-bench's -workers flag overrides it.
var ScalingWorkers = []int{1, 2, 4, 8}

// RunScaling emits the Fig. 12-style scale-out table for this repository's
// parallel driver on a skewed input: English text has the most skewed symbol
// distribution of the corpus, so vertical partitioning produces strongly
// uneven group costs — the regime where the static round-robin split used to
// let one unlucky worker set the wall clock. Memory is fixed per core (the
// Table 3 convention) so every worker count builds the identical group set
// and the sweep isolates scheduling and the chunked VP scans; what limits
// scaling is the shared disk arm, exactly the Fig. 12 saturation story.
// Every column is modeled (virtual, machine-independent) time.
func RunScaling(s Scale) (*Table, error) {
	t := &Table{ID: "scaling", Paper: "Fig. 12 (repro)", Title: "scale-out; chunked VP + work-stealing scheduler; skewed English text; fixed memory per core",
		Header: []string{"workers", "SD-modeled(ms)", "SD-VP(ms)", "SD-speedup", "SN-modeled(ms)", "SN-speedup"}}
	n := s.GB(4)
	perCore := int64(s.GB(4))
	var baseSD, baseSN float64
	for _, w := range ScalingWorkers {
		f, err := s.dataset(workload.English, n, 12003)
		if err != nil {
			return nil, err
		}
		// The SD build assembles the flat image directly (the production path).
		er, err := core.BuildParallel(f, core.ParallelOptions{
			Options: core.Options{MemoryBudget: perCore * int64(w), AssembleFlat: true},
			Workers: w,
		})
		if err != nil {
			return nil, err
		}
		f2, err := s.dataset(workload.English, n, 12003)
		if err != nil {
			return nil, err
		}
		dr, err := core.BuildDistributed(f2, core.DistributedOptions{
			Options: core.Options{MemoryBudget: perCore},
			Nodes:   w,
		})
		if err != nil {
			return nil, err
		}
		sd, sn := float64(er.ModeledTime), float64(dr.VPTime+dr.ConstructionTime)
		if baseSD == 0 {
			baseSD, baseSN = sd, sn
		}
		t.AddRow(itoa(w), ms(er.ModeledTime), ms(er.VPTime),
			fmt.Sprintf("%.2f", baseSD/sd),
			ms(dr.VPTime+dr.ConstructionTime),
			fmt.Sprintf("%.2f", baseSN/sn))
	}
	t.Notes = append(t.Notes,
		"SD = shared disk (one arm serializes all workers' I/O), SN = shared nothing (local copies; excl. broadcast)",
		"speedups are over modeled (virtual) time, deterministic across machines",
		"VP counting scans are chunked across workers; SD saturates at the disk bound (the Fig. 12 story), SN scales with the slowest node")
	return t, nil
}
