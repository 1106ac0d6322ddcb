package bench

import (
	"fmt"
	"time"

	"era/internal/core"
	"era/internal/wavefront"
	"era/internal/workload"
)

// RunFig12a reproduces Fig. 12(a): shared-memory/shared-disk strong
// scalability on the human genome with 16 GB of total RAM divided equally
// among 1–8 cores; ERA without the seek optimization vs PWaveFront.
func RunFig12a(s Scale) (*Table, error) {
	t := &Table{ID: "fig12a", Paper: "Fig. 12(a)", Title: "shared-disk strong scalability; human genome; 16GB RAM total",
		Header: []string{"cores", "WF(ms)", "ERA-NoSeek(ms)", "WF/ERA"}}
	n := s.GB(genomeGB)
	total := int64(s.GB(16))
	for _, cores := range []int{1, 2, 4, 8} {
		f, err := s.dataset(workload.Genome, n, 12001)
		if err != nil {
			return nil, err
		}
		wf, err := wavefront.BuildParallel(f, wavefront.Options{MemoryBudget: total}, cores)
		if err != nil {
			return nil, err
		}
		f2, err := s.dataset(workload.Genome, n, 12001)
		if err != nil {
			return nil, err
		}
		er, err := core.BuildParallel(f2, core.ParallelOptions{
			Options: core.Options{MemoryBudget: total},
			Workers: cores,
		})
		if err != nil {
			return nil, err
		}
		t.AddRow(itoa(cores), ms(wf.ModeledTime), ms(er.Stats.VirtualTime), ratio(wf.ModeledTime, er.Stats.VirtualTime))
	}
	t.Notes = append(t.Notes,
		"paper: ERA ≥1.5x WF up to 4 cores; ERA saturates at 8 cores on the shared disk while WF (CPU-bound) keeps scaling")
	return t, nil
}

// RunFig12b reproduces Fig. 12(b): the 4 GBps DNA dataset, adding ERA with
// the seek optimization — which helps at few cores and hurts at many (the
// disk arm swings between the cores' skip patterns).
func RunFig12b(s Scale) (*Table, error) {
	t := &Table{ID: "fig12b", Paper: "Fig. 12(b)", Title: "shared-disk scalability; 4GBps DNA; 16GB RAM total",
		Header: []string{"cores", "WF(ms)", "ERA-NoSeek(ms)", "ERA-WithSeek(ms)"}}
	n := s.GB(4)
	total := int64(s.GB(16))
	for _, cores := range []int{1, 2, 4, 8} {
		f, err := s.dataset(workload.DNA, n, 12002)
		if err != nil {
			return nil, err
		}
		wf, err := wavefront.BuildParallel(f, wavefront.Options{MemoryBudget: total}, cores)
		if err != nil {
			return nil, err
		}
		f2, err := s.dataset(workload.DNA, n, 12002)
		if err != nil {
			return nil, err
		}
		noSeek, err := core.BuildParallel(f2, core.ParallelOptions{
			Options: core.Options{MemoryBudget: total},
			Workers: cores,
		})
		if err != nil {
			return nil, err
		}
		f3, err := s.dataset(workload.DNA, n, 12002)
		if err != nil {
			return nil, err
		}
		withSeek, err := core.BuildParallel(f3, core.ParallelOptions{
			Options: core.Options{MemoryBudget: total, SkipSeek: true},
			Workers: cores,
		})
		if err != nil {
			return nil, err
		}
		t.AddRow(itoa(cores), ms(wf.ModeledTime), ms(noSeek.Stats.VirtualTime), ms(withSeek.Stats.VirtualTime))
	}
	t.Notes = append(t.Notes,
		"paper: with-seek wins at few cores, loses at 8 (independent cores swing the shared disk head)")
	return t, nil
}

// RunTable3 reproduces Table 3: shared-nothing strong scalability on the
// human genome with 1 GB per CPU. Construction-time columns exclude the
// string transfer and the (serial) vertical partitioning; the final column
// includes them.
func RunTable3(s Scale) (*Table, error) {
	t := &Table{ID: "table3", Paper: "Table 3", Title: "shared-nothing strong scalability; human genome; 1GB per CPU",
		Header: []string{"CPU", "WF(ms)", "ERA(ms)", "gain%", "ERA-speedup", "ERA-all-speedup"}}
	n := s.GB(genomeGB)
	mem := int64(s.GB(1))

	type point struct {
		wf, era, eraAll float64
	}
	var pts []point
	cpus := []int{1, 2, 4, 8, 16}
	for _, c := range cpus {
		f, err := s.dataset(workload.Genome, n, 3001)
		if err != nil {
			return nil, err
		}
		wf, err := wavefront.BuildDistributed(f, wavefront.Options{MemoryBudget: mem}, c)
		if err != nil {
			return nil, err
		}
		f2, err := s.dataset(workload.Genome, n, 3001)
		if err != nil {
			return nil, err
		}
		er, err := core.BuildDistributed(f2, core.DistributedOptions{
			Options: core.Options{MemoryBudget: mem},
			Nodes:   c,
		})
		if err != nil {
			return nil, err
		}
		pts = append(pts, point{
			wf:     float64(wf.ConstructionTime),
			era:    float64(constructionTime(er)),
			eraAll: float64(er.Stats.VirtualTime),
		})
	}
	for i, c := range cpus {
		gain := 100 * (pts[i].wf - pts[i].era) / pts[i].era
		// Speedups are relative to the 1-CPU run, normalized per CPU count
		// (1.0 = perfectly linear).
		speedup := pts[0].era / pts[i].era / float64(c)
		speedupAll := pts[0].eraAll / pts[i].eraAll / float64(c)
		t.AddRow(itoa(c),
			fmt.Sprintf("%.2f", pts[i].wf/1e6),
			fmt.Sprintf("%.2f", pts[i].era/1e6),
			fmt.Sprintf("%.0f", gain),
			fmt.Sprintf("%.2f", speedup),
			fmt.Sprintf("%.2f", speedupAll))
	}
	t.Notes = append(t.Notes,
		"paper: ERA ~3x WF (gain ~300%); ERA speedup near the 1.0 optimum; the all column dips (transfer+VP are serial)")
	return t, nil
}

// RunFig13 reproduces Fig. 13: shared-nothing weak scalability — the DNA
// string grows with the node count (256 MBps per node), 1 GB per node.
// Optimal weak scalability is impossible (every node still scans the whole
// string); the paper's claim is that ERA's slope is much smaller than WF's.
func RunFig13(s Scale) (*Table, error) {
	t := &Table{ID: "fig13", Paper: "Fig. 13", Title: "shared-nothing weak scalability; DNA 256MBps per node; 1GB per node",
		Header: []string{"nodes", "size(MBps)", "WF(ms)", "ERA(ms)", "WF/ERA"}}
	mem := int64(s.GB(1))
	for _, p := range []int{1, 2, 4, 8, 16} {
		n := s.GB(0.25 * float64(p))
		f, err := s.dataset(workload.DNA, n, 13001)
		if err != nil {
			return nil, err
		}
		wf, err := wavefront.BuildDistributed(f, wavefront.Options{MemoryBudget: mem}, p)
		if err != nil {
			return nil, err
		}
		f2, err := s.dataset(workload.DNA, n, 13001)
		if err != nil {
			return nil, err
		}
		er, err := core.BuildDistributed(f2, core.DistributedOptions{
			Options: core.Options{MemoryBudget: mem},
			Nodes:   p,
		})
		if err != nil {
			return nil, err
		}
		t.AddRow(itoa(p), itoa(256*p), ms(wf.ConstructionTime), ms(constructionTime(er)),
			ratio(wf.ConstructionTime, constructionTime(er)))
	}
	t.Notes = append(t.Notes,
		"paper: both grow linearly with node count, ERA's slope much smaller; at 4096MBps ERA is ~2.5x WF")
	return t, nil
}

// constructionTime is an ERA build's group phase: its modeled time less the
// broadcast of S and vertical partitioning (Table 3's construction column).
func constructionTime(r *core.Result) time.Duration {
	return r.Stats.VirtualTime - r.TransferTime - r.Stats.VPTime
}
