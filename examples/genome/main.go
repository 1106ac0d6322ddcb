// Genome indexing: the paper's headline scenario — index a genome-scale
// DNA sequence under a memory budget a fraction of the string size, then
// compare the serial, shared-disk parallel, and shared-nothing cluster
// builds (§5, §6.2), and run biological-flavoured queries.
package main

import (
	"fmt"
	"log"
	"time"

	"era"
	"era/internal/sim"
	"era/internal/workload"
)

func main() {
	// A synthetic "genome": repeat-rich DNA (LINE/SINE-like structure).
	const n = 1 << 20 // 1 Msym stands in for the 2.6 Gsym human genome
	genome := workload.MustGenerate(workload.Genome, n, 2011)
	genome = genome[:len(genome)-1] // Build appends its own terminator

	// Memory budget 1:5 to the string — the paper's out-of-core regime.
	budget := int64(n / 5)

	// An SSD-class disk model: at this miniature scale the default
	// 2011-spinning-disk seek latency would dominate every scan.
	ssd := sim.DefaultModel()
	ssd.SeekLatency = 100 * time.Microsecond
	ssd.SeqReadBandwidth = 500e6
	ssd.SeqWriteBandwidth = 450e6

	fmt.Printf("indexing %d DNA symbols with a %d-byte budget (1:%d)\n\n", n, budget, int64(n)/budget)

	for _, cfg := range []struct {
		name string
		mode era.Mode
	}{
		{"serial", era.Serial},
		{"shared-disk ×4", era.SharedDisk},
		{"shared-nothing ×4", era.SharedNothing},
	} {
		idx, err := era.Build(genome, &era.Config{
			Mode:         cfg.mode,
			Workers:      4,
			MemoryBudget: budget,
			SkipSeek:     true,
			DiskModel:    &ssd,
		})
		if err != nil {
			log.Fatal(err)
		}
		s := idx.Stats()
		if s.InMemory { // not at this budget: a fifth of the string holds no suffix array
			fmt.Printf("%-18s in-memory (suffix array)\n", cfg.name)
		} else {
			fmt.Printf("%-18s modeled %10v  scans %4d  virtual trees %3d  sub-trees %4d\n",
				cfg.name, s.ModeledTime, s.Scans, s.Groups, s.SubTrees)
		}

		if cfg.mode == era.Serial {
			// Query the serial index.
			probe := genome[n/2 : n/2+24] // a known 24-mer
			fmt.Printf("\n  24-mer %q: %d occurrence(s)\n", probe, idx.Count(probe))
			lrs, occ := idx.LongestRepeatedSubstring()
			fmt.Printf("  longest repeat: %d bp, %d copies (e.g. offsets %v...)\n",
				len(lrs), len(occ), occ[:min(3, len(occ))])
			reps := idx.Repeats(64, 4)
			fmt.Printf("  repeat families ≥64 bp with ≥4 copies: %d\n\n", len(reps))
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
