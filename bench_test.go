package era_test

// One testing.B benchmark per table and figure of the paper's evaluation
// (§6). Each iteration regenerates the experiment's full sweep at Small
// scale and reports the headline series as custom metrics, so
// `go test -bench . -benchmem` reproduces every result in one run.
// cmd/era-bench prints the full tables (use -scale medium/large for bigger
// runs).

import (
	"fmt"
	"strconv"
	"testing"

	"era"
	"era/internal/bench"
	"era/internal/workload"
)

// runExperiment executes one experiment per b.N iteration and publishes the
// last row's timing cells as metrics.
func runExperiment(b *testing.B, id string, metricCols map[string]int) {
	b.Helper()
	e, err := bench.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	var last *bench.Table
	for i := 0; i < b.N; i++ {
		t, err := e.Run(bench.Small)
		if err != nil {
			b.Fatal(err)
		}
		last = t
	}
	if last == nil || len(last.Rows) == 0 {
		b.Fatal("empty experiment table")
	}
	row := last.Rows[len(last.Rows)-1]
	for name, col := range metricCols {
		if col < len(row) {
			if v, err := strconv.ParseFloat(row[col], 64); err == nil {
				b.ReportMetric(v, name)
			}
		}
	}
}

func BenchmarkTable2(b *testing.B) {
	runExperiment(b, "table2", map[string]int{"ERA-ms": 5})
}

func BenchmarkFig7a(b *testing.B) {
	runExperiment(b, "fig7a", map[string]int{"str-ms": 1, "strmem-ms": 2})
}

func BenchmarkFig7b(b *testing.B) {
	runExperiment(b, "fig7b", map[string]int{"str-ms": 1, "strmem-ms": 2})
}

func BenchmarkFig8a(b *testing.B) {
	runExperiment(b, "fig8a", map[string]int{"R16-ms": 1, "R32-ms": 2})
}

func BenchmarkFig8b(b *testing.B) {
	runExperiment(b, "fig8b", map[string]int{"R32-ms": 1, "R256-ms": 4})
}

func BenchmarkFig9a(b *testing.B) {
	runExperiment(b, "fig9a", map[string]int{"nogroup-ms": 1, "group-ms": 2})
}

func BenchmarkFig9b(b *testing.B) {
	runExperiment(b, "fig9b", map[string]int{"elastic-ms": 1, "static16-ms": 2})
}

func BenchmarkFig10a(b *testing.B) {
	runExperiment(b, "fig10a", map[string]int{"WF-ms": 1, "ERA-ms": 4})
}

func BenchmarkFig10b(b *testing.B) {
	runExperiment(b, "fig10b", map[string]int{"WF-ms": 1, "ERA-ms": 3})
}

func BenchmarkFig11a(b *testing.B) {
	runExperiment(b, "fig11a", map[string]int{"DNA-ms": 1, "protein-ms": 2})
}

func BenchmarkFig11b(b *testing.B) {
	runExperiment(b, "fig11b", map[string]int{"DNA-ms": 1, "protein-ms": 2})
}

func BenchmarkFig12a(b *testing.B) {
	runExperiment(b, "fig12a", map[string]int{"WF-ms": 1, "ERA-ms": 2})
}

func BenchmarkFig12b(b *testing.B) {
	runExperiment(b, "fig12b", map[string]int{"noseek-ms": 2, "withseek-ms": 3})
}

func BenchmarkTable3(b *testing.B) {
	runExperiment(b, "table3", map[string]int{"WF-ms": 1, "ERA-ms": 2})
}

func BenchmarkFig13(b *testing.B) {
	runExperiment(b, "fig13", map[string]int{"WF-ms": 2, "ERA-ms": 3})
}

// BenchmarkBuildSerial measures the real wall-clock cost of the public API
// build on a DNA megabase — the library-user view rather than the paper
// reproduction view.
func BenchmarkBuildSerial(b *testing.B) {
	data := mustDNA(1 << 20)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := era.Build(data, &era.Config{MemoryBudget: 1 << 20}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQuery measures pattern search on a prebuilt megabase index.
func BenchmarkQuery(b *testing.B) {
	data := mustDNA(1 << 20)
	idx, err := era.Build(data, &era.Config{MemoryBudget: 1 << 20})
	if err != nil {
		b.Fatal(err)
	}
	pat := data[1<<19 : 1<<19+32]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !idx.Contains(pat) {
			b.Fatal("pattern lost")
		}
	}
}

func mustDNA(n int) []byte {
	out := make([]byte, n)
	state := uint64(0x9E3779B97F4A7C15)
	for i := range out {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		out[i] = "ACGT"[state&3]
	}
	return out
}

// BenchmarkLiveMemtableScan measures what a query pays for the unindexed
// memtable: count and occurrences over a live index holding nothing but
// unsealed documents — 256 single-document appends, the most junctions the
// default MemtableMaxDocs allows — at three memtable sizes and two alphabets.
// Patterns are 4- to 16-symbol substrings of the data; the short DNA ones
// match hundreds of times per 32 KiB, which is the scan's worst case.
// LiveConfig.MemtableMaxBytes defaults to the largest size here whose count
// stays under one served point query (~50 µs).
func BenchmarkLiveMemtableScan(b *testing.B) {
	for _, kind := range []workload.Kind{workload.DNA, workload.Protein} {
		for _, size := range []int{32 << 10, 256 << 10, 4 << 20} {
			data := workload.MustGenerate(kind, size, 16)[:size] // minus the terminator
			docs, err := workload.SliceDocs(data, 256)
			if err != nil {
				b.Fatal(err)
			}
			lx, err := era.NewLive("scan", &era.LiveConfig{MemtableMaxDocs: 1 << 30, MemtableMaxBytes: 1 << 40})
			if err != nil {
				b.Fatal(err)
			}
			for _, d := range docs {
				if _, err := lx.Append([][]byte{d}); err != nil {
					b.Fatal(err)
				}
			}
			pats := make([][]byte, 64)
			for i := range pats {
				off, m := (i*7919)%(len(data)-16), 4+i%13
				pats[i] = data[off : off+m]
			}
			name := fmt.Sprintf("%s/%dKiB", kind, size>>10)
			b.Run(name+"/count", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if lx.Count(pats[i%len(pats)]) == 0 {
						b.Fatal("pattern lost")
					}
				}
			})
			b.Run(name+"/occurrences", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if occ, err := lx.Occurrences(pats[i%len(pats)]); err != nil || len(occ) == 0 {
						b.Fatal("pattern lost")
					}
				}
			})
			lx.Close()
		}
	}
}
