package era_test

// Wall-clock benchmarks of the public API. The paper's tables and figures
// are regenerated in modeled time by cmd/era-bench (gated in CI, see README
// "Testing conventions"), not here.

import (
	"fmt"
	"testing"

	"era"
	"era/internal/workload"
)

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

// BenchmarkBuildInMemory is the same megabase built by the other builder:
// at the default budget it fits as a suffix array.
func BenchmarkBuildInMemory(b *testing.B) {
	data := mustDNA(1 << 20)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx, err := era.Build(data, nil)
		if err != nil {
			b.Fatal(err)
		}
		if !idx.Stats().InMemory {
			b.Fatal("the default budget sent 1 Mi symbols to ERA")
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
