package core

import (
	"bytes"
	"strings"
	"testing"

	"era/internal/alphabet"
	"era/internal/diskio"
	"era/internal/seq"
	"era/internal/sim"
)

// FuzzVerticalPartition checks the §4.1 vertical partitioning invariants on
// arbitrary strings and budgets, cross-checking every reported frequency
// against naive substring counting:
//
//  1. every final prefix frequency is ≤ FM, and equals the number of
//     suffixes of S that start with the prefix;
//  2. the prefixes are prefix-free and together cover every suffix exactly
//     once (frequencies sum to |S|);
//  3. grouping never builds a group above FM unless it is a single
//     over-budget-resistant prefix (impossible by 1), and loses no prefix;
//  4. the chunked VP at 2 and 3 workers yields the one-worker run's groups
//     and stats, and so meets 1–3 too.
func FuzzVerticalPartition(f *testing.F) {
	f.Add([]byte("TGGTGGTGGTGCGGTGATGGTGC"), uint16(4))
	f.Add([]byte("GATTACA"), uint16(1))
	f.Add([]byte("AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA"), uint16(3))
	f.Add([]byte{0, 1, 2, 3, 0, 1, 2, 3}, uint16(2))

	f.Fuzz(func(t *testing.T, core []byte, fmRaw uint16) {
		if len(core) == 0 || len(core) > 2048 {
			t.Skip()
		}
		const syms = "ACGT"
		data := make([]byte, len(core)+1)
		for i, b := range core {
			data[i] = syms[int(b)%len(syms)]
		}
		data[len(core)] = alphabet.Terminator
		fm := int64(1 + fmRaw%64)

		disk := diskio.NewDisk(sim.DefaultModel())
		file, err := seq.Publish(disk, "fuzz.seq", alphabet.DNA, data)
		if err != nil {
			t.Fatal(err)
		}
		clock := new(sim.Clock)
		sc, err := file.NewScanner(clock, seq.ScannerConfig{BufSize: 4096})
		if err != nil {
			t.Fatal(err)
		}
		groups, stats, err := VerticalPartition(file, sc, clock, sim.DefaultModel(), fm, true)
		if err != nil {
			// FM can legitimately be too small for highly repetitive
			// strings (a prefix that never drops below FM before reaching
			// the string length).
			if strings.Contains(err.Error(), "too small") {
				t.Skip()
			}
			t.Fatal(err)
		}

		checkPartition(t, data, fm, groups, stats)

		// The chunked runs: every worker count partitions exactly like the
		// one-worker run, and so meets the same oracle.
		layout := MemoryLayout{InputBuf: 4096}
		for _, workers := range []int{2, 3} {
			ctxs := chunkedContexts(t, alphabet.DNA, data, workers, layout)
			got, gotStats, _, err := verticalPartitionChunked(ctxs, len(data), sim.DefaultModel(), fm, true, sim.CombineSharedDisk, nil)
			if err != nil {
				t.Fatalf("workers=%d: %v", workers, err)
			}
			if gotStats != stats {
				t.Errorf("workers=%d: stats %+v, one worker %+v", workers, gotStats, stats)
			}
			requireSameGroups(t, workers, got, groups)
			checkPartition(t, data, fm, got, gotStats)
		}
	})
}

// checkPartition holds one partitioning of data at fm to the invariants
// FuzzVerticalPartition lists, counting every prefix naively.
func checkPartition(t *testing.T, data []byte, fm int64, groups []Group, stats VerticalStats) {
	t.Helper()
	// Collect all prefixes across groups.
	var labels [][]byte
	var total int64
	for _, g := range groups {
		var gf int64
		for _, p := range g.Prefixes {
			labels = append(labels, p.Label)
			gf += p.Freq
			if p.Freq > fm {
				t.Errorf("prefix %q frequency %d exceeds FM %d", p.Label, p.Freq, fm)
			}
			if want := countSuffixesWith(data, p.Label); p.Freq != want {
				t.Errorf("prefix %q frequency %d, naive count %d (S=%q)", p.Label, p.Freq, want, data)
			}
		}
		if gf != g.Freq {
			t.Errorf("group frequency %d != sum of members %d", g.Freq, gf)
		}
		if g.Freq > fm {
			t.Errorf("group frequency %d exceeds FM %d", g.Freq, fm)
		}
		total += gf
	}
	if total != int64(len(data)) {
		t.Errorf("frequencies sum to %d, want |S| = %d (every suffix covered exactly once)", total, len(data))
	}
	if stats.Prefixes != len(labels) {
		t.Errorf("stats.Prefixes = %d, but %d labels reported", stats.Prefixes, len(labels))
	}

	// Prefix-freeness: no label may be a proper prefix of another (that
	// would double-cover the longer label's suffixes).
	for i, a := range labels {
		for j, b := range labels {
			if i != j && len(a) <= len(b) && bytes.Equal(a, b[:len(a)]) {
				t.Errorf("labels %q and %q overlap", a, b)
			}
		}
	}
}

// countSuffixesWith counts the suffixes of terminated string s (its last
// byte is the terminator) that start with label.
func countSuffixesWith(s, label []byte) int64 {
	var n int64
	for i := range s {
		if bytes.HasPrefix(s[i:], label) {
			n++
		}
	}
	return n
}
