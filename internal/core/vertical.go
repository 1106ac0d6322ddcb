package core

import (
	"sort"

	"era/internal/seq"
	"era/internal/sim"
)

// Prefix is a variable-length S-prefix with its frequency in S (§2) and, in
// a flat build, the window of the suffix order its sub-tree occupies: the
// suffixes under the label are ranks [Rank, Rank+Freq) of the suffix array
// of S (newSuffixOrder).
type Prefix struct {
	Label []byte
	Freq  int64
	Rank  int64
}

// Group is a virtual tree: a set of S-prefixes whose sub-trees are built
// together so every scan of S serves all of them (§4.1).
type Group struct {
	Prefixes []Prefix
	Freq     int64 // Σ prefix frequencies; ≤ FM
}

// VerticalStats reports the work done by vertical partitioning.
type VerticalStats struct {
	Iterations int   // working-set refinement rounds (scans of S)
	Prefixes   int   // final prefix count
	Groups     int   // virtual trees after grouping
	MaxFreq    int64 // largest single-prefix frequency
}

// VerticalPartition runs vertical partitioning (§4.1) on one worker:
// verticalPartitionChunked over a context that scans S through sc and
// charges the windows' CPU to clock, exactly as a serial build's VP does.
func VerticalPartition(f *seq.File, sc *seq.Scanner, clock *sim.Clock, model sim.CostModel, fm int64, grouping bool) ([]Group, VerticalStats, error) {
	// sc charges its reads to its own clock, so the context's I/O clock
	// stays idle; the modeled time it would feed is not returned.
	ctx := &buildContext{f: f, sc: sc, vpsc: sc, cpu: clock, io: new(sim.Clock), vc: newVertCounter(f.Alphabet())}
	groups, stats, _, err := verticalPartitionChunked([]*buildContext{ctx}, f.Len(), model, fm, grouping, sim.CombineSharedDisk, nil)
	return groups, stats, err
}

// scanCountMap is the map-probe scan of the whole of S: the fallback for
// windows too wide to index densely and the reference the equivalence tests
// check the dense span scan, scanCountDenseChunk, against. It charges CPU
// per window probe exactly as the dense scan does, so virtual time does not
// depend on which one runs.
func scanCountMap(sc *seq.Scanner, clock *sim.Clock, model sim.CostModel, n, k int, working [][]byte, freqs []int64) ([]byte, error) {
	counts := make(map[string]int, len(working))
	for wi, p := range working {
		counts[string(p)] = wi
		freqs[wi] = 0
	}
	sc.Reset()
	const chunk = 64 * 1024
	buf := make([]byte, chunk+k-1)
	var tail []byte
	limit := n - k
	if limit <= 0 {
		return nil, nil
	}
	for base := 0; base < limit; base += chunk {
		want := chunk + k - 1
		if base+want > n {
			want = n - base
		}
		got, err := sc.Fetch(buf[:want], base)
		if err != nil {
			return nil, err
		}
		end := base + got - k // last window start fully inside this fetch
		for i := base; i <= end && i < limit; i++ {
			w := buf[i-base : i-base+k]
			if wi, ok := counts[string(w)]; ok {
				freqs[wi]++
			}
		}
		if tail == nil && base+got >= n-1 && n-1-k >= base {
			tail = append([]byte(nil), buf[n-1-k-base:n-1-base]...)
		}
	}
	clock.Advance(model.CPUTime(int64(limit)))
	return tail, nil
}

// groupPrefixes applies the §4.1 grouping heuristic: sort by descending
// frequency; repeatedly start a group with the head and greedily add any
// remaining prefix that keeps the group total within fm.
func groupPrefixes(prefixes []Prefix, fm int64, grouping bool) []Group {
	sorted := append([]Prefix(nil), prefixes...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Freq > sorted[j].Freq })

	if !grouping {
		groups := make([]Group, len(sorted))
		for i, p := range sorted {
			groups[i] = Group{Prefixes: []Prefix{p}, Freq: p.Freq}
		}
		return groups
	}

	var groups []Group
	remaining := sorted
	spare := make([]Prefix, 0, len(sorted)) // double buffer for the leftovers
	for len(remaining) > 0 {
		// First pass sizes the group exactly (same greedy as the fill).
		total := remaining[0].Freq
		cnt := 1
		for _, p := range remaining[1:] {
			if total+p.Freq <= fm {
				total += p.Freq
				cnt++
			}
		}
		g := Group{Prefixes: make([]Prefix, 0, cnt)}
		g.Prefixes = append(g.Prefixes, remaining[0])
		g.Freq = remaining[0].Freq
		keep := spare[:0]
		for _, p := range remaining[1:] {
			if g.Freq+p.Freq <= fm {
				g.Prefixes = append(g.Prefixes, p)
				g.Freq += p.Freq
			} else {
				keep = append(keep, p)
			}
		}
		groups = append(groups, g)
		spare = remaining[:0]
		remaining = keep
	}
	return groups
}
