package core

import (
	"context"
	"fmt"
	"sort"

	"era/internal/alphabet"
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

// VerticalPartition implements Algorithm VerticalPartitioning (§4.1): it
// refines variable-length S-prefixes until every frequency is at most fm,
// then groups them into virtual trees by the paper's first-fit heuristic on
// the frequency-descending list. With grouping disabled each prefix becomes
// its own group (the Fig. 9(a) ablation).
//
// Each refinement round performs one sequential scan of S through sc.
// Because every prefix in round k has length k, one table probe per window
// position counts the whole working set in a single pass: the window is kept
// as a packed integer code updated in O(1) per position and counted in a
// dense direct-indexed table (falling back to a hash map only when the
// window is too wide to index densely).
func VerticalPartition(f *seq.File, sc *seq.Scanner, clock *sim.Clock, model sim.CostModel, fm int64, grouping bool) ([]Group, VerticalStats, error) {
	return verticalPartition(nil, f, sc, clock, model, fm, grouping)
}

// verticalPartition is VerticalPartition, checking stop before every pass.
func verticalPartition(stop context.Context, f *seq.File, sc *seq.Scanner, clock *sim.Clock, model sim.CostModel, fm int64, grouping bool) ([]Group, VerticalStats, error) {
	if fm < 1 {
		return nil, VerticalStats{}, fmt.Errorf("core: FM %d < 1", fm)
	}
	n := f.Len()
	syms := f.Alphabet().Symbols()
	vc := newVertCounter(f.Alphabet())

	// Working set for the current round, all prefixes of equal length.
	working := make([][]byte, 0, len(syms))
	for _, s := range syms {
		working = append(working, []byte{s})
	}
	// The terminator-only suffix forms its own trivial sub-tree T$ (the
	// paper's example splits the tree into TA, TC, TG, TTG and T$).
	final := []Prefix{{Label: []byte{alphabet.Terminator}, Freq: 1}}

	var stats VerticalStats
	var freqs []int64
	var labels byteArena // backs every prefix label; never reset
	k := 1
	for len(working) > 0 {
		if err := stopped(stop); err != nil {
			return nil, stats, err
		}
		stats.Iterations++
		if cap(freqs) < len(working) {
			freqs = make([]int64, len(working))
		}
		freqs = freqs[:len(working)]

		// One sequential scan counting length-k windows. Windows containing
		// the terminator are excluded: suffixes shorter than k are covered
		// by the explicit p+"$" handling below. The scan also captures the
		// final k symbols before the terminator so the p$ check below needs
		// no extra I/O.
		tail, err := scanCount(vc, sc, clock, model, n, k, working, freqs)
		if err != nil {
			return nil, stats, err
		}

		var next [][]byte
		for wi, p := range working {
			fp := freqs[wi]
			switch {
			case fp == 0:
				// Prefix does not occur; drop (paper: fTGT = 0).
			case fp <= fm:
				lbl := labels.grab(k)
				copy(lbl, p)
				final = append(final, Prefix{Label: lbl, Freq: fp})
			default:
				// Extend by every symbol. The occurrence of p immediately
				// before the terminator (suffix p$) is not covered by any
				// single-symbol extension, so it is emitted directly; its
				// frequency is necessarily 1 ≤ fm.
				for _, s := range syms {
					ext := labels.grab(k + 1)
					copy(ext, p)
					ext[k] = s
					next = append(next, ext)
				}
				if string(tail) == string(p) {
					lbl := labels.grab(k + 1)
					copy(lbl, p)
					lbl[k] = alphabet.Terminator
					final = append(final, Prefix{Label: lbl, Freq: 1})
				}
			}
		}
		working = next
		k++
		if len(working) > 0 && k >= n {
			return nil, stats, fmt.Errorf("core: prefix refinement reached string length; FM %d too small for string of length %d", fm, n)
		}
	}

	stats.Prefixes = len(final)
	for _, p := range final {
		if p.Freq > stats.MaxFreq {
			stats.MaxFreq = p.Freq
		}
	}

	groups := groupPrefixes(final, fm, grouping)
	stats.Groups = len(groups)
	return groups, stats, nil
}

// scanCount streams S once, fills freqs[i] with the number of length-k
// windows equal to working[i], and returns the k symbols immediately before
// the terminator (nil when the string is shorter than k+1). CPU is charged
// per window probe — identically on both paths, so virtual time does not
// depend on which one runs.
func scanCount(vc *vertCounter, sc *seq.Scanner, clock *sim.Clock, model sim.CostModel, n, k int, working [][]byte, freqs []int64) ([]byte, error) {
	clear(freqs)
	if counts := vc.table(k, n); counts != nil {
		return scanCountDense(vc, counts, sc, clock, model, n, k, working, freqs)
	}
	return scanCountMap(sc, clock, model, n, k, working, freqs)
}

// scanCountDense is the hash-free scan: the length-k window is a packed
// integer of rank codes, rolled forward by one shift-or per position and
// counted with one array increment. Every window of S is counted (windows
// matching no working prefix land in entries nobody reads; code injectivity
// rules out collisions), and the working set's frequencies are read off at
// the end. No counted window can contain the terminator — starts are
// bounded by n-k — so the rank code space never sees it.
func scanCountDense(vc *vertCounter, counts []int64, sc *seq.Scanner, clock *sim.Clock, model sim.CostModel, n, k int, working [][]byte, freqs []int64) ([]byte, error) {
	sc.Reset()
	const chunk = 64 * 1024
	buf := vc.scanBuf(chunk + k - 1)
	var tail []byte
	// Windows start at 0..n-1-k; windows touching the terminator at n-1
	// are excluded.
	limit := n - k // exclusive bound on window start
	if limit <= 0 {
		return nil, nil
	}
	bits, codes := vc.bits, &vc.rcodes
	mask := len(counts) - 1
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
		code := 0
		for t := 0; t < k-1 && t < got; t++ {
			code = code<<bits | int(codes[buf[t]])
		}
		for i := base; i <= end && i < limit; i++ {
			code = (code<<bits | int(codes[buf[i-base+k-1]])) & mask
			counts[code]++
		}
		// Capture the tail S[n-1-k : n-1] once the fetch covers it.
		if tail == nil && base+got >= n-1 && n-1-k >= base {
			tail = append([]byte(nil), buf[n-1-k-base:n-1-base]...)
		}
	}
	clock.Advance(model.CPUTime(int64(limit)))
	for wi, p := range working {
		freqs[wi] = counts[packRanks(vc, p)]
	}
	return tail, nil
}

// scanCountMap is the original map-probe scan. It is the fallback for
// windows too wide to index densely and the reference implementation the
// equivalence tests check scanCountDense against.
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
