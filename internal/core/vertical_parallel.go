package core

import (
	"fmt"
	"sync"
	"time"

	"era/internal/alphabet"
	"era/internal/seq"
	"era/internal/sim"
)

// This file is vertical partitioning (§4.1), the one refinement loop every
// build runs, with each counting scan split across the workers' contexts.
//
// Every refinement round counts fixed-length windows, and counting is
// embarrassingly parallel: the string is cut into one span of window starts
// per worker, each worker scans its span (reading k-1 symbols past its end —
// the S-prefix-1 overlap) with its own rolling-code vertCounter into its own
// dense table, and the master merges the per-worker tables. The refinement
// logic between scans (extend/emit/drop, the p$ handling) stays on the
// master; it touches only the working set, never S. The groups are identical
// for every worker count, which TestChunkedVPMatchesSerial pins against the
// one-worker run.
//
// A serial build is that one-worker run: its one span is the whole of S,
// scanned on the master's goroutine through the context's group scanner, so
// every VP pass counts among the build's Scans. The exported
// VerticalPartition is the same run on a caller's scanner and clock.
//
// Modeled time uses the max-chunk bound: each round is a barrier (the next
// working set needs the merged counts), so a round costs the combine of the
// workers' measured CPU and I/O demands — CombineSharedDisk for cores
// sharing one disk (for one worker, its CPU plus its I/O), CombineSharedNothing
// for cluster nodes scanning their local copies — and VP time is the sum over
// rounds.

// verticalPartitionChunked implements Algorithm VerticalPartitioning (§4.1):
// it refines variable-length S-prefixes until every frequency is at most fm,
// then groups them into virtual trees by the paper's first-fit heuristic on
// the frequency-descending list. With grouping disabled each prefix becomes
// its own group (the Fig. 9(a) ablation). Each round is one counting pass
// over S, split across ctxs; it checks ctxs[0].stop before every pass.
// combine folds one round's per-worker demands into the round's completion
// time; mergeCost, if non-nil, prices the per-round exchange of count tables
// (used by the shared-nothing driver). It returns the groups, the VP stats
// and the modeled VP time.
func verticalPartitionChunked(ctxs []*buildContext, n int, model sim.CostModel, fm int64, grouping bool,
	combine func(cpu, io []time.Duration) time.Duration,
	mergeCost func(working int) time.Duration) ([]Group, VerticalStats, time.Duration, error) {

	if fm < 1 {
		return nil, VerticalStats{}, 0, fmt.Errorf("core: FM %d < 1", fm)
	}
	syms := ctxs[0].f.Alphabet().Symbols()

	// Working set for the current round, all prefixes of equal length.
	working := make([][]byte, 0, len(syms))
	for _, s := range syms {
		working = append(working, []byte{s})
	}
	// The terminator-only suffix forms its own trivial sub-tree T$ (the
	// paper's example splits the tree into TA, TC, TG, TTG and T$).
	final := []Prefix{{Label: []byte{alphabet.Terminator}, Freq: 1}}

	var stats VerticalStats
	var vpTime time.Duration
	var freqs []int64
	var labels byteArena // backs every prefix label; never reset
	round := newVPRound(len(ctxs))
	k := 1
	for len(working) > 0 {
		if err := stopped(ctxs[0].stop); err != nil {
			return nil, stats, vpTime, err
		}
		stats.Iterations++
		if cap(freqs) < len(working) {
			freqs = make([]int64, len(working))
		}
		freqs = freqs[:len(working)]

		// One pass counting length-k windows. Windows containing the
		// terminator are excluded: suffixes shorter than k are covered by the
		// explicit p$ handling below. The pass also captures the final k
		// symbols before the terminator so the p$ check needs no extra I/O.
		tail, err := round.count(ctxs, model, n, k, working, freqs)
		if err != nil {
			return nil, stats, vpTime, err
		}
		vpTime += combine(round.cpu, round.io)
		if mergeCost != nil {
			vpTime += mergeCost(len(working))
		}

		// Every prefix over FM extends by every symbol: size next once.
		extend := 0
		for _, fp := range freqs {
			if fp > fm {
				extend++
			}
		}
		next := make([][]byte, 0, extend*len(syms))
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
			return nil, stats, vpTime, fmt.Errorf("core: prefix refinement reached string length; FM %d too small for string of length %d", fm, n)
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
	return groups, stats, vpTime, nil
}

// vpRound is what every round of one partitioning reuses: each worker's CPU
// and I/O demand of the round, and the wait for and the errors of the spans
// scanned off the master's goroutine.
type vpRound struct {
	cpu, io []time.Duration
	errs    []error
	wg      sync.WaitGroup
}

func newVPRound(workers int) *vpRound {
	demand := make([]time.Duration, 2*workers)
	return &vpRound{cpu: demand[:workers], io: demand[workers:], errs: make([]error, workers-1)}
}

// count performs one round's counting scan across the workers, merges the
// per-worker dense tables into freqs and leaves each worker's demand of the
// round in r.cpu and r.io. It returns the k symbols before the terminator,
// which the last span covers. Windows too wide for a dense table fall back
// to the map scan on worker 0 (the regime is rare: refinement depth times
// code bits would have to exceed maxVertTableBits).
func (r *vpRound) count(ctxs []*buildContext, model sim.CostModel, n, k int, working [][]byte, freqs []int64) ([]byte, error) {
	clear(freqs)
	clear(r.cpu)
	clear(r.io)
	limit := n - k // exclusive bound on window start
	if limit <= 0 {
		for _, ctx := range ctxs {
			ctx.vpsc.Reset() // an empty pass, counted as any other
		}
		return nil, nil
	}
	if denseSizeFor(ctxs[0].vc.bits, k, n) < 0 {
		ctx := ctxs[0]
		cpu0, io0 := ctx.cpu.Now(), ctx.io.Now()
		tail, err := scanCountMap(ctx.vpsc, ctx.cpu, model, n, k, working, freqs)
		r.cpu[0], r.io[0] = ctx.cpu.Now()-cpu0, ctx.io.Now()-io0
		return tail, err
	}

	// Worker w counts the window starts [limit·w/W, limit·(w+1)/W). The last
	// span runs on this goroutine, so the one-worker run starts none.
	W := len(ctxs)
	for w := 0; w < W-1; w++ {
		r.wg.Add(1)
		go func(w int) {
			defer r.wg.Done()
			_, r.errs[w] = countSpan(ctxs[w], model, n, k, limit*w/W, limit*(w+1)/W, &r.cpu[w], &r.io[w])
		}(w)
	}
	tail, err := countSpan(ctxs[W-1], model, n, k, limit*(W-1)/W, limit, &r.cpu[W-1], &r.io[W-1])
	r.wg.Wait()
	for _, e := range r.errs {
		if e != nil {
			return nil, e
		}
	}
	if err != nil {
		return nil, err
	}

	// Merge: the working-set frequencies are the element-wise sums of the
	// per-worker tables (every one cleared this round, an idle worker's
	// too), read off at the working prefixes' codes.
	for wi, p := range working {
		code := packRanks(ctxs[0].vc, p)
		var f int64
		for _, ctx := range ctxs {
			f += ctx.vc.counts[code]
		}
		freqs[wi] = f
	}
	return tail, nil
}

// countSpan counts the length-k windows starting in [lo, hi) into ctx's
// cleared dense table, charging their probes to ctx's CPU clock, and stores
// the span's CPU and I/O demand in cpu and io. A span with no window start
// (more workers than starts) only clears the table.
func countSpan(ctx *buildContext, model sim.CostModel, n, k, lo, hi int, cpu, io *time.Duration) ([]byte, error) {
	t := ctx.vc.table(k, n)
	if lo >= hi {
		return nil, nil
	}
	cpu0, io0 := ctx.cpu.Now(), ctx.io.Now()
	tail, err := scanCountDenseChunk(ctx.vc, t, ctx.vpsc, n, k, lo, hi)
	if err != nil {
		return nil, err
	}
	ctx.cpu.Advance(model.CPUTime(int64(hi - lo)))
	*cpu, *io = ctx.cpu.Now()-cpu0, ctx.io.Now()-io0
	return tail, nil
}

// scanCountDenseChunk is the hash-free scan: it counts the length-k windows
// of S starting in [lo, hi) into counts, reading S through sc — one
// positioning jump, then strictly sequential. The window is a packed integer
// of rank codes, rolled forward by one shift-or per position and counted
// with one array increment. Every window of the span is counted (windows
// matching no working prefix land in entries nobody reads; code injectivity
// rules out collisions). No counted window can contain the terminator —
// starts are bounded by n-k — so the rank code space never sees it. It
// returns the k symbols before the terminator when the span covers them
// (window start n-1-k lies in [lo, hi)), nil otherwise.
func scanCountDenseChunk(vc *vertCounter, counts []int64, sc *seq.Scanner, n, k, lo, hi int) ([]byte, error) {
	sc.Reset()
	const chunk = 64 * 1024
	buf := vc.scanBuf(chunk + k - 1)
	var tail []byte
	bits, codes := vc.bits, &vc.rcodes
	mask := len(counts) - 1
	// The last window of the span starts at hi-1 and ends at hi+k-2, so the
	// span reads S[lo : hi+k-1], the S-prefix-1 overlap into the next
	// worker's span — except the last span, which reads through the
	// terminator as a whole pass of S does.
	readTo := hi + k - 1
	if hi == n-k {
		readTo = n
	}
	got := 0
	for base := lo; base < hi; base += chunk {
		want := min(chunk+k-1, readTo-base)
		// A step opens with the k-1 symbols the previous one closed with.
		// They are carried over, not fetched again: the scanner's buffer is
		// one block-aligned window, and when that overlap straddles a block
		// boundary the buffer has already moved past its first symbols.
		keep := 0
		if base > lo {
			keep = copy(buf, buf[chunk:got])
		}
		got = keep
		if keep < want {
			m, err := sc.Fetch(buf[keep:want], base+keep)
			if err != nil {
				return nil, err
			}
			got += m
		}
		end := base + got - k // last window start fully inside this step
		code := 0
		for t := 0; t < k-1 && t < got; t++ {
			code = code<<bits | int(codes[buf[t]])
		}
		for i := base; i <= end && i < hi; i++ {
			code = (code<<bits | int(codes[buf[i-base+k-1]])) & mask
			counts[code]++
		}
		// Capture the tail S[n-1-k : n-1] once the fetch covers it.
		if tail == nil && base+got >= n-1 && n-1-k >= base {
			tail = append([]byte(nil), buf[n-1-k-base:n-1-base]...)
		}
	}
	return tail, nil
}
