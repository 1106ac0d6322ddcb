package core

import (
	"fmt"
	"sync"
	"time"

	"era/internal/alphabet"
	"era/internal/seq"
	"era/internal/sim"
)

// This file parallelizes the counting scans of vertical partitioning (§4.1).
// The serial VerticalPartition in vertical.go is the tested reference; the
// chunked variant below must produce identical groups for every worker
// count, which TestChunkedVPMatchesSerial pins.
//
// Every refinement round counts fixed-length windows, and counting is
// embarrassingly parallel: the string is cut into one span of window starts
// per worker, each worker scans its span (reading k-1 symbols past its end —
// the S-prefix-1 overlap) with its own rolling-code vertCounter into its own
// dense table, and the master merges the per-worker tables. The refinement
// logic between scans (extend/emit/drop, the p$ handling) stays on the
// master; it touches only the working set, never S.
//
// Modeled time uses the max-chunk bound: each round is a barrier (the next
// working set needs the merged counts), so a round costs the combine of the
// workers' measured CPU and I/O demands — CombineSharedDisk for cores
// sharing one disk, CombineSharedNothing for cluster nodes scanning their
// local copies — and VP time is the sum over rounds.

// verticalPartitionChunked is VerticalPartition with every counting scan
// split across the workers' contexts. combine folds one round's per-worker
// demands into the round's completion time; mergeCost, if non-nil, prices
// the per-round exchange of count tables (used by the shared-nothing
// driver). It returns the groups, the VP stats and the modeled VP time.
func verticalPartitionChunked(ctxs []*buildContext, n int, model sim.CostModel, fm int64, grouping bool,
	combine func(cpu, io []time.Duration) time.Duration,
	mergeCost func(working int) time.Duration) ([]Group, VerticalStats, time.Duration, error) {

	if fm < 1 {
		return nil, VerticalStats{}, 0, fmt.Errorf("core: FM %d < 1", fm)
	}
	syms := ctxs[0].f.Alphabet().Symbols()

	working := make([][]byte, 0, len(syms))
	for _, s := range syms {
		working = append(working, []byte{s})
	}
	final := []Prefix{{Label: []byte{alphabet.Terminator}, Freq: 1}}

	var stats VerticalStats
	var vpTime time.Duration
	var freqs []int64
	var labels byteArena // backs every prefix label; never reset
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

		tail, roundTime, err := chunkedScanCount(ctxs, model, n, k, working, freqs, combine)
		if err != nil {
			return nil, stats, vpTime, err
		}
		vpTime += roundTime
		if mergeCost != nil {
			vpTime += mergeCost(len(working))
		}

		// Refinement between scans: identical to the serial reference.
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

// chunkedScanCount performs one round's counting scan across the workers and
// merges the per-worker dense tables into freqs. It returns the k symbols
// before the terminator (captured by the worker whose chunk ends the string)
// and the round's modeled completion time. Windows too wide for a dense
// table fall back to the serial map scan on worker 0 (the regime is rare:
// refinement depth times code bits would have to exceed maxVertTableBits).
func chunkedScanCount(ctxs []*buildContext, model sim.CostModel, n, k int, working [][]byte, freqs []int64,
	combine func(cpu, io []time.Duration) time.Duration) ([]byte, time.Duration, error) {

	clear(freqs)
	limit := n - k // exclusive bound on window start
	if limit <= 0 {
		return nil, 0, nil
	}
	W := len(ctxs)
	cpu := make([]time.Duration, W)
	io := make([]time.Duration, W)

	if denseSizeFor(ctxs[0].vc.bits, k, n) < 0 {
		ctx := ctxs[0]
		cpu0, io0 := ctx.cpu.Now(), ctx.io.Now()
		tail, err := scanCountMap(ctx.vpsc, ctx.cpu, model, n, k, working, freqs)
		if err != nil {
			return nil, 0, err
		}
		cpu[0] = ctx.cpu.Now() - cpu0
		io[0] = ctx.io.Now() - io0
		return tail, combine(cpu, io), nil
	}

	counts := make([][]int64, W)
	tails := make([][]byte, W)
	errs := make([]error, W)
	var wg sync.WaitGroup
	for w := 0; w < W; w++ {
		lo, hi := limit*w/W, limit*(w+1)/W
		if lo >= hi {
			continue // more workers than window starts; nothing to scan
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			ctx := ctxs[w]
			t := ctx.vc.table(k, n)
			counts[w] = t
			cpu0, io0 := ctx.cpu.Now(), ctx.io.Now()
			tail, err := scanCountDenseChunk(ctx.vc, t, ctx.vpsc, n, k, lo, hi)
			if err != nil {
				errs[w] = err
				return
			}
			ctx.cpu.Advance(model.CPUTime(int64(hi - lo)))
			cpu[w] = ctx.cpu.Now() - cpu0
			io[w] = ctx.io.Now() - io0
			tails[w] = tail
		}(w, lo, hi)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, 0, err
		}
	}

	// Merge: the working-set frequencies are the element-wise sums of the
	// per-worker tables, read off at the working prefixes' codes.
	for wi, p := range working {
		code := packRanks(ctxs[0].vc, p)
		var f int64
		for w := range counts {
			if counts[w] != nil {
				f += counts[w][code]
			}
		}
		freqs[wi] = f
	}
	var tail []byte
	for _, t := range tails {
		if t != nil {
			tail = t
		}
	}
	return tail, combine(cpu, io), nil
}

// scanCountDenseChunk counts the length-k windows of S starting in [lo, hi)
// into counts, reading S[lo : hi+k-1] through sc — one positioning jump,
// then strictly sequential, the same rolling shift-or loop as the serial
// scanCountDense. It returns the k symbols before the terminator when the
// chunk covers them (window start n-1-k lies in [lo, hi)), nil otherwise.
func scanCountDenseChunk(vc *vertCounter, counts []int64, sc *seq.Scanner, n, k, lo, hi int) ([]byte, error) {
	sc.Reset()
	const chunk = 64 * 1024
	buf := vc.scanBuf(chunk + k - 1)
	var tail []byte
	bits, codes := vc.bits, &vc.rcodes
	mask := len(counts) - 1
	// The last window of the span starts at hi-1 and ends at hi+k-2, so the
	// chunk never reads past hi+k-1 (the S-prefix-1 overlap into the next
	// worker's span) — nor past the string end.
	got := 0
	for base := lo; base < hi; base += chunk {
		want := chunk + k - 1
		if base+want > hi+k-1 {
			want = hi + k - 1 - base
		}
		if base+want > n {
			want = n - base
		}
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
		if tail == nil && base+got >= n-1 && n-1-k >= base {
			tail = append([]byte(nil), buf[n-1-k-base:n-1-base]...)
		}
	}
	return tail, nil
}
