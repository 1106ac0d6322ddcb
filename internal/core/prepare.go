package core

import (
	"bytes"
	"fmt"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

	"era/internal/seq"
	"era/internal/sim"
)

// Prepared is the output of SubTreePrepare for one S-prefix, {Prefix, L,
// LCP}: L is the leaf positions in lexicographic suffix order — the
// prefix's window of the suffix array — and LCP[i] is the offset at which
// the branches to leaves L[i-1] and L[i] part, array B of §4.2.2 (its
// triplets' symbols C1 < C2 are S[L[i-1]+LCP[i]] and S[L[i]+LCP[i]]), from
// which BuildSubTree materializes the sub-tree in one batch pass (a build
// only counts its nodes, countSubTreeNodes). LCP[0] is not prepare's: in a
// flat build it is the join with the window before.
type Prepared struct {
	Prefix Prefix
	L      []int32
	LCP    []int32
}

// PrepareStats counts the work of the preparation step for one group.
type PrepareStats struct {
	Rounds      int   // while-loop iterations = scans of S (beyond the collect scan)
	SymbolsRead int64 // symbols fetched into R
	MinRange    int
	MaxRange    int
}

// subState is the working state of Algorithm SubTreePrepare for one
// sub-tree. L and LCP are the sub-tree's windows of the output; the
// auxiliary arrays mirror the paper:
//
//	L    current order of leaf positions (progressively lex-sorted)
//	LCP  array B: the branching offset of each index and its predecessor,
//	     0 while unknown (every offset is at least the label length, ≥ 1),
//	     negated from the round the pair diverges until the define pass
//	P    appearance rank of the leaf at each current index
//	I    appearance rank → current index (-1 once done); lets one
//	     sequential pass of S fill R in string order
//	area one flag byte per index: areaOpen where an active area starts,
//	     areaDone once the index is retired, 0 inside an area — so an area
//	     runs from an index that is not done to the next flagged one
//	R    slot, in the round's chunk buffer, of the next symbols fetched
//	     this round per index (stale once the index is done)
type subState struct {
	prefix Prefix
	L      []int32
	LCP    []int32
	P      []int32
	I      []int32
	area   []byte
	R      []int32
	active int // indices not yet done
}

// The flags of subState.area.
const (
	areaOpen byte = 1 // the index starts an active area
	areaDone byte = 2 // the index is retired
)

// init (re)points a subState at its windows and the auxiliary arrays for a
// fresh prepare. The backing slices come from pooled slabs holding a
// previous group's values: every element the algorithm reads is (re)written
// here. The collect scan left occurrence i's round-one chunk in slot
// slot0+i.
func (st *subState) init(prefix Prefix, occ, lcp []int32, slot0 int32, p, i32, r []int32, area []byte) {
	m := len(occ)
	st.prefix = prefix
	st.L, st.LCP = occ, lcp
	st.P, st.I, st.area, st.R = p, i32, area, r
	st.active = m
	for i := 0; i < m; i++ {
		st.P[i] = int32(i)
		st.I[i] = int32(i)
		st.R[i] = slot0 + int32(i)
	}
	clear(area)
	clear(lcp[1:])
	if m == 1 {
		// A single leaf needs no branching information.
		st.I[0] = -1
		st.area[0] = areaDone
		st.active = 0
	}
}

// nextActive returns the lowest appearance rank ≥ r whose leaf is still
// active, or -1 when none remains. Because appearance rank follows string
// order, iterating ranks through nextActive yields this sub-tree's fill run
// in increasing string position.
func (st *subState) nextActive(r int) int {
	for ; r < len(st.I); r++ {
		if st.I[r] >= 0 {
			return r
		}
	}
	return -1
}

// markDone retires index i: its branch is fully separated from both
// neighbours (Proposition 1, case 1 — the path to this leaf is unique).
func (st *subState) markDone(i int32) {
	if st.area[i] == areaDone {
		return
	}
	st.I[st.P[i]] = -1
	st.area[i] = areaDone
	st.active--
}

// GroupPrepare runs Algorithm SubTreePrepare (§4.2.2) for every S-prefix of
// a virtual tree simultaneously, so each sequential pass over S feeds all
// sub-trees in the group (§4.1, §4.2.1 optimization 3). The scan that seeds
// the leaf array L (line 1) simultaneously captures each leaf's first chunk
// of next symbols, so occurrence collection and round one share a single
// pass. The range of symbols fetched per leaf and round is elastic:
// |R| / (active leaves), growing as leaves resolve (§4.4); staticRange > 0
// pins it (the Fig. 9(b) ablation).
//
// A non-nil ctx supplies the round-loop scratch (fill schedule, merge heap,
// R sized once from rCap), so consecutive groups on one worker share it and
// the steady state allocates nothing per round; nil uses throwaway scratch
// with identical behavior.
func GroupPrepare(ctx *buildContext, f *seq.File, sc *seq.Scanner, clock *sim.Clock, model sim.CostModel,
	group Group, rCap int64, staticRange int) ([]Prepared, PrepareStats, error) {

	if ctx == nil {
		ctx = new(buildContext)
	}
	n := f.Len()
	ctx.chunks.planFor(rCap, activeUpfront(group), n)
	stats := PrepareStats{MinRange: int(^uint(0) >> 1)}

	// Round-1 range from the known group frequency (the occurrence count
	// is exactly Σ freq, so the elastic formula needs no second pass).
	rng1 := roundRange(rCap, staticRange, activeUpfront(group), n)
	occs, captured, err := CollectWithFill(ctx, f, sc, clock, model, group, rng1)
	if err != nil {
		return nil, stats, err
	}
	stats.SymbolsRead += captured
	stats.Rounds++
	stats.MinRange, stats.MaxRange = rng1, rng1

	// subState headers and their auxiliary arrays come from the context's
	// pooled slabs (fresh per-call allocations when ctx was nil): one int32
	// slab backs every P/I/R and one byte slab every area. L and LCP are the
	// windows the collect scan carved.
	nSubs := len(group.Prefixes)
	if cap(ctx.subStates) < nSubs {
		ctx.subStates = make([]subState, nSubs)
	}
	states := ctx.subStates[:nSubs]
	subs := ctx.subPtrs
	if cap(subs) < nSubs {
		subs = make([]*subState, nSubs)
	}
	subs = subs[:nSubs]
	ctx.subPtrs = subs
	var M int
	for i := range occs {
		M += len(occs[i])
	}
	if cap(ctx.i32Slab) < 3*M {
		ctx.i32Slab = make([]int32, 3*M)
	}
	if cap(ctx.areaSlab) < M {
		ctx.areaSlab = make([]byte, M)
	}
	i32, areas := ctx.i32Slab[:3*M], ctx.areaSlab[:M]
	lcps := ctx.lcpLists
	posI, pos := 0, 0
	for i, p := range group.Prefixes {
		if int64(len(occs[i])) != p.Freq {
			return nil, stats, fmt.Errorf("core: prefix %q: %d occurrences but frequency %d", p.Label, len(occs[i]), p.Freq)
		}
		m := len(occs[i])
		subs[i] = &states[i]
		subs[i].init(p, occs[i], lcps[i], int32(pos),
			i32[posI:posI+m], i32[posI+m:posI+2*m], i32[posI+2*m:posI+3*m], areas[pos:pos+m])
		posI += 3 * m
		pos += m
	}

	// start is the global offset within every suffix of the symbols already
	// consumed; it begins after the shared S-prefix. Prefix lengths differ
	// across the group, so each sub-tree tracks its own start.
	starts := ctx.startsBuf
	if cap(starts) < len(subs) {
		starts = make([]int, len(subs))
	}
	starts = starts[:len(subs)]
	ctx.startsBuf = starts
	for i, st := range subs {
		starts[i] = len(st.prefix.Label)
	}

	// Round-loop scratch, reused every round (and, through the context,
	// across groups): the fill schedule's positions, the merge heap and the
	// chunk buffer. Once sized, the loop allocates nothing.
	offs, heap := ctx.offs, ctx.heap
	defer func() { ctx.offs, ctx.heap = offs[:0], heap[:0] }()
	chunks := &ctx.chunks
	crew := ctx.startCrew()
	defer crew.stop()

	// The chunks captured by the collect scan are round one; every later
	// round fetches its own. cpuOps carries a round's fill schedule into
	// the charge of its sub-tree steps.
	rng := rng1
	var cpuOps int64
	for {
		// Per sub-tree: sort active areas, split them, and extend B.
		ops, err := crew.round(subs, starts, chunks, n)
		if err != nil {
			return nil, stats, err
		}
		clock.Advance(model.CPUTime(cpuOps + ops))
		for i := range starts {
			starts[i] += rng
		}

		if err := stopped(ctx.stop); err != nil {
			return nil, stats, err
		}
		activeTotal := 0
		for _, st := range subs {
			activeTotal += st.active
		}
		if activeTotal == 0 {
			break
		}

		// Elastic range (§4.4): range = |R| / |L'|.
		rng = roundRange(rCap, staticRange, activeTotal, n)
		stats.MinRange = min(stats.MinRange, rng)
		stats.MaxRange = max(stats.MaxRange, rng)
		stats.Rounds++

		// Gather the fill schedule in string order: the leaves of each
		// sub-tree are visited via I in appearance order (increasing
		// position), so each sub-tree contributes one already-sorted run; a
		// k-way heap merge unions the runs into one sequential pass without
		// re-sorting them. The schedule is the positions alone, exactly
		// activeTotal of them, a count that only falls from round to round:
		// fill i lands in slot i of R, which the merge writes into the
		// leaf's R entry as it goes.
		if cap(offs) < activeTotal {
			offs = make([]int32, 0, activeTotal)
		}
		offs = offs[:0]
		heap = heap[:0]
		for si, st := range subs {
			if r := st.nextActive(0); r >= 0 {
				heap = append(heap, mergeHead{pos: int(st.L[st.I[r]]) + starts[si], sub: int32(si), a: int32(r)})
			}
		}
		heap.init()
		for len(heap) > 0 {
			hd := heap[0]
			st := subs[hd.sub]
			st.R[st.I[hd.a]] = int32(len(offs))
			offs = append(offs, int32(hd.pos))
			if r := st.nextActive(int(hd.a) + 1); r >= 0 {
				heap.replaceMin(mergeHead{pos: int(st.L[st.I[r]]) + starts[hd.sub], sub: hd.sub, a: int32(r)})
			} else {
				heap = heap.popMin()
			}
		}
		cpuOps = int64(len(offs))

		read, err := fetchRound(sc, chunks, offs, rng, n)
		if err != nil {
			return nil, stats, fmt.Errorf("core: group of %q: %w", group.Prefixes[0].Label, err)
		}
		stats.SymbolsRead += read
	}

	// The output is the sub-trees' windows: of the build's suffix order,
	// where they stay, or of the pooled slab, valid until the next
	// GroupPrepare/CollectWithFill on this context — exactly the span
	// processGroup consumes them in.
	out := ctx.prepBuf
	if cap(out) < len(subs) {
		out = make([]Prepared, len(subs))
	}
	out = out[:len(subs)]
	ctx.prepBuf = out
	for i, st := range subs {
		out[i] = Prepared{Prefix: st.prefix, L: st.L, LCP: st.LCP}
	}
	if stats.MinRange > stats.MaxRange {
		stats.MinRange = 0
	}
	return out, stats, nil
}

// roundCrew runs a prepare round's per-sub-tree steps (subState.round: area
// sorts, splits, B offsets) on the owning worker's goroutine and one
// goroutine per context of its crew — the workers a short group queue left
// idle — each pulling sub-trees from a shared cursor and sorting in its own
// context's scratch. The collect scan, the fill schedule and the fetch stay
// with the owner, between rounds; during one, every goroutine reads the
// round's chunks and writes only the sub-trees it pulled. The operations are
// summed, so the charge is the one a lone worker makes.
type roundCrew struct {
	owner   *sortScratch
	helpers int
	work    chan struct{} // one token per helper per round; closed by stop
	busy    sync.WaitGroup
	quit    sync.WaitGroup

	// The round in flight, set by the owner before it hands out the tokens.
	subs   []*subState
	starts []int
	ch     *chunkBuf
	n      int
	next   atomic.Int64
	ops    atomic.Int64
	mu     sync.Mutex
	err    error
	errAt  int
}

// startCrew readies the context's round crew for one GroupPrepare, starting
// a goroutine per lent context; they wait for rounds until stop.
func (ctx *buildContext) startCrew() *roundCrew {
	c := &ctx.rounds
	c.owner, c.helpers = &ctx.sortScratch, len(ctx.crew)
	if c.helpers == 0 {
		return c
	}
	c.work = make(chan struct{}, c.helpers)
	c.quit.Add(c.helpers)
	for _, h := range ctx.crew {
		go func(scr *sortScratch) {
			defer c.quit.Done()
			for range c.work {
				c.pull(scr)
				c.busy.Done()
			}
		}(&h.sortScratch)
	}
	return c
}

// stop ends the crew's goroutines and waits for them.
func (c *roundCrew) stop() {
	if c.helpers > 0 {
		close(c.work)
		c.quit.Wait()
	}
}

// round runs one round's step on every sub-tree that has active leaves, the
// chunks of sub-tree i starting at offset starts[i], and returns the
// operations performed. An error ends the round: no goroutine pulls another
// sub-tree, and of the failures the lowest sub-tree's is returned.
func (c *roundCrew) round(subs []*subState, starts []int, ch *chunkBuf, n int) (int64, error) {
	c.subs, c.starts, c.ch, c.n = subs, starts, ch, n
	c.next.Store(0)
	c.ops.Store(0)
	c.err = nil
	c.busy.Add(c.helpers)
	for range c.helpers {
		c.work <- struct{}{}
	}
	c.pull(c.owner)
	c.busy.Wait()
	return c.ops.Load(), c.err
}

// pull runs sub-tree steps until the cursor passes the last sub-tree.
func (c *roundCrew) pull(scr *sortScratch) {
	var ops int64
	for {
		si := int(c.next.Add(1) - 1)
		if si >= len(c.subs) {
			break
		}
		st := c.subs[si]
		if st.active == 0 {
			continue
		}
		o, err := st.round(c.ch, scr, c.n, c.starts[si])
		ops += o
		if err != nil {
			c.next.Store(int64(len(c.subs)))
			c.mu.Lock()
			if c.err == nil || si < c.errAt {
				c.err, c.errAt = err, si
			}
			c.mu.Unlock()
			break
		}
	}
	c.ops.Add(ops)
}

// fetchRound runs one fill round for either horizontal builder: it sizes
// chunks for the schedule offs (ascending string positions), fetches rng
// symbols (fewer where S ends) at every position straight into R in one
// sequential pass, fill i into slot i, and returns the number of symbols
// read. The fetch writes each slot's symbols and the clipped slots are
// zero-padded here, so reusing the buffer across rounds is safe: prior
// rounds' chunks are dead (active leaves are refilled every round, retired
// ones never read again). A position at or past the end of S — impossible
// for an unresolved suffix, whose unique terminator forces divergence
// before it ends — fails the fetch.
func fetchRound(sc *seq.Scanner, chunks *chunkBuf, offs []int32, rng, n int) (int64, error) {
	chunks.reset(len(offs), rng)
	sc.Reset()
	if err := sc.FetchStrided(offs, chunks.buf, rng); err != nil {
		return 0, err
	}
	// The positions ascend, so the slots S clips are the schedule's last.
	read := int64(len(offs)) * int64(rng)
	for i := len(offs) - 1; i >= 0 && n-int(offs[i]) < rng; i-- {
		want := n - int(offs[i])
		clear(chunks.buf[i*rng+want : (i+1)*rng])
		read -= int64(rng - want)
	}
	return read, nil
}

// roundRange computes the per-leaf fetch width: the elastic |R|/|L'| of
// §4.4, or the pinned static width for the Fig. 9(b) ablation.
func roundRange(rCap int64, staticRange, active, n int) int {
	if staticRange > 0 {
		return staticRange
	}
	if active < 1 {
		active = 1
	}
	rng := int(rCap / int64(active))
	if rng < 1 {
		rng = 1
	}
	if rng > n {
		rng = n
	}
	return rng
}

// activeUpfront returns the number of leaves that will participate in round
// one: every occurrence of prefixes with at least two occurrences
// (single-leaf sub-trees are complete before any round runs).
func activeUpfront(g Group) int {
	a := 0
	for _, p := range g.Prefixes {
		if p.Freq >= 2 {
			a += int(p.Freq)
		}
	}
	return a
}

// round performs lines 13–23 of Algorithm SubTreePrepare for one sub-tree:
// lexicographically reorder every active area by the chunks fetched into ch
// (maintaining I and P), split areas whose chunks diverge, define the newly
// determined branching offsets, and retire indices separated from both
// neighbours.
// start is the offset within every suffix of the chunks' first symbol and n
// is |S|: the chunk of index i is clipped to n-L[i]-start symbols when fewer
// than the round's range remain. It returns the number of symbol operations
// performed, for CPU accounting.
func (st *subState) round(ch *chunkBuf, scr *sortScratch, n, start int) (int64, error) {
	m := len(st.L)
	lcp := st.LCP
	var ops int64
	width := func(i int) int {
		return min(ch.rng, n-int(st.L[i])-start)
	}

	// Reorder active areas (lines 13–15).
	i := 0
	for i < m {
		if st.area[i] == areaDone {
			i++
			continue
		}
		j := i + 1
		for j < m && st.area[j] == 0 {
			j++
		}
		if j-i > 1 {
			st.sortArea(ch, scr, i, j)
		}
		// Split into new areas by equal chunks: one comparison per adjacent
		// pair of the (now sorted) area. A pair that diverges also yields
		// its branching offset (lines 16–23), written here negated and
		// taken up by the pass below.
		var adjacent int64
		k := i
		for k < j {
			e := k + 1
			for ; e < j; e++ {
				wa, wb := width(e-1), width(e)
				cs := ch.lcp(st.R[e-1], st.R[e], min(wa, wb))
				ops += int64(cs + 1) // the B pass's look at the pair
				if cs < wa && cs < wb {
					lcp[e] = -int32(start + cs)
					if wa != wb {
						adjacent++
					} else {
						adjacent += int64(cs + 1)
					}
					break
				}
				if wa != wb {
					// A clipped chunk ends at the terminator, which is unique,
					// so one chunk can never be a proper prefix of its
					// neighbour.
					return ops, fmt.Errorf("core: chunk of leaf %d is a prefix of its neighbour (corrupt input?)", e)
				}
				adjacent += int64(wa) // equal: still together, next round extends the window
			}
			st.area[k] = areaOpen
			k = e
		}
		ops += adjacent + sortCharge(j-i, adjacent)
		i = j
	}

	// Define the offsets (lines 16–23): an entry is negative exactly when
	// its pair diverged this round. The pass ascends, so lcp[i-1] > 0
	// counts this round's entries too and lcp[i+1] > 0 only earlier
	// rounds': an index is retired once, when its second side parts.
	for i := 1; i < m; i++ {
		if lcp[i] >= 0 {
			continue
		}
		lcp[i] = -lcp[i]
		if i == 1 || lcp[i-1] > 0 {
			st.markDone(int32(i - 1))
		}
		if i == m-1 || lcp[i+1] > 0 {
			st.markDone(int32(i))
		}
	}
	return ops, nil
}

// sortCharge is the modeled cost of sorting an area of m chunks: m·⌈log₂ m⌉
// comparisons, as a merge sort makes. A comparison reads one symbol past the
// common prefix of its pair; the pairs met in the first merges are strangers
// (one symbol), those met in the last are the area's sorted neighbours, whose
// comparisons cost adjacent in total over the m-1 pairs — so the charge per
// comparison is the mean of the two, (1 + adjacent/(m-1)) / 2. It is a
// function of the sorted data alone: virtual time does not depend on which
// sort the code runs or on the order the area arrived in.
func sortCharge(m int, adjacent int64) int64 {
	if m < 2 {
		return 0
	}
	cmps := int64(m) * int64(bits.Len(uint(m-1)))
	pairs := int64(m - 1)
	// cmps·adjacent/pairs, split so the product cannot overflow.
	atNeighbours := cmps*(adjacent/pairs) + cmps*(adjacent%pairs)/pairs
	return (cmps + atNeighbours) / 2
}

// areaRec is one chunk of a bucket being sorted: keyBytes of its symbols,
// packed so integer order is symbol order, beside its appearance rank (the
// tie order) and its index in the subState arrays.
type areaRec struct {
	key uint64
	p   int32
	idx int32
}

// bucketCap is the most chunks sortArea sorts on packed-key records at once:
// a larger area is partitioned in place until its buckets fit.
const bucketCap = 1 << 11

// sortScratch is sortArea's working memory: one bucket's sort records and the
// column its permutation passes through, bucketCap of each (40 KiB) however
// large the area, allocated on first use. Every goroutine that runs prepare
// rounds sorts in a scratch of its own, its worker context's, so the round
// loop stays allocation-free in the steady state.
type sortScratch struct {
	recs []areaRec
	perm []int32
	// inspect, when set (tests), is shown P's window of every area before
	// the area is sorted.
	inspect func(p []int32)
}

// sortArea lexicographically sorts the triple (L, P, R) on R's chunks within
// the contiguous index range [i, j), breaking ties by P, and maintains the
// inverse index I. P ascends across an area — its pairs tied in every earlier
// sort, which kept them in P order — so equal chunks keep their current
// relative order, as a stable sort would leave them. The order is a function
// of the data alone, however the kernel moves the triples on the way to it.
func (st *subState) sortArea(ch *chunkBuf, scr *sortScratch, i, j int) {
	if scr.recs == nil {
		scr.recs = make([]areaRec, bucketCap)
		scr.perm = make([]int32, bucketCap)
	}
	if scr.inspect != nil {
		scr.inspect(st.P[i:j])
	}
	st.partition(ch, scr, i, j, 0, splitBudget(j-i))
	for x := i; x < j; x++ {
		st.I[st.P[x]] = int32(x)
	}
}

// partition sorts [lo, hi), whose chunks agree on their first depth symbols,
// by the rest of their chunks and then by P. While the range is larger than a
// bucket it is split in place around a pivot key into lesser, equal and
// greater parts, the equal part a whole key deeper; a range that fits is
// sorted on packed-key records (a few chunks by insertion), and one tied to
// the end of its chunks is put in P order. budget is how many more splits at this depth may run before the
// range is heap-sorted instead, which keeps a run of bad pivots at
// O(b log b).
func (st *subState) partition(ch *chunkBuf, scr *sortScratch, lo, hi, depth, budget int) {
	for hi-lo > 1 {
		switch {
		case depth >= ch.rng:
			// A range no split moved is still in P order.
			if !slices.IsSorted(st.P[lo:hi]) {
				st.heapSort(ch, lo, hi, depth)
			}
			return
		case hi-lo <= insertionMax:
			st.insertionSort(ch, lo, hi, depth)
			return
		case hi-lo <= len(scr.recs):
			st.sortBucket(ch, scr, lo, hi, depth)
			return
		case budget == 0:
			st.heapSort(ch, lo, hi, depth)
			return
		}
		lt, gt := st.split(ch, scr, lo, hi, depth)
		// Recurse into the two smaller parts and go on with the largest, so
		// the stack holds O(log b) frames.
		type part struct{ lo, hi, depth, budget int }
		parts := [3]part{{lo, lt, depth, budget - 1}, {lt, gt, depth + keyBytes, splitBudget(gt - lt)}, {gt, hi, depth, budget - 1}}
		big := 0
		for k := 1; k < len(parts); k++ {
			if parts[k].hi-parts[k].lo > parts[big].hi-parts[big].lo {
				big = k
			}
		}
		for k, p := range parts {
			if k != big {
				st.partition(ch, scr, p.lo, p.hi, p.depth, p.budget)
			}
		}
		lo, hi, depth, budget = parts[big].lo, parts[big].hi, parts[big].depth, parts[big].budget
	}
}

// splitBudget is the number of splits at one depth a range of m chunks may
// take before partition heap-sorts it: twice the depth of a balanced split
// tree.
func splitBudget(m int) int { return 2 * bits.Len(uint(m)) }

// split partitions [lo, hi) in place on the chunks' keys at depth around the
// ninther of nine spread keys: on return [lo, lt) holds the lesser keys,
// [lt, gt) the pivot's and [gt, hi) the greater. It reads each key once, and
// moves nothing in a range of one key. When seven of the nine keys agree —
// an area that is mostly one tie class, as a repetitive input's are round
// after round, its strays the suffixes nearest the end of S, which P order
// puts last — it first tries splitStable, which keeps every part in P order.
func (st *subState) split(ch *chunkBuf, scr *sortScratch, lo, hi, depth int) (lt, gt int) {
	key := func(x int) uint64 { return ch.key(st.R[x], depth) }
	s, mid, last := (hi-lo)/8, lo+(hi-lo)/2, hi-1
	k := [9]uint64{key(lo), key(lo + s), key(lo + 2*s), key(mid - s), key(mid), key(mid + s), key(last - 2*s), key(last - s), key(last)}
	pivot := median3(median3(k[0], k[1], k[2]), median3(k[3], k[4], k[5]), median3(k[6], k[7], k[8]))
	if count(k[:], pivot) >= 7 {
		if lt, gt, ok := st.splitStable(ch, scr, lo, hi, depth, pivot); ok {
			return lt, gt
		}
	}
	lt, gt = lo, hi
	for x := lo; x < gt; {
		switch k := key(x); {
		case k < pivot:
			if lt != x {
				st.swap(lt, x)
			}
			lt++
			x++
		case k > pivot:
			gt--
			st.swap(x, gt)
		default:
			x++
		}
	}
	return lt, gt
}

// splitStable is split keeping every part in its current order: the pivot's
// triples are packed toward lo in place and the others set aside in the
// scratch records (L in key, R in idx) — lesser ones from the front, greater
// ones from the back — and then put on either side. Once the others
// outnumber the scratch it puts them back where the packing left room and
// gives up, [lo, hi) holding the same triples in another order.
func (st *subState) splitStable(ch *chunkBuf, scr *sortScratch, lo, hi, depth int, pivot uint64) (lt, gt int, ok bool) {
	aside := scr.recs
	nl, ng := 0, len(aside) // lesser in aside[:nl], greater in aside[ng:], last seen first
	w := lo
	for x := lo; x < hi; x++ {
		k := ch.key(st.R[x], depth)
		if k == pivot {
			if w != x {
				st.L[w], st.P[w], st.R[w] = st.L[x], st.P[x], st.R[x]
			}
			w++
			continue
		}
		if nl == ng {
			for _, t := range aside {
				st.L[w], st.P[w], st.R[w] = int32(t.key), t.p, t.idx
				w++
			}
			return 0, 0, false
		}
		t := areaRec{uint64(st.L[x]), st.P[x], st.R[x]}
		if k < pivot {
			aside[nl] = t
			nl++
		} else {
			ng--
			aside[ng] = t
		}
	}
	lt, gt = lo+nl, lo+nl+(w-lo)
	for _, col := range [...][]int32{st.L, st.P, st.R} {
		copy(col[lt:gt], col[lo:w])
	}
	for k, t := range aside[:nl] {
		st.L[lo+k], st.P[lo+k], st.R[lo+k] = int32(t.key), t.p, t.idx
	}
	for k := range len(aside) - ng {
		t := aside[len(aside)-1-k]
		st.L[gt+k], st.P[gt+k], st.R[gt+k] = int32(t.key), t.p, t.idx
	}
	return lt, gt, true
}

// count returns how many of ks equal k.
func count(ks []uint64, k uint64) int {
	c := 0
	for _, x := range ks {
		if x == k {
			c++
		}
	}
	return c
}

func median3(a, b, c uint64) uint64 {
	if a > b {
		a, b = b, a
	}
	return max(a, min(b, c))
}

// sortBucket sorts [lo, hi), at most a bucket, on packed-key records from
// depth on and then by P, and applies the order to L, P and R.
func (st *subState) sortBucket(ch *chunkBuf, scr *sortScratch, lo, hi, depth int) {
	recs := scr.recs[:hi-lo]
	for k := range recs {
		x := lo + k
		recs[k] = areaRec{ch.key(st.R[x], depth), st.P[x], int32(x)}
	}
	ch.sortRecs(recs, st.R, depth)
	// Apply the permutation to L and R, one column at a time; P is in the
	// records.
	perm := scr.perm[:len(recs)]
	for _, col := range [...][]int32{st.L, st.R} {
		for k, rec := range recs {
			perm[k] = col[rec.idx]
		}
		copy(col[lo:hi], perm)
	}
	for k, rec := range recs {
		st.P[lo+k] = rec.p
	}
}

// insertionMax is the largest range partition sorts by insertion: a few
// whole-chunk comparisons cost less than packing records for them, and most
// areas of a repetitive input are a pair.
const insertionMax = 8

// insertionSort orders [lo, hi) by the chunks' symbols from depth on and
// then by P.
func (st *subState) insertionSort(ch *chunkBuf, lo, hi, depth int) {
	for x := lo + 1; x < hi; x++ {
		for y := x; y > lo && st.less(ch, y, y-1, depth); y-- {
			st.swap(y, y-1)
		}
	}
}

// heapSort orders [lo, hi) by the chunks' symbols from depth on and then by
// P, in O(b log b) comparisons whatever the data.
func (st *subState) heapSort(ch *chunkBuf, lo, hi, depth int) {
	m := hi - lo
	for r := m/2 - 1; r >= 0; r-- {
		st.siftDown(ch, lo, r, m, depth)
	}
	for end := m - 1; end > 0; end-- {
		st.swap(lo, lo+end)
		st.siftDown(ch, lo, 0, end, depth)
	}
}

func (st *subState) siftDown(ch *chunkBuf, lo, r, m, depth int) {
	for {
		c := 2*r + 1
		if c >= m {
			return
		}
		if c+1 < m && st.less(ch, lo+c, lo+c+1, depth) {
			c++
		}
		if !st.less(ch, lo+r, lo+c, depth) {
			return
		}
		st.swap(lo+r, lo+c)
		r = c
	}
}

// less orders indices a and b by their chunks' symbols from depth on, then
// by P.
func (st *subState) less(ch *chunkBuf, a, b, depth int) bool {
	if depth < ch.rng {
		x, y := int(st.R[a])*ch.rng, int(st.R[b])*ch.rng
		if c := bytes.Compare(ch.buf[x+depth:x+ch.rng], ch.buf[y+depth:y+ch.rng]); c != 0 {
			return c < 0
		}
	}
	return st.P[a] < st.P[b]
}

// swap exchanges the triples at indices a and b.
func (st *subState) swap(a, b int) {
	st.L[a], st.L[b] = st.L[b], st.L[a]
	st.P[a], st.P[b] = st.P[b], st.P[a]
	st.R[a], st.R[b] = st.R[b], st.R[a]
}

// sortRecs orders recs, whose keys hold their chunks' symbols from depth on,
// by the rest of their chunks and then by P. Records are sorted by value on
// the key; chunk bytes are touched again only to re-key the runs the key
// left tied, keyBytes symbols deeper each time.
func (ch *chunkBuf) sortRecs(recs []areaRec, slots []int32, depth int) {
	for {
		// Plain branches: cmp.Compare measured ≈ 8 % slower on BenchmarkSortArea.
		slices.SortFunc(recs, func(a, b areaRec) int {
			if a.key != b.key {
				if a.key < b.key {
					return -1
				}
				return 1
			}
			return int(a.p - b.p)
		})
		depth += keyBytes
		if depth >= ch.rng {
			return
		}
		if recs[0].key != recs[len(recs)-1].key {
			break
		}
		ch.rekey(recs, slots, depth) // one tied run: go deeper without recursing
	}
	for lo := 0; lo < len(recs); {
		hi := lo + 1
		for hi < len(recs) && recs[hi].key == recs[lo].key {
			hi++
		}
		if hi-lo > 1 {
			ch.rekey(recs[lo:hi], slots, depth)
			ch.sortRecs(recs[lo:hi], slots, depth)
		}
		lo = hi
	}
}

func (ch *chunkBuf) rekey(run []areaRec, slots []int32, depth int) {
	for k := range run {
		run[k].key = ch.key(slots[run[k].idx], depth)
	}
}
