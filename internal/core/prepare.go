package core

import (
	"fmt"
	"math/bits"
	"slices"

	"era/internal/seq"
	"era/internal/sim"
)

// BEntry is one branching triplet of array B (§4.2.2): the branches to
// leaves L[i-1] and L[i] share Offset symbols from the suffix start, then
// continue with symbols C1 and C2 respectively.
type BEntry struct {
	C1, C2 byte
	Offset int32
}

// Prepared is the output of SubTreePrepare for one S-prefix: the leaf
// positions in lexicographic suffix order and the branching information,
// from which BuildSubTree materializes the sub-tree in one batch pass.
type Prepared struct {
	Prefix Prefix
	L      []int32
	B      []BEntry // B[0] is unused
}

// PrepareStats counts the work of the preparation step for one group.
type PrepareStats struct {
	Rounds      int   // while-loop iterations = scans of S (beyond the collect scan)
	SymbolsRead int64 // symbols fetched into R
	MinRange    int
	MaxRange    int
}

// subState is the working state of Algorithm SubTreePrepare for one
// sub-tree. The four auxiliary arrays mirror the paper exactly:
//
//	L    current order of leaf positions (progressively lex-sorted)
//	P    appearance rank of the leaf at each current index
//	I    appearance rank → current index (-1 once done); lets one
//	     sequential pass of S fill R in string order
//	area active-area id per index (-1 once done); equal adjacent ids form
//	     one active area
//	R    slot, in the round's chunk buffer, of the next symbols fetched
//	     this round per index (stale once the index is done)
//	B    branching triplets; defined[i] tracks which are known
type subState struct {
	prefix  Prefix
	L       []int32
	P       []int32
	I       []int32
	area    []int32
	R       []int32
	B       []BEntry
	defined []bool
	pending int // undefined B entries
	active  int // indices not yet done
}

// init (re)points a subState at the auxiliary arrays for a fresh prepare. The
// backing slices come from pooled slabs holding a previous group's values:
// every element the algorithm reads is (re)written here. The collect scan
// left occurrence i's round-one chunk in slot slot0+i.
func (st *subState) init(prefix Prefix, occ []int32, areaID, slot0 int32, p, i32, area, r []int32, b []BEntry, defined []bool) {
	m := len(occ)
	st.prefix = prefix
	st.L = occ
	st.P, st.I, st.area = p, i32, area
	st.R, st.B, st.defined = r, b, defined
	st.pending = m - 1
	st.active = m
	for i := 0; i < m; i++ {
		st.P[i] = int32(i)
		st.I[i] = int32(i)
		st.area[i] = areaID
		st.R[i] = slot0 + int32(i)
		st.B[i] = BEntry{}
		st.defined[i] = false
	}
	if m == 1 {
		// A single leaf needs no branching information.
		st.I[0] = -1
		st.area[0] = -1
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
	if st.area[i] < 0 {
		return
	}
	st.I[st.P[i]] = -1
	st.area[i] = -1
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
// batch requests, chunk arena), so consecutive groups on one worker share it
// and the steady state allocates nothing per round; nil uses throwaway
// scratch with identical behavior.
func GroupPrepare(ctx *buildContext, f *seq.File, sc *seq.Scanner, clock *sim.Clock, model sim.CostModel,
	group Group, rCap int64, staticRange int) ([]Prepared, PrepareStats, error) {

	if ctx == nil {
		ctx = new(buildContext)
	}
	n := f.Len()
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
	// slab backs every P/I/area/R, one slab each backs B and defined.
	var nextArea int32
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
	if cap(ctx.i32Slab) < 4*M {
		ctx.i32Slab = make([]int32, 4*M)
	}
	if cap(ctx.bSlab) < M {
		ctx.bSlab = make([]BEntry, M)
	}
	if cap(ctx.defSlab) < M {
		ctx.defSlab = make([]bool, M)
	}
	i32 := ctx.i32Slab[:4*M]
	bsl, dsl := ctx.bSlab[:cap(ctx.bSlab)], ctx.defSlab[:cap(ctx.defSlab)]
	posI, pos := 0, 0
	for i, p := range group.Prefixes {
		if int64(len(occs[i])) != p.Freq {
			return nil, stats, fmt.Errorf("core: prefix %q: %d occurrences but frequency %d", p.Label, len(occs[i]), p.Freq)
		}
		m := len(occs[i])
		subs[i] = &states[i]
		subs[i].init(p, occs[i], nextArea, int32(pos),
			i32[posI:posI+m], i32[posI+m:posI+2*m], i32[posI+2*m:posI+3*m], i32[posI+3*m:posI+4*m],
			bsl[pos:pos+m], dsl[pos:pos+m])
		posI += 4 * m
		pos += m
		nextArea++
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
	var cpuOps int64
	chunks := &ctx.chunks
	for i, st := range subs {
		starts[i] = len(st.prefix.Label)
		// The chunks captured by the collect scan are round one.
		if st.active > 0 {
			ops, err := st.round(chunks, &ctx.sortScratch, n, starts[i], &nextArea)
			if err != nil {
				return nil, stats, err
			}
			cpuOps += ops
		}
		starts[i] += rng1
	}
	clock.Advance(model.CPUTime(cpuOps))
	cpuOps = 0

	// Round-loop scratch, reused every round (and, through the context,
	// across groups): the fill schedule, the merge heap, the batch requests
	// and the chunk buffer. Once sized, the loop allocates nothing.
	fills, heap, reqs := ctx.fills, ctx.heap, ctx.reqs
	defer func() { ctx.fills, ctx.heap, ctx.reqs = fills[:0], heap[:0], reqs }()

	for {
		activeTotal := 0
		for _, st := range subs {
			activeTotal += st.active
		}
		if activeTotal == 0 {
			break
		}

		// Elastic range (§4.4): range = |R| / |L'|.
		rng := staticRange
		if rng <= 0 {
			rng = int(rCap / int64(activeTotal))
			if rng < 1 {
				rng = 1
			}
			if rng > n {
				rng = n
			}
		}
		if rng < stats.MinRange {
			stats.MinRange = rng
		}
		if rng > stats.MaxRange {
			stats.MaxRange = rng
		}
		stats.Rounds++

		// Gather the fill schedule in string order: the leaves of each
		// sub-tree are visited via I in appearance order (increasing
		// position), so each sub-tree contributes one already-sorted run; a
		// k-way heap merge unions the runs into one sequential pass without
		// re-sorting them. The schedule has exactly activeTotal entries, a
		// count that only falls from round to round.
		if cap(fills) < activeTotal {
			fills = make([]fillReq, 0, activeTotal)
		}
		fills = fills[:0]
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
			fills = append(fills, fillReq{int32(hd.pos), hd.sub, st.I[hd.a]})
			if r := st.nextActive(int(hd.a) + 1); r >= 0 {
				heap.replaceMin(mergeHead{pos: int(st.L[st.I[r]]) + starts[hd.sub], sub: hd.sub, a: int32(r)})
			} else {
				heap = heap.popMin()
			}
		}
		cpuOps += int64(len(fills))

		var read int64
		if reqs, read, err = fetchRound(sc, chunks, reqs, fills, rng, n); err != nil {
			return nil, stats, fmt.Errorf("core: group of %q: %w", group.Prefixes[0].Label, err)
		}
		stats.SymbolsRead += read
		for i, fl := range fills {
			subs[fl.sub].R[fl.idx] = int32(i)
		}

		// Per sub-tree: sort active areas, split them, and extend B.
		for si, st := range subs {
			ops, err := st.round(chunks, &ctx.sortScratch, n, starts[si], &nextArea)
			if err != nil {
				return nil, stats, err
			}
			cpuOps += ops
			starts[si] += rng
		}
		clock.Advance(model.CPUTime(cpuOps))
		cpuOps = 0
	}

	// The output rides the pooled storage too (L is the collect slab's
	// occurrence list, B the pooled triplet slab): valid until the next
	// GroupPrepare/CollectWithFill on this context, which is exactly the
	// window processGroup consumes it in.
	out := ctx.prepBuf
	if cap(out) < len(subs) {
		out = make([]Prepared, len(subs))
	}
	out = out[:len(subs)]
	ctx.prepBuf = out
	for i, st := range subs {
		out[i] = Prepared{Prefix: st.prefix, L: st.L, B: st.B}
	}
	if stats.MinRange > stats.MaxRange {
		stats.MinRange = 0
	}
	return out, stats, nil
}

// fetchRound runs one fill round for either horizontal builder: it sizes
// chunks for the schedule, fetches rng symbols (fewer where S ends) at every
// scheduled position in one sequential pass, fill i into slot i, and returns
// the regrown batch with the number of symbols read. FetchBatch overwrites
// each destination fully and fill zero-pads the rest of the slot, so reusing
// the buffer across rounds is safe: prior rounds' chunks are dead (active
// leaves are refilled every round, retired ones never read again).
func fetchRound(sc *seq.Scanner, chunks *chunkBuf, reqs []seq.BatchRequest, fills []fillReq, rng, n int) ([]seq.BatchRequest, int64, error) {
	chunks.reset(len(fills), rng)
	reqs = seq.GrowBatch(reqs, len(fills))
	for i, fl := range fills {
		want := min(rng, n-int(fl.pos))
		if want <= 0 {
			// Cannot happen for an unresolved suffix: the unique terminator
			// forces divergence before the suffix ends.
			return reqs, 0, fmt.Errorf("entry %d of sub-tree %d exhausted at %d (string length %d)", fl.idx, fl.sub, fl.pos, n)
		}
		reqs[i] = seq.BatchRequest{Off: int(fl.pos), Dst: chunks.fill(i, want)}
	}
	sc.Reset()
	if err := sc.FetchBatch(reqs); err != nil {
		return reqs, 0, err
	}
	var read int64
	for i := range reqs {
		read += int64(reqs[i].Got)
	}
	return reqs, read, nil
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
// determined B entries, and retire indices separated from both neighbours.
// start is the offset within every suffix of the chunks' first symbol and n
// is |S|: the chunk of index i is clipped to n-L[i]-start symbols when fewer
// than the round's range remain. It returns the number of symbol operations
// performed, for CPU accounting.
func (st *subState) round(ch *chunkBuf, scr *sortScratch, n, start int, nextArea *int32) (int64, error) {
	m := len(st.L)
	var ops int64
	width := func(i int) int {
		return min(ch.rng, n-int(st.L[i])-start)
	}

	// Reorder active areas (lines 13–15).
	i := 0
	for i < m {
		if st.area[i] < 0 {
			i++
			continue
		}
		j := i + 1
		for j < m && st.area[j] == st.area[i] {
			j++
		}
		if j-i > 1 {
			st.sortArea(ch, scr, i, j)
		}
		// Split into new areas by equal chunks: one comparison per adjacent
		// pair of the (now sorted) area. A pair that diverges also yields
		// its branching triplet (lines 16–23); it is written here, while
		// both chunks are at hand, and taken up by the pass below.
		var adjacent int64
		k := i
		for k < j {
			e := k + 1
			for ; e < j; e++ {
				wa, wb := width(e-1), width(e)
				cs := ch.lcp(st.R[e-1], st.R[e], min(wa, wb))
				ops += int64(cs + 1) // the B pass's look at the pair
				if cs < wa && cs < wb {
					st.B[e] = BEntry{C1: ch.at(st.R[e-1], cs), C2: ch.at(st.R[e], cs), Offset: int32(start + cs)}
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
			id := *nextArea
			*nextArea++
			for x := k; x < e; x++ {
				st.area[x] = id
			}
			k = e
		}
		ops += adjacent + sortCharge(j-i, adjacent)
		i = j
	}

	// Define B entries (lines 16–23): an undefined entry lies inside an
	// area the pass above just compared, and holds a triplet (C1 ≠ C2) exactly
	// when its pair diverged this round.
	for i := 1; i < m; i++ {
		if st.defined[i] || st.B[i].C1 == st.B[i].C2 {
			continue
		}
		st.defined[i] = true
		st.pending--
		if i == 1 || st.defined[i-1] {
			st.markDone(int32(i - 1))
		}
		if i == m-1 || st.defined[i+1] {
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

// areaRec is one chunk of an area being sorted: keyBytes of its symbols,
// packed so integer order is symbol order, beside its index in the subState
// arrays.
type areaRec struct {
	key uint64
	idx int32
}

// sortScratch is sortArea's working memory, grown to the largest area sorted
// so far and shared by every sub-tree a build context prepares, so the round
// loop stays allocation-free in the steady state.
type sortScratch struct {
	recs []areaRec
	perm []int32
}

// sortArea lexicographically sorts the triple (R, P, L) on R's chunks within
// the contiguous index range [i, j), maintaining the inverse index I. Equal
// chunks keep their current relative order.
func (st *subState) sortArea(ch *chunkBuf, scr *sortScratch, i, j int) {
	m := j - i
	if cap(scr.recs) < m {
		scr.recs = make([]areaRec, m)
		scr.perm = make([]int32, 3*m)
	}
	recs := scr.recs[:m]
	for k := range recs {
		recs[k] = areaRec{ch.key(st.R[i+k], 0), int32(i + k)}
	}
	ch.sortRecs(recs, st.R, 0)
	// Apply the permutation to L, P, R.
	permL, permP, permR := scr.perm[:m], scr.perm[m:2*m], scr.perm[2*m:3*m]
	for k, rec := range recs {
		permL[k] = st.L[rec.idx]
		permP[k] = st.P[rec.idx]
		permR[k] = st.R[rec.idx]
	}
	copy(st.L[i:j], permL)
	copy(st.P[i:j], permP)
	copy(st.R[i:j], permR)
	for x := i; x < j; x++ {
		st.I[st.P[x]] = int32(x)
	}
}

// sortRecs orders recs, whose keys hold their chunks' symbols from depth on,
// by the rest of their chunks and then by index. Records are sorted by value
// on the key; chunk bytes are touched again only to re-key the runs the key
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
			return int(a.idx - b.idx)
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
