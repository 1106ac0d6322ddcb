package core

import (
	"fmt"

	"era/internal/seq"
	"era/internal/sim"
	"era/internal/suffixtree"
)

// This file implements ERa-str (§4.2.1): Algorithm ComputeSuffixSubTree with
// the optimized iterative BranchEdge. The sub-tree is built level by level
// directly in the node structure — every round extends or branches the open
// edges in place, which costs random memory accesses per update (the paper's
// stated reason for superseding it with SubTreePrepare/BuildSubTree, §4.2.2).
// It is kept as a first-class builder because Fig. 7 compares the two.
//
// Chunk state is a flat per-sub-tree slot table indexed by occurrence
// appearance rank (each open edge carries its occurrences' ranks), so the
// innermost symbol-comparison loop costs one array index instead of a
// hash-map probe; the chunk bytes live in the round's chunk buffer and the
// round's fill schedule is a k-way merge of the per-edge appearance-ordered
// runs.

// openEdge is an edge still under construction: all suffixes in occs pass
// through node's edge end at string depth depth. ranks[k] is the appearance
// rank of occs[k] within its sub-tree — the index of its chunk.
type openEdge struct {
	node  int32
	occs  []int32
	ranks []int32
	depth int32 // symbols of each suffix consumed so far
}

// strState is the ERa-str working state for one sub-tree of a group.
type strState struct {
	prefix Prefix
	tree   *suffixtree.Tree
	open   []openEdge
	// spare is last round's consumed open list, reused as the next round's
	// append target. The two buffers alternate: re-queued edges must never
	// land in the array still being iterated (edges would be clobbered and
	// duplicated mid-round, silently corrupting the sub-tree).
	spare  []openEdge
	active int       // total occurrences on open edges
	chunks *chunkBuf // this round's chunks
	slots  []int32   // appearance rank → slot in chunks

	// processEdge scratch, reused across rounds.
	stack     []branchJob
	occTmp    []int32
	rankTmp   []int32
	symCounts [256]int32
	symStarts [256]int32
	symList   []byte
}

// branchJob is one pending stretch of BranchEdge work within processEdge.
type branchJob struct {
	node     int32
	occs     []int32
	ranks    []int32
	depth    int32 // suffix depth at the node's edge end
	consumed int32 // symbols of this round's chunk already used
}

// GroupBranch builds every sub-tree of a virtual tree with the ERa-str
// method, sharing each scan of S across the whole group exactly like
// GroupPrepare. Chunks of `range` symbols per unresolved suffix are fetched
// per round (optimizations 1–3 of §4.2.1); the occurrence-collection scan
// doubles as round one. A non-nil ctx supplies the shared round-loop scratch
// (see GroupPrepare).
func GroupBranch(ctx *buildContext, f *seq.File, view seq.String, sc *seq.Scanner, clock *sim.Clock, model sim.CostModel,
	group Group, rCap int64, staticRange int) ([]*suffixtree.Tree, PrepareStats, error) {

	if ctx == nil {
		ctx = new(buildContext)
	}
	n := f.Len()
	stats := PrepareStats{MinRange: int(^uint(0) >> 1)}

	ctx.chunks.planFor(rCap, activeUpfront(group), n)
	rng1 := roundRange(rCap, staticRange, activeUpfront(group), n)
	occs, captured, err := CollectWithFill(ctx, f, sc, clock, model, group, rng1)
	if err != nil {
		return nil, stats, err
	}
	stats.SymbolsRead += captured

	subs := make([]*strState, len(group.Prefixes))
	slot := 0 // the collect scan left occurrence r of prefix i in slot Σ_{k<i} Freq_k + r
	for i, p := range group.Prefixes {
		if len(occs[i]) == 0 {
			return nil, stats, fmt.Errorf("core: prefix %q has no occurrences", p.Label)
		}
		t := suffixtree.New(view)
		st := &strState{prefix: p, tree: t}
		plen := int32(len(p.Label))
		first := occs[i][0]
		if int(first)+len(p.Label) == n {
			// The prefix label itself ends with the terminator (p$ or the
			// trivial T$ sub-tree): a single leaf, complete immediately.
			leaf := t.NewNode(first, int32(n), first)
			t.AttachLast(t.Root(), leaf)
		} else {
			u := t.NewNode(first, first+plen, -1)
			t.AttachLast(t.Root(), u)
			m := len(occs[i])
			tables := make([]int32, 2*m)
			ranks := tables[:m:m]
			st.slots = tables[m:]
			for r := range ranks {
				ranks[r] = int32(r)
				st.slots[r] = int32(slot + r)
			}
			st.open = append(st.open, openEdge{node: u, occs: occs[i], ranks: ranks, depth: plen})
			st.active = m
		}
		slot += len(occs[i])
		subs[i] = st
	}

	var cpuSeq, cpuRand int64

	// Round-loop scratch, reused every round (and across groups via the
	// context): the fill schedule's positions and the merge heap.
	offs, heap := ctx.offs, ctx.heap
	chunks := &ctx.chunks
	defer func() { ctx.offs, ctx.heap = offs[:0], heap[:0] }()
	firstRound := true

	for {
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
		var rng int
		if firstRound {
			rng = rng1
		} else {
			rng = roundRange(rCap, staticRange, activeTotal, n)
		}
		if rng < stats.MinRange {
			stats.MinRange = rng
		}
		if rng > stats.MaxRange {
			stats.MaxRange = rng
		}
		stats.Rounds++

		if firstRound {
			// Round one uses the chunks captured by the collect scan, which
			// arrive already indexed by appearance rank.
			firstRound = false
		} else {
			// One sequential pass fetches the next chunk for every
			// unresolved suffix of every sub-tree in the group. Every open
			// edge's occurrences are in appearance order, so the schedule
			// is a k-way merge of per-edge runs; fill i lands in slot i,
			// which the merge records under the occurrence's appearance
			// rank as it goes.
			if cap(offs) < activeTotal {
				offs = make([]int32, 0, activeTotal)
			}
			offs = offs[:0]
			heap = heap[:0]
			for si, st := range subs {
				for ei, oe := range st.open {
					if len(oe.occs) > 0 {
						heap = append(heap, mergeHead{pos: int(oe.occs[0]) + int(oe.depth), sub: int32(si), a: int32(ei)})
					}
				}
			}
			heap.init()
			for len(heap) > 0 {
				hd := heap[0]
				st := subs[hd.sub]
				oe := &st.open[hd.a]
				st.slots[oe.ranks[hd.b]] = int32(len(offs))
				offs = append(offs, int32(hd.pos))
				if nb := hd.b + 1; int(nb) < len(oe.occs) {
					heap.replaceMin(mergeHead{pos: int(oe.occs[nb]) + int(oe.depth), sub: hd.sub, a: hd.a, b: nb})
				} else {
					heap = heap.popMin()
				}
			}
			cpuSeq += int64(len(offs))

			read, err := fetchRound(sc, chunks, offs, rng, n)
			if err != nil {
				return nil, stats, fmt.Errorf("core: group of %q: %w", group.Prefixes[0].Label, err)
			}
			stats.SymbolsRead += read
		}

		// Process every open edge against its chunks. All of this phase's
		// work runs against the partial tree and per-edge chunk state —
		// the non-sequential, non-local memory accesses that §4.2.2 calls
		// out as ERa-str's bottleneck — so the whole of it is charged at
		// the random-access rate.
		for _, st := range subs {
			open := st.open
			st.open = st.spare[:0]
			st.spare = open
			st.active = 0
			st.chunks = chunks
			for _, oe := range open {
				seqOps, randOps, err := st.processEdge(oe, int32(n))
				if err != nil {
					return nil, stats, err
				}
				cpuSeq += seqOps
				cpuRand += randOps
			}
		}
		clock.Advance(model.RandomCPUTime(cpuSeq + cpuRand))
		cpuSeq, cpuRand = 0, 0
	}

	trees := make([]*suffixtree.Tree, len(subs))
	for i, st := range subs {
		trees[i] = st.tree
	}
	if stats.MinRange > stats.MaxRange {
		stats.MinRange = 0
	}
	return trees, stats, nil
}

// processEdge consumes this round's chunks along one open edge: the edge is
// extended over the symbols every suffix shares (Proposition 1 case 2), then
// branched where they diverge (case 3); singleton branches become leaves
// (case 1). Unresolved branches are re-queued for the next round. Tree
// mutations are counted as random-access operations, symbol comparisons as
// sequential ones.
func (st *strState) processEdge(oe openEdge, n int32) (seqOps, randOps int64, err error) {
	t := st.tree
	chunks, slots := st.chunks, st.slots
	stack := append(st.stack[:0], branchJob{oe.node, oe.occs, oe.ranks, oe.depth, 0})

	for len(stack) > 0 {
		j := stack[len(stack)-1]
		stack = stack[:len(stack)-1]

		if len(j.occs) == 1 {
			// Leaf (Proposition 1 case 1): extend the edge to the
			// terminator and label with the suffix offset.
			t.SetEdgeEnd(j.node, n)
			t.SetSuffix(j.node, j.occs[0])
			randOps++
			continue
		}

		// Common extension across all suffixes within the fetched window: a
		// chunk is the round's range wide unless the end of S clipped it.
		limit := int32(chunks.rng)
		for _, o := range j.occs {
			if l := n - o - (j.depth - j.consumed); l < limit {
				limit = l
			}
		}
		limit -= j.consumed
		first := slots[j.ranks[0]]
		var cs int32
		for cs < limit {
			sym := chunks.at(first, int(j.consumed+cs))
			same := true
			for _, r := range j.ranks[1:] {
				seqOps++
				if chunks.at(slots[r], int(j.consumed+cs)) != sym {
					same = false
					break
				}
			}
			if !same {
				break
			}
			cs++
		}
		if cs > 0 {
			t.SetEdgeEnd(j.node, t.EdgeEnd(j.node)+cs)
			randOps++
		}
		newDepth := j.depth + cs
		newConsumed := j.consumed + cs

		if cs == limit {
			// Window exhausted with no divergence: stay open.
			st.open = append(st.open, openEdge{node: j.node, occs: j.occs, ranks: j.ranks, depth: newDepth})
			st.active += len(j.occs)
			continue
		}

		// Divergence: stably partition the occurrences in place by their
		// next symbol, so every child is a sub-slice of the parent's
		// occurrence (and rank) storage — no per-branch allocation.
		m := len(j.occs)
		if cap(st.occTmp) < m {
			st.occTmp = make([]int32, m)
			st.rankTmp = make([]int32, m)
		}
		present := st.symList[:0]
		for _, r := range j.ranks {
			sym := chunks.at(slots[r], int(newConsumed))
			if st.symCounts[sym] == 0 {
				present = append(present, sym)
			}
			st.symCounts[sym]++
			seqOps++
		}
		for a := 1; a < len(present); a++ {
			for b := a; b > 0 && present[b] < present[b-1]; b-- {
				present[b], present[b-1] = present[b-1], present[b]
			}
		}
		off := int32(0)
		for _, s := range present {
			st.symStarts[s] = off
			st.symCounts[s], off = off, off+st.symCounts[s]
		}
		occTmp := st.occTmp[:m]
		rankTmp := st.rankTmp[:m]
		copy(occTmp, j.occs)
		copy(rankTmp, j.ranks)
		for k := 0; k < m; k++ {
			sym := chunks.at(slots[rankTmp[k]], int(newConsumed))
			d := st.symCounts[sym]
			st.symCounts[sym]++
			j.occs[d] = occTmp[k]
			j.ranks[d] = rankTmp[k]
		}
		for ci, s := range present {
			lo := st.symStarts[s]
			hi := int32(m)
			if ci+1 < len(present) {
				hi = st.symStarts[present[ci+1]]
			}
			g, gr := j.occs[lo:hi], j.ranks[lo:hi]
			o := g[0]
			child := t.NewNode(o+newDepth, o+newDepth+1, -1)
			t.AttachLast(j.node, child)
			randOps++
			stack = append(stack, branchJob{child, g, gr, newDepth + 1, newConsumed + 1})
		}
		for _, s := range present {
			st.symCounts[s] = 0
		}
		st.symList = present[:0]
	}
	st.stack = stack[:0]
	return seqOps, randOps, nil
}
