// Package wavefront implements the WaveFront suffix tree construction
// algorithm of Ghoting & Makarychev (SIGMOD'09) and its parallel version
// PWaveFront (SC'09), as characterized in §3 of the ERA paper. It is ERA's
// principal competitor: the same vertical decomposition into variable-length
// S-prefix sub-trees with strictly sequential string access, but
//
//   - no grouping of sub-trees into virtual trees — every sub-tree scans S
//     on its own;
//   - a static tile width per sub-tree — the memory freed by resolved
//     leaves is never reused (no elastic range);
//   - the memory budget is split equally between processing space, input
//     buffers and the sub-tree (the best setting per [7]), so its maximum
//     sub-tree is roughly half of ERA's for the same budget;
//   - every unresolved suffix re-navigates the partial sub-tree top-down
//     from the root each round, a cache-unfriendly pointer chase that grows
//     with the branch factor (the paper's explanation for WaveFront's
//     alphabet sensitivity, §6.1 / Fig. 11).
package wavefront

import (
	"fmt"
	"time"

	"era/internal/core"
	"era/internal/seq"
	"era/internal/sim"
	"era/internal/suffixtree"
)

// Options configure a WaveFront build.
type Options struct {
	// MemoryBudget is the total memory in bytes.
	MemoryBudget int64
	// Assemble grafts all sub-trees into one queryable tree (tests).
	Assemble bool
	// WriteTrees serializes finished sub-trees (charged I/O).
	WriteTrees bool
}

// Stats mirrors core.Stats for the harness.
type Stats struct {
	VirtualTime  time.Duration
	VPTime       time.Duration
	Scans        int
	Prefixes     int
	Groups       int // == Prefixes: one sub-tree per "group"
	SubTrees     int
	TreeNodes    int64
	Rounds       int
	SymbolsRead  int64
	BytesFetched int64
}

// Result of a serial WaveFront build.
type Result struct {
	Tree  *suffixtree.Tree
	Stats Stats

	workerCPU time.Duration
	workerIO  time.Duration
}

// Layout computes WaveFront's equal three-way memory split. The node-size
// constant matches ERA's accounting (core.AccountedNodeSize) so the two
// algorithms' partition counts are directly comparable, exactly as in the
// paper's experiments.
func Layout(budget int64) (mts, bufArea, procArea int64, fm int64, err error) {
	if budget < 1024 {
		return 0, 0, 0, 0, fmt.Errorf("wavefront: memory budget %d too small", budget)
	}
	mts = budget / 3
	bufArea = budget / 3
	procArea = budget - mts - bufArea
	fm = mts / (2 * core.AccountedNodeSize)
	if fm < 1 {
		return 0, 0, 0, 0, fmt.Errorf("wavefront: budget %d too small for any sub-tree", budget)
	}
	return mts, bufArea, procArea, fm, nil
}

// BuildSerial runs serial WaveFront over the on-disk string f.
func BuildSerial(f *seq.File, opts Options) (*Result, error) {
	clock := new(sim.Clock)
	return buildOn(f, opts, clock, clock)
}

// buildOn runs the pipeline charging I/O to ioClock and CPU to cpuClock
// (the serial driver passes the same clock twice).
func buildOn(f *seq.File, opts Options, ioClock, cpuClock *sim.Clock) (*Result, error) {
	if opts.MemoryBudget <= 0 {
		return nil, fmt.Errorf("wavefront: Options.MemoryBudget is required")
	}
	model := f.Disk().Model()
	_, bufArea, _, fm, err := Layout(opts.MemoryBudget)
	if err != nil {
		return nil, err
	}
	sc, err := f.NewScanner(ioClock, seq.ScannerConfig{BufSize: 1 << 20})
	if err != nil {
		return nil, err
	}

	// WaveFront uses the same variable-length prefix partitioning
	// ([7, 10], reused from core) but no grouping.
	groups, vstats, err := core.VerticalPartition(f, sc, cpuClock, model, fm, false)
	if err != nil {
		return nil, err
	}
	res := &Result{}
	res.Stats.VPTime = ioClock.Now() + cpuClock.Now()
	res.Stats.Prefixes = vstats.Prefixes
	res.Stats.Groups = vstats.Groups

	if opts.Assemble {
		view, err := f.View()
		if err != nil {
			return nil, err
		}
		res.Tree = suffixtree.New(view)
	}

	view, err := f.View()
	if err != nil {
		return nil, err
	}
	for gi, g := range groups {
		occs, err := core.CollectOccurrences(f, sc, cpuClock, model, g)
		if err != nil {
			return nil, err
		}
		for pi := range g.Prefixes {
			t, rounds, syms, err := buildSubTree(f, view, sc, cpuClock, model, g.Prefixes[pi], occs[pi], bufArea)
			if err != nil {
				return nil, err
			}
			res.Stats.Rounds += rounds
			res.Stats.SymbolsRead += syms
			res.Stats.SubTrees++
			res.Stats.TreeNodes += int64(t.NumNodes() - 1)
			if opts.WriteTrees {
				name := fmt.Sprintf("wf-trees/g%04d-p%02d.st", gi, pi)
				w := f.Disk().Create(name, ioClock)
				if _, err := t.WriteTo(w); err != nil {
					return nil, err
				}
			}
			if res.Tree != nil {
				if err := res.Tree.Graft(t); err != nil {
					return nil, fmt.Errorf("wavefront: grafting group %d: %w", gi, err)
				}
			}
		}
	}

	res.Stats.Scans = sc.Stats().Scans
	res.Stats.BytesFetched = sc.Stats().BytesFetched
	res.workerIO = ioClock.Now()
	res.workerCPU = cpuClock.Now()
	res.Stats.VirtualTime = res.workerIO + res.workerCPU
	return res, nil
}

// pending is an unresolved suffix: the wave has consumed `depth` symbols and
// the suffix has not yet diverged from the partial sub-tree.
type pending struct {
	pos   int32 // suffix start (occurrence of the prefix)
	depth int32
}

// buildSubTree constructs the sub-tree for one S-prefix by wavefront rounds:
// each round sequentially fetches a static-width tile for every unresolved
// suffix and advances it through the partial tree top-down from the root.
func buildSubTree(f *seq.File, view seq.String, sc *seq.Scanner, clock *sim.Clock, model sim.CostModel,
	p core.Prefix, occ []int32, bufArea int64) (*suffixtree.Tree, int, int64, error) {

	n := int32(f.Len())
	t := suffixtree.New(view)

	// Static tile width for this sub-tree: the buffer area divided by the
	// leaves it must serve, fixed for the whole construction.
	rng := int(bufArea / int64(len(occ)))
	if rng < 1 {
		rng = 1
	}
	if rng > int(n) {
		rng = int(n)
	}

	work := make([]pending, len(occ))
	for i, o := range occ {
		// The shared S-prefix is known; the wave starts right after it.
		work[i] = pending{pos: o, depth: int32(len(p.Label))}
	}
	// Insert the first suffix's full edge immediately (it diverges from the
	// empty tree at the prefix itself).
	first := t.NewNode(work[0].pos, n, work[0].pos)
	t.AttachLast(t.Root(), first)
	work = work[1:]

	rounds := 0
	var symbolsRead int64
	var cpuSeq, cpuRand int64
	// The tiles of one round share one buffer, tile i at i·rng; the work list
	// only shrinks, so it is sized once.
	offs := make([]int32, len(work))
	tiles := make([]byte, len(work)*rng)

	for len(work) > 0 {
		rounds++
		// Fetch every unresolved suffix's tile in one sequential pass
		// (appearance order keeps the requests sorted).
		offs = offs[:len(work)]
		for i, w := range work {
			offs[i] = w.pos + w.depth
		}
		sc.Reset()
		if err := sc.FetchStrided(offs, tiles, rng); err != nil {
			return nil, rounds, symbolsRead, err
		}

		next := work[:0]
		for i, w := range work {
			got := min(rng, int(n-offs[i]))
			tile := tiles[i*rng : i*rng+got]
			symbolsRead += int64(got)
			done, nd, ops := advance(t, view, w, tile, n)
			cpuRand += ops
			cpuSeq += int64(got)
			if !done {
				next = append(next, pending{pos: w.pos, depth: nd})
			}
		}
		work = next
		clock.Advance(model.CPUTime(cpuSeq) + model.RandomCPUTime(cpuRand))
		cpuSeq, cpuRand = 0, 0
	}
	return t, rounds, symbolsRead, nil
}

// advance pushes one suffix through the partial tree: it re-navigates from
// the root to the suffix's current depth (the top-down traversal WaveFront
// pays on every round — its CPU overhead per §3), then matches tile symbols
// incrementally until the suffix either diverges — attaching its leaf,
// possibly splitting an edge — or exhausts the tile. Returns doneness, the
// new depth, and the number of random-access operations (node hops and
// child-list scans).
func advance(t *suffixtree.Tree, view seq.String, w pending, tile []byte, n int32) (bool, int32, int64) {
	// Top-down re-navigation from the root to (node, off) covering w.depth.
	node, off, ops := locate(t, view, w.pos, w.depth)

	depth := w.depth
	for _, sym := range tile {
		if node != t.Root() && off < t.EdgeLen(node) {
			// Inside node's edge.
			ops++
			if view.At(int(t.EdgeStart(node)+off)) == sym {
				off++
				depth++
				continue
			}
			// Diverge mid-edge: split and attach the leaf.
			m := t.SplitEdge(node, off)
			leaf := t.NewNode(w.pos+depth, n, w.pos)
			if err := t.AttachSorted(m, leaf); err != nil {
				panic(err) // divergence guarantees a distinct first symbol
			}
			ops += 2
			return true, depth, ops
		}
		// At a node boundary: scan the child list for sym.
		c := t.FirstChild(node)
		for c != suffixtree.None && view.At(int(t.EdgeStart(c))) != sym {
			c = t.NextSibling(c)
			ops++ // child-list scan cost grows with the branch factor
		}
		ops++
		if c == suffixtree.None {
			leaf := t.NewNode(w.pos+depth, n, w.pos)
			if err := t.AttachSorted(node, leaf); err != nil {
				panic(err)
			}
			return true, depth, ops
		}
		node, off = c, 1
		depth++
	}
	return false, depth, ops
}

// locate walks top-down from the root to the position covering string depth
// `depth` of the suffix at pos, returning the node, the symbols consumed on
// its edge (off == EdgeLen means the node boundary), and the node hops and
// child scans performed.
func locate(t *suffixtree.Tree, view seq.String, pos, depth int32) (int32, int32, int64) {
	u := t.Root()
	var uEnd int32
	var ops int64
	for uEnd < depth {
		sym := view.At(int(pos + uEnd))
		c := t.FirstChild(u)
		for c != suffixtree.None && view.At(int(t.EdgeStart(c))) != sym {
			c = t.NextSibling(c)
			ops++
		}
		ops++
		if c == suffixtree.None {
			// The tree does not extend this far yet: stop at the boundary.
			return u, t.EdgeLen(u), ops
		}
		el := t.EdgeLen(c)
		if uEnd+el >= depth {
			return c, depth - uEnd, ops
		}
		u = c
		uEnd += el
	}
	return u, t.EdgeLen(u), ops
}
