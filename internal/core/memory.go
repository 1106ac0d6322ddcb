// Package core implements ERA (Elastic Range), the paper's suffix tree
// construction algorithm: vertical partitioning of the tree into
// memory-bounded sub-trees grouped into virtual trees (§4.1), horizontal
// level-by-level sub-tree construction with the elastic range (§4.2, §4.4),
// batch tree materialization, and one build pipeline — vertical
// partitioning, a cost-sorted group queue drained by one context per worker,
// assembly — behind three entry points: serial, shared-memory parallel and
// shared-nothing parallel (§5).
package core

import (
	"fmt"

	"era/internal/suffixtree"
)

// MemoryLayout is the division of the memory budget from §4.4 (Fig. 6):
// a retrieved-data area (input buffer BS, next-symbols buffer R, trie), a
// processing area (arrays L, B — with I, A, P overlapping the tree area),
// and the suffix-tree area MTS, from which the maximum sub-tree frequency
// FM follows (Eq. 1). Here L and B are the sub-tree's windows of the suffix
// array and its LCP array, a flat build's output (entryBytes lists what a
// worker holds per leaf).
type MemoryLayout struct {
	Budget   int64 // total bytes available
	RSize    int64 // next-symbols buffer R
	InputBuf int64 // string input buffer BS
	TrieArea int64 // top trie connecting sub-trees
	TreeArea int64 // MTS: sub-tree area (≈60% of what remains)
	ProcArea int64 // processing area (L and B; P, I, area and R's slots)
	FM       int64 // max leaves per virtual tree: MTS / (2·NodeSize)
}

// AccountedNodeSize is the per-node byte cost used for memory accounting
// (Eq. 1). The paper's tree occupies 26 bytes per suffix — 67 GB for the
// 2.6 Gsym genome — i.e. 13 bytes per node with the internal:leaf ratio of
// 1:1 (§4.1). The Go node struct is larger (suffixtree.NodeSize), but the
// partitioning arithmetic follows the paper's constant so group counts and
// scan counts match the evaluation's regime.
const AccountedNodeSize = 13

// entryBytes is the accounted per-leaf cost of the processing arrays
// (L, B and the overlapped I, A, P are Θ(1) words per leaf; L+B alone are
// "almost 40% of the available memory" in the paper's accounting). It stays
// the paper's constant, so group and scan counts match the evaluation's;
// what a worker holds per leaf is L and LCP (4 B each, the windows of the
// suffix order), P, I and the R slot (4 B each), an area flag (1 B) and a
// schedule position (4 B per active leaf) — see TestPrepareWorkingSetPerLeaf.
const entryBytes = 13

// PlanMemory computes the §4.4 allocation for a budget. rSize == 0 selects a
// default relative to the budget: budget/32 when alphaBits ≤ 2 and budget/4
// otherwise. The split follows the paper's tuned defaults — the Fig. 8
// experiments pick R = 32 MB for 2-bit DNA and 256 MB for protein/English
// under a 1 GB budget — but alphaBits is the packed width with the
// terminator's code (alphabet.Alphabet.Bits), 3 for DNA, so every
// predefined alphabet, DNA included, gets budget/4.
func PlanMemory(budget int64, rSize int64, alphaBits uint) (MemoryLayout, error) {
	if budget < 1024 {
		return MemoryLayout{}, fmt.Errorf("core: memory budget %d bytes is too small", budget)
	}
	if rSize == 0 {
		if alphaBits <= 2 {
			rSize = budget / 32
		} else {
			rSize = budget / 4
		}
	}
	if rSize >= budget/2 {
		return MemoryLayout{}, fmt.Errorf("core: R size %d leaves no room in budget %d", rSize, budget)
	}
	l := MemoryLayout{
		Budget:   budget,
		RSize:    rSize,
		InputBuf: max64(budget/1024, 512),    // paper: 1 MB of 1 GB
		TrieArea: max64(3*budget/1024, 1024), // paper: 3 MB of 1 GB
	}
	rest := budget - l.RSize - l.InputBuf - l.TrieArea
	if rest < 4*suffixtree.NodeSize {
		return MemoryLayout{}, fmt.Errorf("core: budget %d exhausted by buffers", budget)
	}
	l.TreeArea = rest * 60 / 100
	l.ProcArea = rest - l.TreeArea
	l.FM = l.TreeArea / (2 * AccountedNodeSize)
	if l.FM < 1 {
		return MemoryLayout{}, fmt.Errorf("core: tree area %d too small for any sub-tree", l.TreeArea)
	}
	// The processing arrays bound the leaves too; keep FM consistent with
	// both areas so neither overflows.
	if byProc := l.ProcArea / entryBytes; byProc < l.FM {
		l.FM = byProc
	}
	if l.FM < 1 {
		return MemoryLayout{}, fmt.Errorf("core: processing area %d too small for any sub-tree", l.ProcArea)
	}
	return l, nil
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
