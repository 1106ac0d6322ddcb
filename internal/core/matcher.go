package core

import (
	"era/internal/alphabet"
)

// This file implements the hash-free window matchers used by the
// construction hot paths.
//
// The vertical partitioning's fixed-length span scan (scanCountDenseChunk)
// keeps the length-k window as a packed integer of symbol rank codes, rolled
// forward by one shift-or per position, and counts it with a single
// increment into a dense direct-indexed table. CollectWithFill's
// variable-length, prefix-free label sets resolve through a shortest-match
// code trie over the alphabet's packed codes (alphabet.CodeTable): one dense
// child-array index per symbol, stopping at the first mark — the trie is a
// few kilobytes, so probes stay in cache regardless of label length and
// needs no fallback. The map-based scans remain, scanCountMap in vertical.go
// and collectScanMap in era.go — the first as the fallback for vertical
// windows too wide to index densely, both as the references the equivalence
// tests compare the hash-free paths against.
//
// All sim.Clock accounting (window probes, captured symbols) is charged
// exactly as in the map-based code, so virtual times and Stats counters are
// byte-identical whichever path runs.

// maxVertTableBits caps the vertical scan's dense table at 2^20 count
// entries (8 MiB); wider windows fall back to the map path. In the paper's
// regimes the refinement depth keeps k·bits far below this.
const maxVertTableBits = 20

// denseSizeFor returns the count-table size for a w-symbol window of
// bits-wide codes, or -1 when a dense table would be too large to index or
// to clear profitably: clearing is a memset of the whole table, so the
// table may not dwarf the n probes a scan of S performs.
func denseSizeFor(bits uint, w, n int) int {
	tb := uint(w) * bits
	if tb > maxVertTableBits {
		return -1
	}
	size := 1 << tb
	if size > 64*n+1024 {
		return -1
	}
	return size
}

// rankBits returns the bits needed to index size distinct symbols.
func rankBits(size int) uint {
	bits := uint(1)
	for 1<<bits < size {
		bits++
	}
	return bits
}

// vertCounter counts fixed-length windows for vertical partitioning. Window
// codes pack the symbols' alphabet ranks — not the terminator-inclusive
// packed codes — because no counted window can contain the terminator
// (window starts are bounded by n-k), and the denser code keeps the count
// table cache-resident for deeper refinement rounds. One instance serves
// all rounds of a worker's partitioning: the count table and the scan buffer
// grow once and are reused, so the per-round loop allocates nothing in the
// steady state.
type vertCounter struct {
	rcodes [256]int16 // symbol → alphabet rank, -1 if absent
	bits   uint       // bits per rank code
	counts []int64    // dense code → frequency, reused across rounds
	buf    []byte     // scan buffer, reused across rounds
}

func newVertCounter(a *alphabet.Alphabet) *vertCounter {
	vc := &vertCounter{bits: rankBits(a.Size())}
	for i := range vc.rcodes {
		vc.rcodes[i] = -1
	}
	for r, s := range a.Symbols() {
		vc.rcodes[s] = int16(r)
	}
	return vc
}

// table returns the cleared dense count table for length-k windows, or nil
// when k is too wide to index densely.
func (vc *vertCounter) table(k, n int) []int64 {
	size := denseSizeFor(vc.bits, k, n)
	if size < 0 {
		return nil
	}
	if cap(vc.counts) < size {
		vc.counts = make([]int64, size)
	}
	t := vc.counts[:size]
	clear(t)
	return t
}

// scanBuf returns the reusable scan buffer of at least size bytes.
func (vc *vertCounter) scanBuf(size int) []byte {
	if cap(vc.buf) < size {
		vc.buf = make([]byte, size)
	}
	return vc.buf[:size]
}

// packRanks folds a label into its rank-code window code (first symbol most
// significant, matching the rolling shift-or of scanCountDenseChunk).
func packRanks(vc *vertCounter, label []byte) int {
	code := 0
	for _, b := range label {
		code = code<<vc.bits | int(vc.rcodes[b])
	}
	return code
}

// collectMatcher is the shortest-match code trie for one group's
// variable-length, prefix-free label set, with its first rootLen levels
// collapsed into one dense root table: the scan maintains the rolling
// packed code of the next rootLen symbols (one shift-or per position, like
// the vertical counter) and resolves most positions with a single probe,
// walking per-symbol child blocks only for the labels longer than rootLen.
// Slot values are 0 (absent), a positive child-block offset, or
// -(prefix index + 1) marking a label end. Prefix-freeness puts at most one
// mark on any root path, so a walk stops at the first mark — the shortest
// (and only) label matching there. Symbol codes are the alphabet's packed
// codes (terminator included), so the p$ labels resolve like any other.
type collectMatcher struct {
	codes   *[256]int16
	bits    uint
	stride  int32   // child slots per deep node: 1 << bits
	rootLen int     // symbols folded into the root table
	root    []int32 // dense table over rootLen-symbol codes
	trie    []int32 // deep child blocks; offsets are indexes into trie
	maxLen  int
	// Probe accounting mirrors of the reference's length-by-length loop:
	// fitCount[a] counts the labels' distinct lengths ≤ a, and
	// probesByLen[l] is 1 + the rank of l among those lengths.
	fitCount    []int32 // indexed by available window width, 0..maxLen
	probesByLen []int32 // indexed by matched label length, 0..maxLen
}

// maxRootBits caps the collapsed root table at 2^16 entries (256 KiB), the
// point up to which it stays cache-resident.
const maxRootBits = 16

// newCollectMatcher builds the trie for a group. lengths is the sorted set
// of distinct label lengths (ascending), maxLen its maximum. A non-nil m is
// a recycled instance whose root table, trie blocks and accounting arrays
// are reused (cleared, grown only when a group outsizes every predecessor)
// — the per-group matcher allocation the build context pools away; nil
// allocates fresh with identical behavior.
func newCollectMatcher(m *collectMatcher, a *alphabet.Alphabet, g Group, lengths []int, maxLen int) *collectMatcher {
	if m == nil {
		m = new(collectMatcher)
	}
	m.codes = a.CodeTable()
	m.bits = a.Bits()
	m.stride = 1 << a.Bits()
	m.maxLen = maxLen
	// Fold the shortest label length into the root while the table stays
	// cache-sized; no label is shorter, so every mark sits at or below it.
	m.rootLen = lengths[0]
	for m.rootLen > 1 && uint(m.rootLen)*m.bits > maxRootBits {
		m.rootLen--
	}
	m.root = growClearI32(m.root, 1<<(uint(m.rootLen)*m.bits))
	m.trie = m.trie[:0]

	for i, p := range g.Prefixes {
		idx := int32(packLabel(m.codes, m.bits, p.Label[:m.rootLen]))
		if len(p.Label) == m.rootLen {
			m.root[idx] = -int32(i) - 1
			continue
		}
		node := m.root[idx]
		if node == 0 {
			node = m.newBlock()
			m.root[idx] = node
		}
		rest := p.Label[m.rootLen:]
		for d, b := range rest {
			slot := node + int32(m.codes[b])
			if d == len(rest)-1 {
				m.trie[slot] = -int32(i) - 1
				break
			}
			child := m.trie[slot]
			if child == 0 {
				child = m.newBlock()
				m.trie[slot] = child
			}
			node = child
		}
	}
	m.fitCount = growClearI32(m.fitCount, maxLen+1)
	m.probesByLen = growClearI32(m.probesByLen, maxLen+1)
	rank := int32(0)
	li := 0
	for w := 1; w <= maxLen; w++ {
		if li < len(lengths) && lengths[li] == w {
			rank++
			li++
			m.probesByLen[w] = rank
		}
		m.fitCount[w] = rank
	}
	return m
}

// newBlock appends a zeroed child block and returns its offset. Slot 0 of
// the trie is a sentinel so that offset 0 always means "absent". Recycled
// matchers keep the trie's capacity across groups, so the appends below
// allocate only when a group's label set outgrows every previous one.
func (m *collectMatcher) newBlock() int32 {
	if len(m.trie) == 0 {
		if cap(m.trie) == 0 {
			m.trie = make([]int32, 1, 1+8*int(m.stride)) // slot 0 is a sentinel
		} else {
			m.trie = append(m.trie[:0], 0)
		}
	}
	off := int32(len(m.trie))
	for s := int32(0); s < m.stride; s++ {
		m.trie = append(m.trie, 0)
	}
	return off
}

// growClearI32 returns a zeroed int32 slice of length n backed by s's
// capacity when it suffices.
func growClearI32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// packLabel folds a label into its packed window code (first symbol most
// significant, so extending a window by one symbol is a shift-or).
func packLabel(codes *[256]int16, bits uint, label []byte) int {
	code := 0
	for _, b := range label {
		code = code<<bits | int(codes[b])
	}
	return code
}
