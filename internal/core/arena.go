package core

import (
	"encoding/binary"
	"math/bits"
)

// This file provides the allocation amortizers for the construction round
// loops: a grow-only byte arena for the prefix labels, the slot-addressed
// chunk buffer that is the paper's array R, and a binary min-heap that merges
// the per-sub-tree appearance-ordered fill runs into one sequential schedule
// — replacing the per-round sort.Slice over data that is already a k-way
// union of sorted runs.

// byteArena hands out sub-slices of large blocks. Slices stay valid after
// further grabs: growth chains a new block instead of moving old ones.
type byteArena struct {
	block []byte
	off   int
}

// arenaMinBlock is the smallest block the arena allocates.
const arenaMinBlock = 64 * 1024

// grab returns a zeroed slice of n bytes carved from the arena.
func (a *byteArena) grab(n int) []byte {
	if a.off+n > len(a.block) {
		size := 2 * len(a.block)
		if size < arenaMinBlock {
			size = arenaMinBlock
		}
		if size < n {
			size = n
		}
		a.block = make([]byte, size)
		a.off = 0
	}
	s := a.block[a.off : a.off+n : a.off+n]
	a.off += n
	return s
}

// chunkBuf is array R of one round (§4.2.2): every leaf's chunk of next
// symbols has the same width rng, so a chunk is an int32 slot into one
// buffer, stride rng, and no per-leaf slice header exists. A chunk clipped by
// the end of S is zero-padded to the stride; it ends at the unique
// terminator, so the padding can never decide a comparison between two
// chunks of a well-formed string.
//
// The first growth takes at least the bytes the memory plan grants R (plan).
// An elastic round's slots·rng never exceeds them, so after it only a round
// the plan does not bound — the collect round's singleton slots, a static
// range, the one-symbol floor — can grow the buffer again.
type chunkBuf struct {
	buf  []byte // slots·rng bytes, then keyBytes-1 of slack for the last key load
	rng  int
	plan int // R's bytes under the memory plan (see planFor)
}

// keyBytes is the number of leading symbols an area sort packs into one key.
const keyBytes = 8

// planFor sets the plan to rCap, the R of the memory plan, clipped to what
// active leaves can fetch from a string of n symbols — all of it each —
// so a small input is not handed the whole of R.
func (c *chunkBuf) planFor(rCap int64, active, n int) {
	c.plan = int(min(rCap, int64(active)*int64(n)))
}

// reset sizes the buffer for slots chunks of width rng, reusing the backing
// array when it is large enough. Prior contents are dead: the caller
// overwrites (or zero-pads) every slot it later reads.
func (c *chunkBuf) reset(slots, rng int) {
	need := slots*rng + keyBytes - 1
	if cap(c.buf) < need {
		c.buf = make([]byte, max(need, c.plan+keyBytes-1))
	}
	c.buf = c.buf[:need]
	c.rng = rng
}

// fill returns the first want bytes of the given slot as a fetch
// destination, zeroing the rest of the slot.
func (c *chunkBuf) fill(slot, want int) []byte {
	off := slot * c.rng
	clear(c.buf[off+want : off+c.rng])
	return c.buf[off : off+want : off+want]
}

// at returns symbol x of the chunk in slot.
func (c *chunkBuf) at(slot int32, x int) byte { return c.buf[int(slot)*c.rng+x] }

// key packs the symbols [depth, depth+keyBytes) of the chunk in slot
// big-endian, so integer order on keys is lexicographic order on those
// symbols; positions past the chunk width read as zero.
func (c *chunkBuf) key(slot int32, depth int) uint64 {
	k := binary.BigEndian.Uint64(c.buf[int(slot)*c.rng+depth:])
	if rem := c.rng - depth; rem < keyBytes {
		k &= ^uint64(0) << (8 * (keyBytes - rem))
	}
	return k
}

// lcp returns the length of the longest common prefix of the first w symbols
// of the chunks in slots a and b, eight symbols per step.
func (c *chunkBuf) lcp(a, b int32, w int) int {
	x, y := c.buf[int(a)*c.rng:], c.buf[int(b)*c.rng:]
	k := 0
	for ; k+8 <= w; k += 8 {
		if d := binary.LittleEndian.Uint64(x[k:]) ^ binary.LittleEndian.Uint64(y[k:]); d != 0 {
			return k + bits.TrailingZeros64(d)/8
		}
	}
	for ; k < w && x[k] == y[k]; k++ {
	}
	return k
}

// mergeHead is one source run in a k-way merge of fill schedules, keyed by
// string position. The payload identifies the source: for GroupPrepare, sub
// and the appearance rank a; for GroupBranch, sub, open-edge index a and
// occurrence index b within the edge.
type mergeHead struct {
	pos  int
	sub  int32
	a, b int32
}

// fillHeap is a binary min-heap of run heads ordered by pos. The caller owns
// the backing slice and reuses it across rounds.
type fillHeap []mergeHead

func (h fillHeap) init() {
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.siftDown(i)
	}
}

// replaceMin overwrites the minimum with its source's next element and
// restores heap order.
func (h fillHeap) replaceMin(m mergeHead) {
	h[0] = m
	h.siftDown(0)
}

// popMin removes the minimum (its source run is exhausted) and returns the
// shrunk heap.
func (h fillHeap) popMin() fillHeap {
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	if len(h) > 1 {
		h.siftDown(0)
	}
	return h
}

func (h fillHeap) siftDown(i int) {
	for {
		l := 2*i + 1
		if l >= len(h) {
			return
		}
		m := l
		if r := l + 1; r < len(h) && h[r].pos < h[l].pos {
			m = r
		}
		if h[i].pos <= h[m].pos {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}
