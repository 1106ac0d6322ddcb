package era

import (
	"bytes"
	"context"
	"sort"
	"sync/atomic"

	"era/internal/alphabet"
)

// This file is the live index's executor: the immutable, reference-counted
// snapshot that answers batch — contains, count, occurrences and
// doc-occurrences are one-op batches, the last cut at the live documents'
// ends (docHits) — and the analytics ops (analytics_live.go) over a sequence
// of tiers, each an ordinary Index over a contiguous run of documents, by
// fan-out → stitch → merge (lrs, topk and lcs excepted: they read a suffix
// array of the bytes they need, the virtual string or the two documents). A
// LiveIndex (live.go) publishes a fresh snapshot per mutation, described by
// one table: the runs of consecutive live documents (run). The runs lay out
// the virtual global string of live documents, map each tier's tree answers
// onto it, and mark where the stitch must look — between two runs, and inside
// the runs no tree indexes. (A ShardedIndex cuts the suffix order instead of
// the documents, so its shards need no stitch: shard.go.)
//
// The model: a live corpus is a sequence of documents identified by stable,
// monotonically increasing ids. Documents live in tiers, each an ordinary
// Index over a contiguous run of ids, followed by the unsealed memtable
// extents, which have no index at all: their live bytes are unindexed runs of
// the virtual string, answered by the stitch scan in place (stitch, below).
// Deletes are per-document tombstones. The query surface must answer exactly
// as a from-scratch BuildCorpus over the surviving documents (in id order)
// would. Over clean tiers that is plain document-aligned partitioning;
// tombstones add two wrinkles:
//
//   - A tombstoned document leaves its bytes in the tier (rebuilding the
//     tier per delete would be re-derivation, the very cost this subsystem
//     exists to avoid), so tier answers are filtered: a match is valid only
//     when it starts in a run of live documents and ends inside it.
//   - Live documents adjacent in the virtual string may sit in different
//     tiers or be separated by tombstones within one tier — in different
//     runs either way — so matches crossing those junctions are recovered
//     by the stitch scan over the junction windows.

// tierHandle owns the lifecycle of one tier's Index. Snapshots sharing a
// tier each hold a reference; the mutator holds one while the tier is part
// of the current state. The last release closes the index — for a sealed v4
// tier that unmaps its file, which is what keeps a compaction loop's mapped
// memory bounded regardless of how slowly old snapshots drain.
type tierHandle struct {
	idx  *Index
	file string // tier file base name within the live directory; "" for heap tiers
	refs atomic.Int64
}

func newTierHandle(idx *Index, file string) *tierHandle {
	h := &tierHandle{idx: idx, file: file}
	h.refs.Store(1) // the mutator's own reference
	return h
}

func (h *tierHandle) acquire() { h.refs.Add(1) }

// release drops one reference; the holder of the last one closes the index.
// Exactly one goroutine observes the drop to zero, so the close runs once.
// A munmap failure here has no caller to report to; Close is idempotent, so
// LiveIndex.Close backstops nothing — by then every tier has drained.
func (h *tierHandle) release() {
	if h.refs.Add(-1) == 0 {
		h.idx.Close()
	}
}

// tierState is the mutator-side record of one tier: its documents, their
// stable ids and tombstone flags (mutated only under LiveIndex.mu), and the
// handle of the Index built over them. A memtable extent is a tierState with
// no handle: nothing indexes its bytes, so a snapshot serves them as
// unindexed runs of the virtual string. Only an extent ever grows, and only
// by appending — bytes a snapshot already views never change.
type tierState struct {
	h       *tierHandle // nil until sealed
	data    []byte      // the documents, concatenated without separators
	docEnds []int32     // exclusive end offset per document in data
	ids     []uint64    // ascending; tiers hold disjoint ascending id ranges
	dead    []bool
	nDead   int
}

// sealedTier wraps a built (or reopened) tier Index as a tierState owning it.
func sealedTier(idx *Index, file string, ids []uint64, dead []bool, nDead int) *tierState {
	return &tierState{h: newTierHandle(idx, file), data: idx.data, docEnds: idx.docEnds, ids: ids, dead: dead, nDead: nDead}
}

// sizes sums the bytes of the tier's documents (a sealed tier's data also
// holds its terminator), and of its surviving ones. Caller holds
// LiveIndex.mu.
func (t *tierState) sizes() (total, live int) {
	start := int32(0)
	for d, end := range t.docEnds {
		if !t.dead[d] {
			live += int(end - start)
		}
		start = end
	}
	return int(start), live
}

// liveTier is an indexed tier as one snapshot sees it: the handle, the
// tombstone count, the global offset of the tier's first byte and the
// tier's window of the snapshot's runs — its live stretches, which are all
// that maps tier-local answers onto the virtual global string. Immutable
// once the snapshot is built.
type liveTier struct {
	h     *tierHandle
	nDead int
	off   int
	runs  []run
}

// translate filters tier-local occurrence offsets (ascending) of an m-byte
// pattern down to the matches valid in the live view and maps them to global
// offsets: a match is valid iff it starts in one of the tier's runs and ends
// inside it, so it never reaches into a tombstoned document or the tier's own
// terminator. The output is ascending: the local→global map is strictly
// increasing over live content. max > 0 caps the output length.
func (t *liveTier) translate(occ []int, m, max int) []int {
	out := make([]int, 0, len(occ))
	runs := t.runs
	for _, o := range occ {
		// The first run ending after o; occ is ascending, so runs only advance.
		for len(runs) > 0 && runs[0].Local+len(runs[0].Data) <= o {
			runs = runs[1:]
		}
		if len(runs) == 0 {
			break
		}
		if r := &runs[0]; o >= r.Local && o+m <= r.Local+len(r.Data) {
			out = append(out, r.Off+(o-r.Local))
			if max > 0 && len(out) == max {
				break
			}
		}
	}
	return out
}

// shift is what makes the offsets in the tier's answers global (part.Off): a
// clean tier's local→global map is one constant shift, and a tombstoned
// tier's answers went through translate and are global already.
func (t *liveTier) shift() int {
	if t.nDead == 0 {
		return t.off
	}
	return 0
}

// liveSnapshot is the immutable query view of a LiveIndex at one mutation
// epoch. Queries acquire a reference, read, and release; the mutator swaps
// in a new snapshot per mutation and releases its ownership of the old one.
// When the last reference drains, the snapshot releases its tier handles —
// so a compacted-away tier unmaps exactly when the slowest query still
// reading it finishes, in any drain order.
type liveSnapshot struct {
	tiers []*liveTier // the indexed tiers; memtable extents appear only in segs
	// segs are the maximal runs of consecutive live documents, each viewing
	// its tier's data in place: the units the virtual global string is
	// assembled from, the tiers' translation tables and the stitch's
	// junctions. Zero-width runs (all-empty documents) are omitted.
	segs []run
	// docStart[ord] is the global offset of live document ord's first byte;
	// docStart[numDocs] closes the last one.
	docStart  []int
	totalLen  int // live content bytes + the single virtual terminator
	numDocs   int // live documents
	alpha     *alphabet.Alphabet
	treeNodes int64
	mapped    int64
	stitch    stitch
	lx        *LiveIndex                // the index that published it: its sort slot
	order     atomic.Pointer[textOrder] // the suffix order, once lrs / topk sorted it
	refs      atomic.Int64
}

// newLiveSnapshot derives the query view over the given tier states,
// acquiring one reference on every included tier handle. Unsealed states
// (no handle) must follow the sealed ones — document hits concatenate in that
// order — and contribute runs and document offsets but no tier: their runs
// are the stitch string's unindexed ones. The caller must hold the LiveIndex
// mutex (it reads mutator state).
func newLiveSnapshot(states []*tierState, alpha *alphabet.Alphabet) *liveSnapshot {
	s := &liveSnapshot{alpha: alpha}
	s.refs.Store(1) // the owner (current-snapshot) reference
	// Tombstones separate runs, so a state holds at most nDead+1 of them:
	// with both slices sized up front, neither regrows, and each tier's
	// window of segs stays a view of the final array.
	live, runs := 0, 0
	for _, st := range states {
		live += len(st.docEnds) - st.nDead
		runs += st.nDead + 1
	}
	s.docStart = make([]int, 0, live+1)
	s.segs = make([]run, 0, runs)
	off := 0
	for _, st := range states {
		first, tierOff, indexed := len(s.segs), off, st.h != nil
		// [runLo, start) is the current run of live documents, opened at
		// global offset runOff; endRun closes it into a segment.
		runLo, runOff, start := -1, 0, 0
		endRun := func() {
			if runLo >= 0 && start > runLo {
				s.segs = append(s.segs, run{Off: runOff, Local: runLo, Data: st.data[runLo:start], Indexed: indexed})
			}
			runLo = -1
		}
		for d, e := range st.docEnds {
			end := int(e)
			if st.dead[d] {
				endRun()
			} else {
				if runLo < 0 {
					runLo, runOff = start, off
				}
				s.docStart = append(s.docStart, off)
				off += end - start
			}
			start = end
		}
		endRun()
		if !indexed {
			continue
		}
		st.h.acquire()
		s.tiers = append(s.tiers, &liveTier{h: st.h, nDead: st.nDead, off: tierOff, runs: s.segs[first:]})
		s.treeNodes += st.h.idx.TreeNodes()
		s.mapped += st.h.idx.MappedBytes()
	}
	s.numDocs = len(s.docStart)
	s.docStart = append(s.docStart, off)
	s.totalLen = off + 1
	s.stitch = stitch{totalLen: s.totalLen, segs: s.segs}
	return s
}

// acquire takes a read reference; it fails (returns false) once the
// snapshot has been retired and drained — the caller reloads the current
// snapshot pointer and retries. The zero count is terminal, so a drained
// snapshot can never be resurrected after its tiers were released.
func (s *liveSnapshot) acquire() bool {
	for {
		r := s.refs.Load()
		if r <= 0 {
			return false
		}
		if s.refs.CompareAndSwap(r, r+1) {
			return true
		}
	}
}

// release drops one reference; the last one releases the tier handles.
func (s *liveSnapshot) release() {
	if s.refs.Add(-1) == 0 {
		for _, t := range s.tiers {
			t.h.release()
		}
	}
}

// tailMatch resolves patterns containing the terminator byte. The virtual
// string holds exactly one '$', at its very end, so such a pattern can match
// only with '$' as its last byte, at offset totalLen−|P| — the tier trees
// must never see it (each would report phantom matches against its own local
// terminator). Returns the global offset of the single match, or -1.
func (s *liveSnapshot) tailMatch(p []byte) int {
	if p[len(p)-1] != alphabet.Terminator || len(p) > s.totalLen {
		return -1
	}
	if bytes.IndexByte(p[:len(p)-1], alphabet.Terminator) >= 0 {
		return -1
	}
	off := s.totalLen - len(p)
	if !bytes.Equal(s.stitch.slice(nil, off, s.totalLen), p) {
		return -1
	}
	return off
}

// batch answers many queries over one snapshot: every tier serves the whole
// op list as one sub-batch (reusing Index.Batch's prefix-resumed descents),
// tier sub-batches run concurrently, and per-op answers merge (stitch.merge)
// identically to the monolithic index, occurrence order and truncation
// included. Tiers with tombstones answer through full
// occurrence enumeration plus translate, so their counts and lists reflect
// only live matches.
func (s *liveSnapshot) batch(ops []Op) []Result {
	results := make([]Result, len(ops))
	if len(ops) == 0 {
		return results
	}

	// Empty and terminator-bearing patterns resolve directly against the
	// virtual string, never through the tier trees; analytics plans dispatch
	// through the snapshot executor.
	const (
		opNormal = uint8(iota)
		opEmpty
		opTerm
		opAnalytic
	)
	class := make([]uint8, len(ops))
	for i, op := range ops {
		switch {
		case op.Kind.IsAnalytic():
			class[i] = opAnalytic
		case len(op.Pattern) == 0:
			class[i] = opEmpty
		case bytes.IndexByte(op.Pattern, alphabet.Terminator) >= 0:
			class[i] = opTerm
		}
	}

	// Clean tiers all run one op list: the caller's own, or — when specials
	// exist — a single copy with placeholders the trees answer trivially (the
	// merge below never reads a special's per-tier result).
	clean, copied := ops, false
	for j := range ops {
		if class[j] == opNormal {
			continue
		}
		if !copied {
			clean, copied = append([]Op(nil), ops...), true
		}
		clean[j] = Op{Kind: OpContains}
	}

	perTier := make([][]Result, len(s.tiers))
	fanOut(len(s.tiers), func(i int) {
		t := s.tiers[i]
		if t.nDead == 0 {
			perTier[i] = t.h.idx.Batch(clean)
			return
		}
		// Tombstoned tiers need every occurrence to filter.
		sub := make([]Op, len(ops))
		for j, op := range clean {
			sub[j] = op
			if class[j] == opNormal {
				sub[j] = Op{Kind: OpOccurrences, Pattern: op.Pattern}
			}
		}
		res := t.h.idx.Batch(sub)
		for j := range res {
			if class[j] != opNormal {
				continue
			}
			max := 0
			if ops[j].Kind == OpContains {
				max = 1
			}
			tr := t.translate(res[j].Occurrences, len(ops[j].Pattern), max)
			res[j] = Result{Found: len(tr) > 0, Count: len(tr), Occurrences: tr}
		}
		perTier[i] = res
	})

	parts := make([]part, len(s.tiers))
	for oi := range ops {
		op := &ops[oi]
		r := &results[oi]
		switch class[oi] {
		case opAnalytic:
			// Same snapshot, so the whole batch sees one mutation epoch; a
			// malformed plan leaves the zero Answer.
			if a, err := s.analytics(context.Background(), *op); err == nil {
				results[oi] = a
			}
			continue
		case opEmpty:
			// The monolithic tree resolves the empty pattern at the root:
			// found, with every suffix (terminator included) below it.
			r.Found = true
			if op.Kind == OpContains {
				continue
			}
			r.Count = s.totalLen
			if op.Kind == OpOccurrences {
				n := s.totalLen
				if op.MaxOccurrences > 0 && n > op.MaxOccurrences {
					n = op.MaxOccurrences
				}
				r.Occurrences = make([]int, n)
				for i := range r.Occurrences {
					r.Occurrences[i] = i
				}
			}
			continue
		case opTerm:
			off := s.tailMatch(op.Pattern)
			if off < 0 {
				continue // the zero Result: not found
			}
			r.Found = true
			if op.Kind == OpContains {
				continue
			}
			r.Count = 1
			if op.Kind == OpOccurrences {
				r.Occurrences = []int{off}
			}
			continue
		}
		// Per-tier batch results carry tier-local offsets over shared backing
		// arrays; the merge reads them and writes a fresh list.
		for i, t := range s.tiers {
			a := &perTier[i][oi]
			parts[i] = part{Off: t.shift(), Found: a.Found, Count: a.Count, Occurrences: a.Occurrences}
		}
		*r = s.stitch.merge(*op, parts)
	}
	return results
}

// docBytes returns the raw content of the live document with ordinal ord
// (which must be in range), viewed in place: documents never straddle a
// segment.
func (s *liveSnapshot) docBytes(ord int) []byte {
	lo, hi := s.docStart[ord], s.docStart[ord+1]
	if lo == hi {
		return nil // empty documents sit in no segment
	}
	seg := &s.segs[sort.Search(len(s.segs), func(j int) bool { return s.segs[j].Off > lo })-1]
	return seg.Data[lo-seg.Off : hi-seg.Off]
}

// liveDocs returns the surviving documents in id order; the slices view tier
// data, so the caller must hold the snapshot reference while using them.
func (s *liveSnapshot) liveDocs() [][]byte {
	docs := make([][]byte, s.numDocs)
	for ord := range docs {
		docs[ord] = s.docBytes(ord)
	}
	return docs
}

// stitch is the virtual global string a live snapshot serves, reduced to
// what merging per-tier answers needs: totalLen counts the concatenated live
// content plus the single terminator, and segs are the snapshot's runs, which
// slice reads any [lo, hi) window of the string from. Every run after the
// first opens at a junction no single tier tree sees across, and the runs no
// tree indexes at all (the unsealed documents) are scanned in place by the
// pass that recovers junction-crossing matches (eachRegion).
type stitch struct {
	totalLen int
	segs     []run
}

// slice copies the bytes [lo, hi) of the virtual global string — the
// live documents concatenated in id order, with the single terminator at the
// end — into buf, walking whole segments rather than one byte at a time.
func (ss *stitch) slice(buf []byte, lo, hi int) []byte {
	buf = buf[:0]
	end := hi
	if end == ss.totalLen {
		end-- // the terminator is appended below, not stored in any tier
	}
	i := sort.Search(len(ss.segs), func(j int) bool { return ss.segs[j].Off > lo }) - 1
	for off := lo; off < end; i++ {
		seg := &ss.segs[i]
		content := seg.Data
		from := off - seg.Off
		take := len(content) - from
		if off+take > end {
			take = end - off
		}
		buf = append(buf, content[from:from+take]...)
		off += take
	}
	if hi == ss.totalLen {
		buf = append(buf, alphabet.Terminator)
	}
	return buf
}

// run is a stretch of the virtual string viewed in place: Data starts at
// global offset Off, and at offset Local of the data of the tier or memtable
// extent it lies in. Indexed reports whether that tier's tree indexes it.
type run struct {
	Off     int
	Local   int
	Data    []byte
	Indexed bool
}

// part is one tier's own answer to an op, handed to merge: offsets are local
// to the tier's first byte, which sits at global offset Off.
type part struct {
	Off         int
	Found       bool
	Count       int
	Occurrences []int // ascending; capped no tighter than the op's own cap
}

// merge folds the tiers' answers to one contains / count / occurrences /
// mismatch op (parts in ascending Off order) into the answer over the virtual
// string, adding what no tier can see: the matches the stitch scan finds
// across junctions and in unindexed runs (Hamming matches for mismatch).
// Found if anyone found it, counts sum, offsets interleave ascending under the
// op's cap; nothing found is the zero Result.
func (ss *stitch) merge(op Op, parts []part) Result {
	var res Result
	for i := range parts {
		res.Found = res.Found || parts[i].Found
		res.Count += parts[i].Count
	}
	var crossing []int
	switch op.Kind {
	case OpContains:
		return Result{Found: res.Found || len(ss.crossingOccurrences(op.Pattern, 1)) > 0}
	case OpMismatch:
		ss.crossingWindows(len(op.Pattern), func(start int, window []byte) {
			if hammingAtMost(window, op.Pattern, op.K) {
				crossing = append(crossing, start)
			}
		})
	default:
		crossing = ss.crossingOccurrences(op.Pattern, 0)
	}
	res.Count += len(crossing)
	res.Found = res.Count > 0
	if res.Found && op.Kind != OpCount {
		res.Occurrences = mergeOccurrences(parts, crossing, op.MaxOccurrences)
	}
	return res
}

// eachMatch calls fn with the start of every occurrence of pattern in data
// (overlapping ones included), ascending, until fn returns false.
func eachMatch(data, pattern []byte, fn func(j int) bool) {
	for j := 0; j < len(data); j++ {
		rel := bytes.Index(data[j:], pattern)
		if rel < 0 {
			return
		}
		j += rel
		if !fn(j) {
			return
		}
	}
}

// eachRegion visits, in ascending order, every stretch of the virtual string
// in which a length-m match or window no per-segment tree can see may start:
// the stitch window around each junction (each run's start but the first's) —
// one ≤ 2(m−1)-byte slice, materialized once, no per-byte segment lookups —
// and each unindexed run, in place. fn receives the stretch's global offset,
// its bytes, and the range [from, limit) of starts that belong to it; whether
// start+m still fits in the bytes is the caller's check. At a junction only
// starts before it cross it (they always end after it), and starts an earlier
// junction already covered are skipped, so a match spanning several tiny
// segments is seen once. end clips the windows: totalLen, or totalLen−1 to
// keep the terminator out. fn returning false ends the visit.
func (ss *stitch) eachRegion(m, end int, fn func(off int, data []byte, from, limit int) bool) {
	var win []byte
	next := 0 // first start not yet covered by a junction
	for i := range ss.segs {
		seg := &ss.segs[i]
		if b := seg.Off; i > 0 && m >= 2 { // one byte crosses nothing
			winLo := max(b-m+1, 0)
			win = ss.slice(win, winLo, min(b+m-1, end))
			if !fn(winLo, win, max(next-winLo, 0), b-winLo) {
				return
			}
			next = b
		}
		if !seg.Indexed && !fn(seg.Off, seg.Data, 0, len(seg.Data)) {
			return
		}
	}
}

// crossingOccurrences returns the sorted global start offsets of the pattern
// occurrences no per-segment tree can see: those that cross a junction and
// those inside an unindexed run. max > 0 caps the number returned.
func (ss *stitch) crossingOccurrences(pattern []byte, max int) []int {
	var out []int
	more := func() bool { return max <= 0 || len(out) < max }
	ss.eachRegion(len(pattern), ss.totalLen, func(off int, data []byte, from, limit int) bool {
		eachMatch(data[from:], pattern, func(j int) bool {
			if from+j >= limit {
				return false
			}
			out = append(out, off+from+j)
			return more()
		})
		return more()
	})
	return out
}

// mergeOccurrences merges the parts' occurrence lists (each sorted and local
// to its part; the parts cover disjoint ascending byte ranges) with the sorted
// global crossing list into a fresh list of global offsets: the k-way merge
// degenerates to a concatenation plus one interleave pass. max > 0 caps the
// output length.
func mergeOccurrences(parts []part, crossing []int, max int) []int {
	n := len(crossing)
	for i := range parts {
		n += len(parts[i].Occurrences)
	}
	if max > 0 && n > max {
		n = max
	}
	out := make([]int, 0, n)
	ci := 0
	for i := range parts {
		for _, o := range parts[i].Occurrences {
			o += parts[i].Off
			for ci < len(crossing) && crossing[ci] < o {
				out = append(out, crossing[ci])
				ci++
				if max > 0 && len(out) == max {
					return out
				}
			}
			out = append(out, o)
			if max > 0 && len(out) == max {
				return out
			}
		}
	}
	for ; ci < len(crossing); ci++ {
		out = append(out, crossing[ci])
		if max > 0 && len(out) == max {
			return out
		}
	}
	return out
}
