package era

import (
	"bytes"
	"context"
	"fmt"

	"era/internal/alphabet"
)

// This file implements document-aligned corpus sharding: one huge corpus is
// split at document boundaries into K shards, each built as an independent
// Index, and the full query API is answered by fanning out to the shards and
// merging. The ERA paper exists because one string can outgrow one machine
// (§1, §6); a ShardedIndex is the serving-side counterpart — it lets the
// query layer scale past what one suffix tree can hold, while staying
// answer-for-answer identical to the monolithic index over the same corpus.
//
// What lives here is the build (cuts, one alphabet, per-shard construction),
// the shard layout persistence addresses, the lifecycle, and the two pieces
// of the merge every partitioned layer — in-process and routed — shares:
// the junction stitch scan and the merge of per-partition answers
// (Stitch.Merge). The fan-out → stitch → merge executor itself is the
// snapshot executor in tombstone.go / analytics_live.go: a sharded index is
// its zero-tombstone case, one clean tier per shard, and every query method
// below is a delegation to that view.
//
// Identity with the monolithic index is exact, not approximate. Matches
// fully inside one shard are found by that shard's tree and translated to
// global offsets. Matches that cross a shard boundary — which exist in the
// monolithic concatenation, since documents are concatenated without
// separators — cannot be seen by any shard; they are recovered by a stitch
// scan over the (at most |P|−1 bytes wide) candidate window around each
// boundary against the virtual global string. Shard cuts are document
// aligned, so document-scoped answers (DocOccurrences) never need stitching:
// a boundary-crossing match is by construction a document-crossing match,
// which the generalized-suffix-tree discipline excludes anyway.

// Queryable is the query surface shared by Index and ShardedIndex: the
// engine in internal/server, the CLI and persistence address both through
// it. Like Index, implementations are immutable apart from SetName and safe
// for concurrent queries.
//
// MappedBytes/ResidentBytes/Close expose the open/close lifecycle of
// indexes backed by memory-mapped files: heap-resident indexes report 0
// mapped bytes and Close is a no-op, so callers can treat every Queryable
// uniformly. Close must only run once no queries are in flight.
type Queryable interface {
	Name() string
	SetName(name string)
	Alphabet() *alphabet.Alphabet
	Len() int
	NumDocs() int
	TreeNodes() int64
	Contains(pattern []byte) bool
	Count(pattern []byte) int
	Occurrences(pattern []byte) ([]int, error)
	DocOccurrences(pattern []byte) ([]DocHit, error)
	Analytics(ctx context.Context, q Query) (Answer, error)
	Batch(ops []Op) []Result
	WriteFile(path string) error
	MappedBytes() int64
	ResidentBytes() int64
	Close() error
}

var (
	_ Queryable = (*Index)(nil)
	_ Queryable = (*ShardedIndex)(nil)
)

// ShardedIndex is a corpus index split at document boundaries into shards,
// each an independent Index over a contiguous run of documents. Queries fan
// out to all shards concurrently and merge (through view); answers are
// byte-identical to the monolithic Index over the same corpus. Build with
// BuildShardedCorpus or reopen with OpenIndex.
type ShardedIndex struct {
	name   string
	shards []*Index
	mp     *mapping // non-nil when all shards view one mapped v4 file
	// view is the partitioned executor (tombstone.go) over the shards: one
	// clean tier per shard. It is built once and never released — the shards'
	// lifecycle is sx.mp's, not the tier handles'.
	view *liveSnapshot
}

// ShardConfig tunes BuildShardedCorpus beyond the per-shard build Config.
type ShardConfig struct {
	// Shards is the number of document-aligned shards (capped at the
	// document count; default 4).
	Shards int
	// Build configures each shard's construction. nil is the zero Config:
	// each shard that fits the 64 MB default budget as a suffix array is
	// built in memory, a larger one by serial ERA; name a parallel Mode to
	// build every shard with that architecture (Config.MemoryBudget).
	Build *Config
}

// BuildShardedCorpus splits docs at document boundaries into cfg.Shards
// contiguous, greedily size-balanced runs and builds one Index per run
// (as cfg.Build says; the zero Config when it says nothing).
// The resulting ShardedIndex answers every query exactly as the monolithic
// BuildCorpus index over the same docs would.
func BuildShardedCorpus(docs [][]byte, cfg *ShardConfig) (*ShardedIndex, error) {
	if len(docs) == 0 {
		return nil, fmt.Errorf("era: empty corpus")
	}
	shards := 4
	var buildCfg Config
	if cfg != nil {
		if cfg.Shards != 0 {
			shards = cfg.Shards
		}
		if cfg.Build != nil {
			buildCfg = *cfg.Build
		}
	}
	if shards < 1 {
		return nil, fmt.Errorf("era: shard count %d < 1", shards)
	}
	if shards > len(docs) {
		shards = len(docs)
	}
	// The file format caps the shard count; clamping here keeps
	// every buildable index writable instead of failing after the build.
	if shards > maxV4Shards {
		shards = maxV4Shards
	}

	// One alphabet for every shard (and equal to what the monolithic build
	// would detect), or per-shard detection could disagree across cuts.
	if buildCfg.Alphabet == nil {
		var seen [256]bool
		for i, d := range docs {
			for _, b := range d {
				if b == alphabet.Terminator {
					return nil, fmt.Errorf("era: document %d contains the reserved terminator byte %q", i, alphabet.Terminator)
				}
				seen[b] = true
			}
		}
		alpha, err := alphabetFromSeen(&seen)
		if err != nil {
			return nil, err
		}
		buildCfg.Alphabet = alpha
	}

	sizes := make([]int, len(docs))
	for i, d := range docs {
		sizes[i] = len(d)
	}
	cuts := shardCuts(sizes, shards)

	built := make([]*Index, len(cuts))
	for i, c := range cuts {
		idx, err := build(docs[c[0]:c[1]], &buildCfg)
		if err != nil {
			return nil, fmt.Errorf("era: building shard %d (docs %d–%d): %w", i, c[0], c[1]-1, err)
		}
		built[i] = idx
	}
	return newShardedIndex("", built)
}

// shardCuts splits the document sizes into k contiguous runs, greedily
// balancing run byte sizes while leaving at least one document per
// remaining shard. k must be in [1, len(sizes)].
func shardCuts(sizes []int, k int) [][2]int {
	total := 0
	for _, s := range sizes {
		total += s
	}
	cuts := make([][2]int, 0, k)
	start, remaining := 0, total
	for s := 0; s < k; s++ {
		left := k - s
		if left == 1 {
			cuts = append(cuts, [2]int{start, len(sizes)})
			break
		}
		target := remaining / left
		end := start + 1
		acc := sizes[start]
		for end < len(sizes)-(left-1) {
			next := sizes[end]
			// Take the next document while it keeps the run at or closer to
			// the target than stopping would.
			if acc+next <= target || acc+next-target < target-acc {
				acc += next
				end++
			} else {
				break
			}
		}
		cuts = append(cuts, [2]int{start, end})
		remaining -= acc
		start = end
	}
	return cuts
}

// newShardedIndex validates that already-built shards form one coherent
// corpus and derives the query view over them.
func newShardedIndex(name string, shards []*Index) (*ShardedIndex, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("era: sharded index with zero shards")
	}
	alpha := shards[0].alpha
	states := make([]*tierState, len(shards))
	for i, sh := range shards {
		if sh.NumDocs() == 0 {
			return nil, fmt.Errorf("era: shard %d holds no documents", i)
		}
		if sh.alpha.Name() != alpha.Name() || !bytes.Equal(sh.alpha.Symbols(), alpha.Symbols()) {
			return nil, fmt.Errorf("era: shard %d alphabet %s differs from shard 0 alphabet %s", i, sh.alpha.Name(), alpha.Name())
		}
		states[i] = sealedTier(sh, "", nil, make([]bool, sh.NumDocs()), 0)
	}
	return &ShardedIndex{name: name, shards: shards, view: newLiveSnapshot(states, alpha)}, nil
}

// Name returns the corpus name (see Index.Name).
func (sx *ShardedIndex) Name() string { return sx.name }

// SetName labels the index; like Index.SetName it must not race other use.
func (sx *ShardedIndex) SetName(name string) { sx.name = name }

// Alphabet returns the alphabet shared by every shard.
func (sx *ShardedIndex) Alphabet() *alphabet.Alphabet { return sx.view.alpha }

// Len returns the indexed string length including the terminator, as the
// monolithic index over the same corpus would report it.
func (sx *ShardedIndex) Len() int { return sx.view.totalLen }

// NumDocs returns the total document count across shards.
func (sx *ShardedIndex) NumDocs() int { return sx.view.numDocs }

// NumShards returns the shard count.
func (sx *ShardedIndex) NumShards() int { return len(sx.shards) }

// Shard returns the i-th shard's index and the global index of its first
// document (shards hold contiguous document runs).
func (sx *ShardedIndex) Shard(i int) (*Index, int) { return sx.shards[i], sx.view.tiers[i].docBase }

// TreeNodes returns the summed node count of the shard trees (roots
// excluded). Sharding changes the tree decomposition, so this differs from
// the monolithic tree's count; it is reported for capacity accounting.
func (sx *ShardedIndex) TreeNodes() int64 { return sx.view.treeNodes }

// MappedBytes returns the size of the mapping shared by the shards, or 0
// when the shards are heap-resident.
func (sx *ShardedIndex) MappedBytes() int64 {
	if sx.mp == nil {
		return 0
	}
	return sx.mp.size()
}

// ResidentBytes reports the resident portion of the shared mapping (-1 when
// unknown, 0 for heap shards).
func (sx *ShardedIndex) ResidentBytes() int64 {
	if sx.mp == nil || !sx.mp.mapped {
		return 0
	}
	return residentBytes(sx.mp.bytes())
}

// Close releases the mapping shared by the shards (no-op for heap shards).
// Idempotent; see Index.Close for the no-in-flight-queries requirement.
func (sx *ShardedIndex) Close() error {
	if sx.mp == nil {
		return nil
	}
	return sx.mp.Close()
}

// Contains reports whether pattern occurs in the sharded corpus, exactly as
// the monolithic Index.Contains would (boundary-crossing matches included).
func (sx *ShardedIndex) Contains(pattern []byte) bool { return sx.view.contains(pattern) }

// Count returns the number of occurrences of pattern across the corpus,
// identical to the monolithic count (crossing matches included).
func (sx *ShardedIndex) Count(pattern []byte) int { return sx.view.count(pattern) }

// Occurrences returns the global start offsets of every occurrence of
// pattern, sorted ascending — byte-identical to the monolithic index. A
// corrupt shard surfaces ErrCorruptIndex instead of a silently short list.
func (sx *ShardedIndex) Occurrences(pattern []byte) ([]int, error) {
	if err := sx.CheckErr(); err != nil {
		return nil, err
	}
	return sx.view.occurrences(pattern), nil
}

// DocOccurrences returns per-document occurrences, identical to the
// monolithic index: shard cuts are document-aligned, so a boundary-crossing
// match is a document-crossing match, which is excluded on both sides. A
// corrupt shard surfaces ErrCorruptIndex instead of a silently short list.
func (sx *ShardedIndex) DocOccurrences(pattern []byte) ([]DocHit, error) {
	if err := sx.CheckErr(); err != nil {
		return nil, err
	}
	return sx.view.docOccurrences(pattern), nil
}

// Batch answers many queries in one call: every shard serves the whole op
// list as one sub-batch (reusing Index.Batch's prefix-resumed descents).
// Results are identical to the monolithic Index.Batch, occurrence order and
// truncation included.
func (sx *ShardedIndex) Batch(ops []Op) []Result { return sx.view.batch(ops) }

// Analytics answers one analytics query against the sharded index,
// byte-identically to the monolithic executor over the same corpus.
func (sx *ShardedIndex) Analytics(ctx context.Context, q Query) (Answer, error) {
	return sx.view.analytics(ctx, q)
}

// Stitch is the virtual global string a partitioned corpus serves, reduced to
// what merging per-partition answers needs: totalLen counts the concatenated
// content plus the single terminator, bounds are the ascending interior
// junction offsets no single tree sees across (live-segment boundaries for a
// snapshot — which are the shard boundaries of a ShardedIndex — and shard
// boundaries for the router, which builds one from replica metadata and
// fetched windows), and slice materializes any [lo, hi) window of the virtual
// string. uncovered lists, ascending, the runs between junctions that no tree
// indexes at all (a live snapshot's unsealed documents; nil everywhere else):
// the scan that recovers junction-crossing matches answers for their
// interiors too, over the bytes in place. The stitch scan and the merge below
// are written once and every partitioned layer, in-process and routed, calls
// them.
type Stitch struct {
	totalLen  int
	bounds    []int
	slice     func(buf []byte, lo, hi int) []byte
	uncovered []Run
}

// NewStitch assembles a Stitch. slice must return the window [lo, hi) of the
// virtual string, reusing buf when convenient (it is never retained across
// calls).
func NewStitch(totalLen int, bounds []int, slice func(buf []byte, lo, hi int) []byte) *Stitch {
	return &Stitch{totalLen: totalLen, bounds: bounds, slice: slice}
}

// Run is a stretch of the virtual string viewed in place: Data starts at
// global offset Off.
type Run struct {
	Off  int
	Data []byte
}

// Part is one partition's own answer to an op, handed to Merge: offsets are
// local to the partition's first byte, which sits at global offset Off. A
// partition that could not answer is simply not among the parts.
type Part struct {
	Off         int
	Found       bool
	Count       int
	Occurrences []int         // ascending; capped no tighter than the op's own cap
	Stats       []PatternStat // docfreq
}

// Merge folds the partitions' answers to one contains / count / occurrences /
// mismatch / docfreq op (parts in ascending Off order) into the answer over
// the virtual string. Document stats add up element-wise — cuts are document
// aligned. Everything else adds what no partition can see, the matches the
// stitch scan finds across junctions and in uncovered runs (Hamming matches
// for mismatch): found if anyone found it, counts sum, offsets interleave
// ascending under the op's cap. Nothing found is the zero Result.
func (ss *Stitch) Merge(op Op, parts []Part) Result {
	var res Result
	if op.Kind == OpDocFreq {
		res.Stats = make([]PatternStat, len(op.Patterns))
		for _, p := range parts {
			for j, st := range p.Stats[:min(len(p.Stats), len(res.Stats))] {
				res.Stats[j].Docs += st.Docs
				res.Stats[j].Count += st.Count
				res.Count += st.Count
			}
		}
		res.Found = res.Count > 0
		return res
	}
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
// the stitch window around each junction — one ≤ 2(m−1)-byte slice,
// materialized once, no per-byte segment lookups — and each uncovered run,
// in place. fn receives the stretch's global offset, its bytes, and the range
// [from, limit) of starts that belong to it; whether start+m still fits in
// the bytes is the caller's check. At a junction only starts before it cross
// it (they always end after it), and starts an earlier junction already
// covered are skipped, so a match spanning several tiny segments is seen
// once. end clips the windows: totalLen, or totalLen−1 to keep the
// terminator out. fn returning false ends the visit.
func (ss *Stitch) eachRegion(m, end int, fn func(off int, data []byte, from, limit int) bool) {
	runs := ss.uncovered
	// inside visits the uncovered runs starting before global offset b: what
	// starts in them sorts before anything crossing b.
	inside := func(b int) bool {
		for ; len(runs) > 0 && runs[0].Off < b; runs = runs[1:] {
			if !fn(runs[0].Off, runs[0].Data, 0, len(runs[0].Data)) {
				return false
			}
		}
		return true
	}
	var win []byte
	next := 0 // first start not yet covered by a junction
	for _, b := range ss.bounds {
		if m < 2 {
			break // one byte crosses nothing
		}
		if !inside(b) {
			return
		}
		winLo := max(b-m+1, 0)
		win = ss.slice(win, winLo, min(b+m-1, end))
		if !fn(winLo, win, max(next-winLo, 0), b-winLo) {
			return
		}
		next = b
	}
	inside(ss.totalLen)
}

// crossingOccurrences returns the sorted global start offsets of the pattern
// occurrences no per-segment tree can see: those that cross a junction and
// those inside an uncovered run. max > 0 caps the number returned.
func (ss *Stitch) crossingOccurrences(pattern []byte, max int) []int {
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
func mergeOccurrences(parts []Part, crossing []int, max int) []int {
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
