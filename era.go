// Package era is a Go implementation of ERA ("Elastic Range"), the
// disk-based suffix tree construction algorithm of Mansour, Allam,
// Skiadopoulos and Kalnis (PVLDB 5(1), 2011), together with the full
// evaluation apparatus of the paper: the WaveFront, B²ST, TRELLIS and
// Ukkonen baselines, a simulated disk/cluster substrate with virtual-time
// cost accounting, and one benchmark per table and figure of the paper.
//
// The public API builds suffix tree indexes over byte strings (optionally a
// corpus of documents as a generalized suffix tree) with a bounded memory
// budget, serially or in parallel, and answers the classic suffix tree
// queries: substring search, occurrence listing and counting, longest
// repeated substring, longest common substring, and repeat (motif)
// enumeration. Indexes persist to disk (WriteFile/OpenIndex), answer
// batched queries with amortized tree descents (Batch), and are safe for
// concurrent readers; internal/server and the `era serve` subcommand put
// them behind a JSON HTTP API.
//
// Quick start:
//
//	idx, err := era.Build([]byte("TGGTGGTGGTGCGGTGATGGTGC"), nil)
//	if err != nil { ... }
//	fmt.Println(idx.Count([]byte("TG")))      // 7
//	fmt.Println(idx.Occurrences([]byte("GGT")))
package era

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"time"

	"era/internal/alphabet"
	"era/internal/core"
	"era/internal/diskio"
	"era/internal/seq"
	"era/internal/sim"
	"era/internal/suffixarray"
	"era/internal/suffixtree"
)

// Mode selects the execution architecture (§5 of the paper).
type Mode int

const (
	// Serial builds on one core.
	Serial Mode = iota
	// SharedDisk builds with Workers goroutines against one shared disk
	// (the multicore desktop configuration of Fig. 12). When vertical
	// partitioning yields fewer groups than workers — a small input, or
	// any input at a wide budget — the idle workers run the groups'
	// prepare rounds beside the workers that own them.
	SharedDisk
	// SharedNothing builds on a simulated cluster of Workers nodes, each
	// with a private copy of the input (Table 3, Fig. 13).
	SharedNothing
)

// BuildTarget is a one-valued vestige: every build emits the mmap-native flat
// sections straight from the sorted-suffix sub-trees, and the index queries
// through the same zero-copy FlatTree that serves mapped files. The type, its
// value and Config.Target stay only because benchmark/ spells them (as it does
// suffixtree.Flat's always-empty Dense and LeafIdx, and the dense and leafIdx
// parameters of suffixtree.NewFlatTree; Flat.LeafData is the leaf section,
// the suffix array): ROADMAP item 1 has benchmark/ stop spelling them, and
// item 9(a) then deletes them all.
type BuildTarget int

// TargetFlat is the only build target, and the zero value.
const TargetFlat BuildTarget = 0

// Config tunes a build. The zero value (or a nil pointer) selects sensible
// defaults: automatic alphabet detection, a 64 MB budget, serial execution.
type Config struct {
	// Alphabet fixes the symbol alphabet; nil auto-detects DNA, protein,
	// English, or derives a custom alphabet from the input's distinct bytes.
	Alphabet *alphabet.Alphabet
	// MemoryBudget bounds construction memory in bytes (default 64 MB).
	// The resulting tree itself is held in memory for querying.
	//
	// The budget also says which regime the input is in. ERA is the
	// out-of-core builder; when Mode is Serial and the whole input fits the
	// budget as a suffix array (14 bytes per symbol), the tree is built in
	// memory from that array instead — same image, byte for byte, in linear
	// time and without the scans. A budget below that, or a parallel Mode,
	// runs ERA. BuildStats.InMemory reports which one ran.
	MemoryBudget int64
	// Mode selects serial, shared-disk parallel or shared-nothing parallel.
	// Naming a parallel mode asks for that §5 architecture and always runs
	// ERA, whatever the budget.
	Mode Mode
	// Workers is the core/node count for the parallel modes (default 4):
	// how many cores a SharedDisk build may use, one group's rounds
	// included, and how many nodes a SharedNothing build models.
	Workers int
	// SkipSeek enables the paper's §4.4 disk block-skipping optimization.
	SkipSeek bool
	// DiskModel overrides the simulated storage cost model (defaults to
	// sim.DefaultModel, a 2011 SATA-class disk).
	DiskModel *sim.CostModel
	// Target has one legal value, the zero one (see BuildTarget).
	Target BuildTarget
}

// BuildStats summarizes the accounted construction work.
type BuildStats struct {
	// InMemory reports that the input fit the budget and the tree was built
	// from a suffix array rather than by ERA (see Config.MemoryBudget).
	// Nothing is modeled on that path: ModeledTime, Scans, Prefixes and
	// Groups are zero and SubTrees is 1.
	InMemory bool
	// ModeledTime is the virtual end-to-end time under the disk model.
	ModeledTime time.Duration
	// Scans is the number of sequential passes over the input: a Serial
	// build counts its vertical partitioning and group scans — its VP is the
	// one-worker run, scanning through the build's one group scanner —
	// SharedDisk and SharedNothing their group scans only (each worker's VP
	// span is read by a scanner of its own, priced per round, not counted).
	Scans int
	// Prefixes and Groups are the vertical partitioning outcome.
	Prefixes int
	Groups   int
	// SubTrees is the number of independently built sub-trees.
	SubTrees int
	// TreeNodes is the node count of the final tree (root excluded).
	TreeNodes int64
}

// Index is a queryable suffix tree over a string or document corpus.
// Once built (or read back), an Index is immutable apart from SetName and
// safe for concurrent queries from any number of goroutines.
//
// The tree behind an Index is the flat layout of the index file format: a
// build encodes its sections on the heap, OpenIndex views them straight out of
// the memory-mapped file, and WriteTo writes the sections it holds.
type Index struct {
	name    string
	tree    *suffixtree.FlatTree
	data    []byte
	alpha   *alphabet.Alphabet
	docEnds []int32 // exclusive end offset per document (corpus indexes)
	// lo and hi bound the part of the suffix order the tree holds, the
	// suffixes s with lo ≤ s < hi (Range); both are empty for the whole.
	lo, hi []byte
	stats  BuildStats
	mp     *mapping    // non-nil when the index views a mapped v4 file
	ck     *checkState // non-nil when the image carries stored checksums
	hdrCRC uint32      // the opened image's header checksum (Fingerprint)
}

func (c *Config) withDefaults() Config {
	var out Config
	if c != nil {
		out = *c
	}
	if out.MemoryBudget == 0 {
		out.MemoryBudget = 64 << 20
	}
	if out.Workers == 0 {
		out.Workers = 4
	}
	return out
}

// inMemoryBytesPerSymbol is what the suffix-array builder holds per symbol of
// the terminated string besides the string and the image: the suffix array,
// the LCP array and the array the LCP pass ranks over, four bytes each, and
// under two for SA-IS's LMS bits and bucket arrays
// (TestInMemoryWorkingSetFitsItsConstant measures it).
const inMemoryBytesPerSymbol = 14

// Build constructs a suffix tree index over data under the configured memory
// budget: by the ERA algorithm, or from a suffix array when the input is
// small enough for the budget to hold one (see Config.MemoryBudget). The
// input must not contain the terminator byte '$'; one is appended internally.
func Build(data []byte, cfg *Config) (*Index, error) {
	return build(context.Background(), [][]byte{data}, cfg)
}

// BuildCorpus constructs a generalized suffix tree over a document corpus:
// the suffix tree of the concatenation of all documents (§1 of the paper —
// operations on string databases use exactly this). Occurrence queries can
// be scoped and attributed per document.
func BuildCorpus(docs [][]byte, cfg *Config) (*Index, error) {
	if len(docs) == 0 {
		return nil, fmt.Errorf("era: empty corpus")
	}
	return build(context.Background(), docs, cfg)
}

// checkCorpusSize refuses a corpus whose terminated concatenation has offsets
// an int32 cannot hold, which is what document ends, suffixes and node ids are.
func checkCorpusSize(total int64) error {
	if total+1 > math.MaxInt32 {
		return fmt.Errorf("era: a corpus of %d bytes exceeds the index's 32-bit offsets (at most %d)", total, math.MaxInt32-1)
	}
	return nil
}

// build is the whole-tree case of buildShards, on the heap.
func build(ctx context.Context, docs [][]byte, cfg *Config) (*Index, error) {
	shards, err := buildShards(ctx, docs, cfg, 1, heapSink{})
	if err != nil {
		return nil, err
	}
	return shards[0], nil
}

// buildShards runs one construction over the corpus — the suffix-array
// builder or ERA, as the Config picks — and cuts its sorted suffix stream
// into k prefix ranges of the suffix order (suffixtree.AssembleShards; k is
// capped at the suffix count), one Index per range. Every range views the one
// string and document map: a shard's tree holds its range, but it answers
// over all of S. The string, the suffix array and the tree sections are the
// arrays sink hands out, in that order (a fileSink's are a mapped tier file's
// sections; k is then 1). An ERA build stops when ctx does
// (core.Options.Context); the suffix-array builder, bounded by the budget,
// checks ctx after its sort and after the LCP pass, and its sort is not
// interrupted.
func buildShards(ctx context.Context, docs [][]byte, cfgp *Config, k int, sink imageSink) ([]*Index, error) {
	cfg := cfgp.withDefaults()
	if cfg.Target != TargetFlat {
		return nil, fmt.Errorf("era: unknown build target %d", cfg.Target)
	}

	var total int64
	for _, d := range docs {
		total += int64(len(d))
	}
	if err := checkCorpusSize(total); err != nil {
		return nil, err
	}
	for i, d := range docs {
		if bytes.IndexByte(d, alphabet.Terminator) >= 0 {
			return nil, fmt.Errorf("era: document %d contains the reserved terminator byte %q", i, alphabet.Terminator)
		}
	}
	alpha := cfg.Alphabet
	if alpha == nil {
		var seen [256]bool
		markSeen(&seen, docs)
		var err error
		if alpha, err = alphabetFromSeen(&seen); err != nil {
			return nil, err
		}
	}
	data, err := sink.text(int(total)+1, len(docs), alpha)
	if err != nil {
		return nil, err
	}
	docEnds := make([]int32, len(docs))
	off := 0
	for i, d := range docs {
		off += copy(data[off:], d)
		docEnds[i] = int32(off)
	}
	data[off] = alphabet.Terminator

	var shards []suffixtree.Shard
	var stats BuildStats
	if cfg.Mode == Serial && inMemoryBytesPerSymbol*int64(len(data)) <= cfg.MemoryBudget {
		shards, err = buildInMemory(ctx, alpha, data, k, sink)
		stats = BuildStats{InMemory: true, SubTrees: 1}
	} else {
		shards, stats, err = buildERA(ctx, alpha, data, &cfg, k, sink)
	}
	if err != nil {
		return nil, err
	}
	out := make([]*Index, len(shards))
	for i, sh := range shards {
		tree, err := suffixtree.NewFlatTree(data, sh.Nodes, sh.Sym, nil, nil, sh.LeafData, sh.NLeaves)
		if err != nil {
			return nil, fmt.Errorf("era: viewing the built sections: %w", err)
		}
		st := stats
		st.TreeNodes = int64(sh.NNodes - 1)
		out[i] = &Index{tree: tree, data: data, alpha: alpha, docEnds: docEnds, lo: sh.Lo, hi: sh.Hi, stats: st}
	}
	return out, nil
}

// suffixOrder returns the suffix array of the terminated text and the LCP
// of each suffix with its predecessor, both in rank order and freshly
// allocated: the kernel of the live index's lrs / topk (textOrder), which
// read it many times per snapshot, and what the in-memory builder computes
// into its sink's suffix array. lcs reads its LCPs once, through the suffix
// array, so it sorts with suffixarray.PLCP instead (commonSubstring).
func suffixOrder(text []byte) (sa, lcp []int32, err error) {
	if sa, err = suffixarray.Build(text); err != nil {
		return nil, nil, err
	}
	return sa, suffixarray.LCP(text, sa), nil
}

// buildInMemory is the builder for inputs the budget can hold whole: the
// sorted suffix stream of data is its suffix array, sorted into the array
// sink hands out, with the LCP array, and that suffix array becomes the leaf
// sections of the trees as it is. It shares nothing with ERA below
// suffixtree.AssembleShards, which emits the same sections from either.
func buildInMemory(ctx context.Context, alpha *alphabet.Alphabet, data []byte, k int, sink imageSink) ([]suffixtree.Shard, error) {
	if err := alpha.Validate(data); err != nil {
		return nil, err
	}
	sa, err := sink.Leaves(len(data))
	if err != nil {
		return nil, err
	}
	if err := suffixarray.BuildInto(data, sa); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	lcp := suffixarray.LCP(data, sa)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return suffixtree.AssembleShards(data, sa, lcp, k, sink)
}

// buildERA publishes data on a simulated disk and runs the paper's algorithm
// over it in the configured architecture, its groups writing the suffix array
// sink hands out and its assembly the tree sections.
func buildERA(ctx context.Context, alpha *alphabet.Alphabet, data []byte, cfg *Config, k int, sink imageSink) ([]suffixtree.Shard, BuildStats, error) {
	model := sim.DefaultModel()
	if cfg.DiskModel != nil {
		model = *cfg.DiskModel
	}
	disk := diskio.NewDisk(model)
	f, err := seq.Publish(disk, "input.seq", alpha, data)
	if err != nil {
		return nil, BuildStats{}, err
	}

	opts := core.Options{
		MemoryBudget: cfg.MemoryBudget,
		SkipSeek:     cfg.SkipSeek,
		AssembleFlat: true,
		Shards:       k,
		Sink:         sink,
		Context:      ctx,
	}
	var res *core.Result
	switch cfg.Mode {
	case Serial:
		res, err = core.BuildSerial(f, opts)
	case SharedDisk:
		res, err = core.BuildParallel(f, core.ParallelOptions{Options: opts, Workers: cfg.Workers})
	case SharedNothing:
		res, err = core.BuildDistributed(f, core.DistributedOptions{Options: opts, Nodes: cfg.Workers})
	default:
		return nil, BuildStats{}, fmt.Errorf("era: unknown mode %d", cfg.Mode)
	}
	if err != nil {
		return nil, BuildStats{}, err
	}
	st := res.Stats
	return res.Shards, BuildStats{
		ModeledTime: st.VirtualTime,
		Scans:       st.Scans,
		Prefixes:    st.Prefixes,
		Groups:      st.Groups,
		SubTrees:    st.SubTrees,
	}, nil
}

// alphabetFromSeen resolves the byte-presence set (markSeen) to a predefined
// or custom alphabet: a build's, before it places the string, and a live
// index's over documents it never concatenates.
func alphabetFromSeen(seen *[256]bool) (*alphabet.Alphabet, error) {
	distinct := make([]byte, 0, 64)
	for b := 0; b < 256; b++ {
		if seen[b] {
			distinct = append(distinct, byte(b))
		}
	}
	for _, a := range []*alphabet.Alphabet{alphabet.DNA, alphabet.Protein, alphabet.English} {
		ok := true
		for _, b := range distinct {
			if !a.Contains(b) {
				ok = false
				break
			}
		}
		if ok {
			return a, nil
		}
	}
	return alphabet.New("custom", distinct)
}

// Name returns the corpus name the index was saved under ("" until SetName
// or for indexes written before the named format).
func (x *Index) Name() string { return x.name }

// SetName labels the index with a corpus name; WriteTo persists it and the
// query server addresses loaded indexes by it. Unlike the query methods,
// SetName is not safe to call concurrently with other use of the Index —
// name the index before sharing it.
func (x *Index) SetName(name string) { x.name = name }

// Stats returns the construction statistics.
func (x *Index) Stats() BuildStats { return x.stats }

// Alphabet returns the alphabet the index was built with.
func (x *Index) Alphabet() *alphabet.Alphabet { return x.alpha }

// Len returns the indexed string length including the terminator.
func (x *Index) Len() int { return len(x.data) }

// NumDocs returns the number of documents (1 for a plain Build).
func (x *Index) NumDocs() int { return len(x.docEnds) }

// TreeNodes returns the node count of the suffix tree (root excluded).
// Unlike Stats — which only a fresh build populates — this is also valid
// for indexes reopened with ReadIndex.
func (x *Index) TreeNodes() int64 { return int64(x.tree.NumNodes() - 1) }

// Range reports the part of the suffix order the index's tree holds: the
// suffixes s with lo ≤ s < hi, an empty hi being the end of the order. Both
// are empty for an index over every suffix; a shard of a ShardedIndex, or a
// split file `era shard -splitdir` writes, holds one range. Such an index
// still carries all of S and every document, so what it answers from S alone
// (lcs, the documents) is the corpus's; what it answers from its tree
// (membership, topk, lrs, mismatch, docfreq) covers its range only.
func (x *Index) Range() (lo, hi []byte) { return x.lo, x.hi }

// Suffixes returns the number of suffixes the tree holds: Len() for an
// index over the whole order, its range's share for a shard.
func (x *Index) Suffixes() int { return x.tree.NumLeaves() }

// partial reports whether the tree holds one range of the suffix order
// rather than all of it.
func (x *Index) partial() bool { return len(x.lo) > 0 || len(x.hi) > 0 }

// MappedBytes returns the size of the memory-mapped file backing this index,
// or 0 for heap-resident indexes.
func (x *Index) MappedBytes() int64 {
	if x.mp == nil {
		return 0
	}
	return x.mp.size()
}

// ResidentBytes reports how much of the mapping is currently resident in
// physical memory (-1 when unknown, 0 for heap indexes, whose residency is
// ordinary Go heap).
func (x *Index) ResidentBytes() int64 {
	if x.mp == nil || !x.mp.mapped {
		return 0
	}
	return residentBytes(x.mp.bytes())
}

// Close releases the file mapping behind an index opened from a format-v4
// file; it is a no-op (and returns nil) for heap-resident indexes.
// Idempotent. After Close, no goroutine may query the index or touch any
// slice it returned — a serving layer must drain in-flight queries first
// (internal/server closes retired indexes only after shutdown).
func (x *Index) Close() error {
	if x.mp == nil {
		return nil
	}
	return x.mp.Close()
}
