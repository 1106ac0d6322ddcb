package era

import (
	"bytes"
	"context"
	"fmt"
	"slices"
	"sort"

	"era/internal/alphabet"
)

// This file implements prefix-partitioned corpus sharding, the serving half
// of the paper's shared-nothing architecture (§5): the suffix order of one
// corpus is cut into K contiguous ranges, and each shard's tree holds one
// range — ERA's S-prefix sub-trees are independent (§4.1), so a range needs
// nothing from the others to be a correct suffix tree of its suffixes. Every
// shard carries all of S and the document map, as §5 broadcasts S to every
// node: edge labels are read from S, and so are the answers (lcs, document
// stats) that need whole documents.
//
// A shard's range is [lo, hi) over suffixes, and the lower keys are the cuts:
// keys[i] is the shortest prefix of shard i's first suffix that the suffix
// before it lacks (suffixtree.AssembleShards). Owners maps a pattern to the
// shards whose ranges meet the suffixes that begin with it — one shard,
// unless the pattern is a proper prefix of a key. So a membership op is
// answered by its owners alone and their answers add up: counts sum,
// occurrence lists merge ascending (offsets are the corpus's already; there
// is no junction to stitch and no offset to shift). The analytics ops that
// look at the whole order — topk, lrs, mismatch — ask every shard and merge
// the per-shard tree answers; the only facts no single shard sees are the
// K−1 LCPs across the cuts and the L-mers that are proper prefixes of a key,
// and the keys plus a count on the owners settle both (MergeShards).
//
// The merge is written once, here, and the cluster router calls it too: it
// holds the same keys (each replica lists its shard's range) and asks the
// same owners over the network.

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

// ShardedIndex is a corpus index whose suffix order is cut into shards, each
// an Index whose tree holds one contiguous range of it (Index.Range) over the
// whole corpus. Every query goes to the shards that own its answer and their
// answers merge; answers are byte-identical to the monolithic Index over the
// same corpus. Build with BuildShardedCorpus or reopen with OpenIndex.
type ShardedIndex struct {
	name   string
	shards []*Index
	keys   [][]byte // keys[i] is shard i's lower key; keys[0] is empty
	mp     *mapping // non-nil when all shards view one mapped v4 file
}

// ShardConfig tunes BuildShardedCorpus beyond the build Config.
type ShardConfig struct {
	// Shards is the number of prefix ranges the suffix order is cut into
	// (default 4, capped at the suffix count: the corpus length plus one).
	Shards int
	// Build configures the one construction over the whole corpus; nil is
	// the zero Config, which builds a corpus that fits the 64 MB default
	// budget as a suffix array in memory and a larger one by serial ERA. Name
	// a parallel Mode to build with that architecture (Config.MemoryBudget is
	// the budget of the one build).
	Build *Config
}

// BuildShardedCorpus builds docs once — the whole corpus, as cfg.Build says —
// and cuts the sorted suffix stream of that construction into cfg.Shards
// prefix ranges of about equal size, one tree each, at the cuts with the
// shortest keys nearby (suffixtree.AssembleShards). The resulting
// ShardedIndex answers every query exactly as the monolithic BuildCorpus
// index over the same docs would.
func BuildShardedCorpus(docs [][]byte, cfg *ShardConfig) (*ShardedIndex, error) {
	if len(docs) == 0 {
		return nil, fmt.Errorf("era: empty corpus")
	}
	shards := 4
	var buildCfg *Config
	if cfg != nil {
		if cfg.Shards != 0 {
			shards = cfg.Shards
		}
		buildCfg = cfg.Build
	}
	if shards < 1 {
		return nil, fmt.Errorf("era: shard count %d < 1", shards)
	}
	// The file format caps the shard count; clamping here keeps every
	// buildable index writable instead of failing after the build.
	built, err := buildShards(docs, buildCfg, min(shards, maxV4Shards))
	if err != nil {
		return nil, err
	}
	return newShardedIndex("", built)
}

// newShardedIndex checks that the shards tile the suffix order of one corpus
// — ranges contiguous from its start to its end, one string length, document
// count and alphabet — and collects their keys.
func newShardedIndex(name string, shards []*Index) (*ShardedIndex, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("era: sharded index with zero shards")
	}
	first := shards[0]
	keys := make([][]byte, len(shards))
	for i, sh := range shards {
		if sh.Len() != first.Len() || sh.NumDocs() != first.NumDocs() ||
			sh.alpha.Name() != first.alpha.Name() || !bytes.Equal(sh.alpha.Symbols(), first.alpha.Symbols()) {
			return nil, fmt.Errorf("era: shard %d indexes %d symbols in %d documents (%s), shard 0 %d in %d (%s): not one corpus",
				i, sh.Len(), sh.NumDocs(), sh.alpha.Name(), first.Len(), first.NumDocs(), first.alpha.Name())
		}
		var prevHi []byte
		if i > 0 {
			prevHi = shards[i-1].hi
		}
		if (i > 0 && (len(prevHi) == 0 || bytes.Compare(keys[i-1], sh.lo) >= 0)) || !bytes.Equal(prevHi, sh.lo) {
			return nil, fmt.Errorf("era: shard %d starts its range at %q where the one before ends at %q", i, sh.lo, prevHi)
		}
		keys[i] = sh.lo
	}
	if last := shards[len(shards)-1]; len(last.hi) != 0 {
		return nil, fmt.Errorf("era: the last shard's range ends at %q, short of the end of the suffix order", last.hi)
	}
	return &ShardedIndex{name: name, shards: shards, keys: keys}, nil
}

// Owners returns the shards [first, last] of a prefix-partitioned corpus
// whose ranges meet the suffixes that begin with p, where keys[i] is shard
// i's lower key, ascending from the empty one. That is one shard, unless p
// is a proper prefix of a key: the suffixes that begin with p then straddle
// the cut the key marks.
func Owners(keys [][]byte, p []byte) (first, last int) {
	first = max(sort.Search(len(keys), func(i int) bool { return bytes.Compare(keys[i], p) > 0 })-1, 0)
	last = first
	for last+1 < len(keys) && bytes.HasPrefix(keys[last+1], p) {
		last++
	}
	return first, last
}

// Name returns the corpus name (see Index.Name).
func (sx *ShardedIndex) Name() string { return sx.name }

// SetName labels the index; like Index.SetName it must not race other use.
func (sx *ShardedIndex) SetName(name string) { sx.name = name }

// Alphabet returns the alphabet shared by every shard.
func (sx *ShardedIndex) Alphabet() *alphabet.Alphabet { return sx.shards[0].alpha }

// Len returns the indexed string length including the terminator — every
// shard's, since every shard holds all of S.
func (sx *ShardedIndex) Len() int { return sx.shards[0].Len() }

// NumDocs returns the document count.
func (sx *ShardedIndex) NumDocs() int { return sx.shards[0].NumDocs() }

// NumShards returns the shard count.
func (sx *ShardedIndex) NumShards() int { return len(sx.shards) }

// Shard returns the i-th shard's index, whose Range is its part of the
// suffix order, and 0: every shard starts at the corpus's first document.
func (sx *ShardedIndex) Shard(i int) (*Index, int) { return sx.shards[i], 0 }

// TreeNodes returns the summed node count of the shard trees (roots
// excluded). Cutting the order changes the tree decomposition — a node the
// cut splits appears in both shards — so this differs from the monolithic
// tree's count; it is reported for capacity accounting.
func (sx *ShardedIndex) TreeNodes() int64 {
	var n int64
	for _, sh := range sx.shards {
		n += sh.TreeNodes()
	}
	return n
}

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

// owners is Owners over the index's own keys.
func (sx *ShardedIndex) owners(p []byte) (int, int) { return Owners(sx.keys, p) }

// Contains reports whether pattern occurs in the corpus, exactly as the
// monolithic Index.Contains would: whether one of its owners holds it.
func (sx *ShardedIndex) Contains(pattern []byte) bool {
	return sx.Batch([]Op{{Kind: OpContains, Pattern: pattern}})[0].Found
}

// Count returns the number of occurrences of pattern in the corpus: the sum
// of its owners' counts.
func (sx *ShardedIndex) Count(pattern []byte) int {
	return sx.Batch([]Op{{Kind: OpCount, Pattern: pattern}})[0].Count
}

// Occurrences returns the start offsets of every occurrence of pattern,
// sorted ascending — its owners' lists merged, byte-identical to the
// monolithic index. A corrupt shard surfaces ErrCorruptIndex instead of a
// silently short list.
func (sx *ShardedIndex) Occurrences(pattern []byte) ([]int, error) {
	if err := sx.CheckErr(); err != nil {
		return nil, err
	}
	occ := sx.Batch([]Op{{Kind: OpOccurrences, Pattern: pattern}})[0].Occurrences
	if occ == nil {
		occ = []int{} // Index.Occurrences answers nothing with an empty list
	}
	return occ, nil
}

// DocOccurrences returns per-document occurrences, identical to the
// monolithic index: its owners' merged Occurrences, already ascending, cut
// into documents. A corrupt shard surfaces ErrCorruptIndex instead of a
// silently short list.
func (sx *ShardedIndex) DocOccurrences(pattern []byte) ([]DocHit, error) {
	occ, err := sx.Occurrences(pattern)
	if err != nil {
		return nil, err
	}
	return sx.shards[0].docHits(occ, len(pattern)), nil
}

// Batch answers many queries in one call: each membership op goes to its
// owners, every shard serving the ops it owns as one sub-batch (reusing
// Index.Batch's prefix-resumed descents), and an op with several owners
// merges their answers. Results are identical to the monolithic Index.Batch,
// occurrence order and truncation included.
func (sx *ShardedIndex) Batch(ops []Op) []Result {
	results := make([]Result, len(ops))
	if len(ops) == 0 {
		return results
	}
	sub := make([][]Op, len(sx.shards))
	at := make([][]int, len(sx.shards)) // at[s][j]: the op sub[s][j] is
	answered := make([]bool, len(ops))
	for i, op := range ops {
		if op.Kind.IsAnalytic() {
			// Analytics plans dispatch through the sharded executor; a
			// malformed plan leaves the zero Answer.
			if a, err := sx.Analytics(context.Background(), op); err == nil {
				results[i] = a
			}
			continue
		}
		first, last := sx.owners(op.Pattern)
		for s := first; s <= last; s++ {
			sub[s], at[s] = append(sub[s], op), append(at[s], i)
		}
	}
	for s, sops := range sub {
		if len(sops) == 0 {
			continue
		}
		for j, r := range sx.shards[s].Batch(sops) {
			i := at[s][j]
			if answered[i] {
				r = mergeParts(ops[i], []*Answer{&results[i], &r})
			}
			results[i], answered[i] = r, true
		}
	}
	return results
}

// Analytics answers one analytics query against the sharded index,
// byte-identically to the monolithic executor over the same corpus: lcs on
// any one shard (it reads only its two documents, and every shard holds them
// all), docfreq on its patterns' owners, and topk, lrs and mismatch on every
// shard, merged (MergeShards).
func (sx *ShardedIndex) Analytics(ctx context.Context, q Query) (Answer, error) {
	if err := q.Validate(nil, sx.NumDocs()); err != nil {
		return Answer{}, err
	}
	if err := sx.CheckErr(); err != nil {
		return Answer{}, err
	}
	if err := ctx.Err(); err != nil {
		return Answer{}, err
	}
	switch q.Kind {
	case OpContains, OpCount, OpOccurrences:
		return sx.Batch([]Query{q})[0], nil
	case OpCommonSubstring:
		return sx.shards[0].Analytics(ctx, q)
	}
	asked := AnalyticsShards(q, sx.keys)
	parts := make([]*Answer, len(sx.shards))
	for i, sh := range sx.shards {
		if !asked[i] {
			continue
		}
		a, err := sh.Analytics(ctx, q)
		if err != nil {
			return Answer{}, err
		}
		parts[i] = &a
	}
	return MergeShards(q, sx.keys, parts, func(op Op) (Result, error) {
		return sx.Batch([]Op{op})[0], nil
	})
}

// AnalyticsShards reports which shards of a prefix-partitioned corpus an
// analytics query asks, for MergeShards: a docfreq query its patterns'
// owners, topk, lrs and mismatch every shard. (lcs is one shard's answer
// alone: it is the suffix order of its two documents, which any shard holds.)
func AnalyticsShards(q Query, keys [][]byte) []bool {
	asked := make([]bool, len(keys))
	if q.Kind != OpDocFreq {
		for i := range asked {
			asked[i] = true
		}
		return asked
	}
	for _, p := range q.Patterns {
		first, last := Owners(keys, p)
		for i := first; i <= last; i++ {
			asked[i] = true
		}
	}
	return asked
}

// MergeShards folds the answers the shards of a prefix-partitioned corpus
// gave to q — parts[i] is shard i's own answer, nil where shard i was not
// asked or could not answer — into the answer over the whole corpus; keys
// are the shards' lower keys. Membership ops and mismatch add up: found if a
// shard found it, counts sum, offsets merge ascending under the op's cap. So
// do docfreq stats, pattern by pattern: a pattern's documents are the union
// of its owners', and each owner counts the documents whose first occurrence
// it holds (Index.Analytics), a share of that union. topk and lrs take the
// per-shard tree answers plus what no shard sees, which member — a
// membership op answered over the whole corpus by its owners — supplies:
// the counts of the L-mers that are proper prefixes of a key (whose
// occurrences straddle a cut), and the occurrences of a repeat that does. A
// shard left out is left out of the answer: what is merged is the answer
// over the shards that are there.
func MergeShards(q Query, keys [][]byte, parts []*Answer, member func(Op) (Result, error)) (Answer, error) {
	switch q.Kind {
	case OpTopK:
		return mergeTop(q, keys, parts, member)
	case OpLongestRepeat:
		return mergeRepeat(keys, parts, member)
	}
	return mergeParts(q, parts), nil
}

// mergeParts adds up the answers several shards gave to one membership,
// mismatch or docfreq op.
func mergeParts(op Op, parts []*Answer) Answer {
	var res Answer
	if op.Kind == OpDocFreq {
		res.Stats = make([]PatternStat, len(op.Patterns))
		for _, p := range parts {
			if p == nil {
				continue
			}
			for j, st := range p.Stats[:min(len(p.Stats), len(res.Stats))] {
				res.Stats[j].Docs += st.Docs
				res.Stats[j].Count += st.Count
				res.Count += st.Count
			}
		}
		res.Found = res.Count > 0
		return res
	}
	var only *Answer
	n, total := 0, 0
	for _, p := range parts {
		if p != nil {
			only, n, total = p, n+1, total+len(p.Occurrences)
			res.Found = res.Found || p.Found
			res.Count += p.Count
		}
	}
	if n == 1 {
		return *only
	}
	if res.Found && (op.Kind == OpOccurrences || op.Kind == OpMismatch) {
		occ := make([]int, 0, total)
		for _, p := range parts {
			if p != nil {
				occ = append(occ, p.Occurrences...)
			}
		}
		slices.Sort(occ)
		if op.MaxOccurrences > 0 && len(occ) > op.MaxOccurrences {
			occ = occ[:op.MaxOccurrences]
		}
		res.Occurrences = occ
	}
	return res
}

// mergeTop merges the shards' top-k lists. An L-mer that is not a proper
// prefix of a key has all its occurrences in one shard, so that shard's
// count is exact; the boundary L-mers — prefixes of a key, at most one per
// cut — are counted over the whole corpus instead. Dropping a boundary
// L-mer from a shard's list loses nothing: its exact count is at least the
// shard's, so it still ranks above whatever the shard's list left out.
func mergeTop(q Query, keys [][]byte, parts []*Answer, member func(Op) (Result, error)) (Answer, error) {
	var boundary [][]byte
	for _, key := range keys[min(1, len(keys)):] {
		if len(key) > q.MinLen && (len(boundary) == 0 || !bytes.Equal(boundary[len(boundary)-1], key[:q.MinLen])) {
			boundary = append(boundary, key[:q.MinLen])
		}
	}
	isBoundary := func(p []byte) bool {
		return slices.ContainsFunc(boundary, func(b []byte) bool { return bytes.Equal(b, p) })
	}
	var top []TopEntry
	for _, p := range parts {
		if p == nil {
			continue
		}
		for _, e := range p.Top {
			if !isBoundary(e.Pattern) {
				top = append(top, e)
			}
		}
	}
	for _, b := range boundary {
		r, err := member(Op{Kind: OpCount, Pattern: b})
		if err != nil {
			return Answer{}, err
		}
		if r.Count > 0 {
			top = append(top, TopEntry{Pattern: bytes.Clone(b), Count: r.Count})
		}
	}
	if len(top) == 0 {
		return Answer{}, nil
	}
	slices.SortFunc(top, func(a, b TopEntry) int {
		if a.Count != b.Count {
			return b.Count - a.Count
		}
		return bytes.Compare(a.Pattern, b.Pattern)
	})
	top = top[:min(len(top), q.K)]
	return Answer{Found: true, Top: top, Count: len(top)}, nil
}

// mergeRepeat merges the shards' longest repeats. The longest repeated
// substring is as long as the largest LCP of neighbouring suffixes; a shard
// sees the neighbours inside its range, and the LCP across each cut is its
// key less the last symbol (a pair only when both shards answered). Of the
// candidates that long, the smallest wins, and its occurrences are those of
// its owner — or, when it is a proper prefix of a key, every owner's.
func mergeRepeat(keys [][]byte, parts []*Answer, member func(Op) (Result, error)) (Answer, error) {
	var label []byte
	consider := func(l []byte) {
		if len(l) > len(label) || (len(l) == len(label) && bytes.Compare(l, label) < 0) {
			label = l
		}
	}
	for _, p := range parts {
		if p != nil && p.Found {
			consider(p.Pattern)
		}
	}
	for i := 1; i < len(keys); i++ {
		if parts[i-1] != nil && parts[i] != nil {
			consider(keys[i][:len(keys[i])-1])
		}
	}
	if len(label) == 0 {
		return Answer{}, nil
	}
	var occ []int
	if first, last := Owners(keys, label); first == last && parts[first] != nil && bytes.Equal(parts[first].Pattern, label) {
		occ = parts[first].Occurrences
	} else {
		r, err := member(Op{Kind: OpOccurrences, Pattern: label})
		if err != nil {
			return Answer{}, err
		}
		occ = r.Occurrences
	}
	return Answer{Found: true, Pattern: bytes.Clone(label), Occurrences: occ, Count: len(occ)}, nil
}
