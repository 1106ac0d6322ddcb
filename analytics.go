package era

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"

	"era/internal/alphabet"
	"era/internal/suffixarray"
	"era/internal/suffixtree"
)

// This file is the query-plan layer: one typed representation (Query →
// Answer) for every operation the package answers — the membership family
// (contains/count/occurrences) and the analytics family the suffix tree's
// structure makes cheap (§1 of the paper motivates suffix trees for exactly
// these): top-k most frequent substrings of a length, longest repeated
// substring, longest common substring across documents, document-frequency
// stats for a pattern set, and k-mismatch search via bounded-branching
// descent. There are three in-process executors: Index.Analytics walks one
// tree; ShardedIndex.Analytics (shard.go) asks the shards that hold the
// answer — each an Index.Analytics over its range of the suffix order — and
// merges them (RouteOps, the executor the cluster router runs too); and
// liveSnapshot.analytics (analytics_live.go) merges the tiers of a
// LiveIndex. Dispatch and parameter validation live here, once.
//
// The whole and the sharded index answer lrs and topk from the tree: lrs
// with one pass over its internal records (suffixtree.LongestRepeated), topk
// with a walk of the depth-L loci (PrefixLoci). The live index, whose tiers cut
// the corpus at document boundaries and whose memtable has no tree at all,
// answers them from the suffixes of its virtual global string in
// lexicographic order with the LCP between neighbours — SA-IS + Kasai over
// the materialized string, sorted once per snapshot (textOrder) and read by
// one pass of the op's consumer (suffixOrderAnswer): lrs is the first maximum
// of that LCP (repeatScan), topk a run-length count of LCP ≥ L into a bounded
// selection (topScan, topSelection). lcs is one algorithm on every layer: the
// same kernel (SA-IS + Kasai's permuted LCP) over the two documents alone
// (commonSubstring), so its cost is theirs, never the corpus's.
//
// Answer identity across layers is the package discipline: every analytics
// answer is a pure function of the virtual global string and the document
// cuts, never of the physical layout. The canonical tie-breaks making that
// possible: candidates rank by count descending then label ascending
// (top-k); equal-length repeated/common substrings resolve to the
// lexicographically smallest, with occurrence offsets ascending.
// TestAnalyticsDifferential pins all four layers to these answers against a
// naive scan oracle.

// ErrInvalidQuery reports a Query whose parameters are malformed for its
// kind (Validate wraps it with specifics).
var ErrInvalidQuery = errors.New("era: invalid query")

const (
	// MaxMismatches caps Query.K for OpMismatch: the bounded-branching
	// descent explores O(|Σ|^k·|P|) paths, so k stays small by design.
	MaxMismatches = 2
	// MaxTopK caps Query.K for OpTopK.
	MaxTopK = 1024
)

// Query is one typed query plan: the operation kind plus its parameters.
// Zero-valued fields a kind does not use are ignored (and excluded from
// Validate). Op aliases Query: the batched API and the plan API share one
// representation.
type Query struct {
	Kind    OpKind
	Pattern []byte
	// MaxOccurrences caps the offsets returned for OpOccurrences and
	// OpMismatch; 0 returns all of them.
	MaxOccurrences int
	// K is the entry count for OpTopK (≤ MaxTopK) and the mismatch budget
	// for OpMismatch (≤ MaxMismatches).
	K int
	// MinLen is the substring length L for OpTopK.
	MinLen int
	// DocA and DocB are the two document ordinals for OpCommonSubstring.
	DocA, DocB int
	// Patterns is the pattern set for OpDocFreq.
	Patterns [][]byte
}

// Op is one query of a batch; it is the same type as Query.
type Op = Query

// TopEntry is one ranked substring of an OpTopK answer.
type TopEntry struct {
	Pattern []byte
	Count   int
}

// PatternStat is the per-pattern aggregate of an OpDocFreq answer.
type PatternStat struct {
	Docs  int // documents containing the pattern (non-crossing)
	Count int // total non-crossing occurrences across documents
}

// Answer is the result of one Query. Fields beyond what the Query's kind
// fills are left at their zero value:
//
//   - OpContains: Found.
//   - OpCount: Found, Count.
//   - OpOccurrences: Found, Count, Occurrences (capped by MaxOccurrences).
//   - OpTopK: Found, Top (count desc, then pattern asc), Count = len(Top).
//   - OpLongestRepeat: Found, Pattern, Occurrences (all of them, ascending),
//     Count = occurrence count.
//   - OpCommonSubstring: Found, Pattern, OffsetA/OffsetB (the smallest
//     occurrence offset inside each document; -1 when not found),
//     Count = len(Pattern).
//   - OpDocFreq: Found, Stats (one per pattern, in order), Count = summed
//     occurrence counts.
//   - OpMismatch: Found, Count, Occurrences (ascending global window
//     starts, capped by MaxOccurrences).
//
// Result aliases Answer.
type Answer struct {
	Found            bool
	Count            int
	Occurrences      []int
	Pattern          []byte
	Top              []TopEntry
	OffsetA, OffsetB int
	Stats            []PatternStat
}

// Result answers one Op; it is the same type as Answer.
type Result = Answer

// IsAnalytic reports whether the kind belongs to the analytics family
// (answered by Analytics) rather than the membership family (answered by
// the descent paths of Batch).
func (k OpKind) IsAnalytic() bool { return k >= OpTopK }

// Validate checks the plan's parameters for its kind, wrapping
// ErrInvalidQuery. A non-nil alphabet additionally rejects pattern bytes
// outside it (the serving layer's discipline; the library accepts any
// bytes). numDocs bounds the document ordinals of OpCommonSubstring.
// Membership kinds require a non-empty pattern under a non-nil alphabet —
// the lenient library semantics (empty pattern = match everywhere) stay
// available through Batch.
func (q *Query) Validate(a *alphabet.Alphabet, numDocs int) error {
	switch q.Kind {
	case OpContains, OpCount, OpOccurrences:
		if a != nil {
			if len(q.Pattern) == 0 {
				return fmt.Errorf("%w: %s: empty pattern", ErrInvalidQuery, q.Kind)
			}
			return checkPatternBytes(a, q.Kind, q.Pattern)
		}
		return nil
	case OpTopK:
		if q.K < 1 || q.K > MaxTopK {
			return fmt.Errorf("%w: topk: k %d out of range [1, %d]", ErrInvalidQuery, q.K, MaxTopK)
		}
		if q.MinLen < 1 {
			return fmt.Errorf("%w: topk: min_len %d < 1", ErrInvalidQuery, q.MinLen)
		}
		return nil
	case OpLongestRepeat:
		return nil
	case OpCommonSubstring:
		if q.DocA < 0 || q.DocA >= numDocs || q.DocB < 0 || q.DocB >= numDocs {
			return fmt.Errorf("%w: lcs: document pair (%d, %d) out of range [0, %d)", ErrInvalidQuery, q.DocA, q.DocB, numDocs)
		}
		if q.DocA == q.DocB {
			return fmt.Errorf("%w: lcs: documents must differ (both %d)", ErrInvalidQuery, q.DocA)
		}
		return nil
	case OpDocFreq:
		if len(q.Patterns) == 0 {
			return fmt.Errorf("%w: docfreq: empty pattern set", ErrInvalidQuery)
		}
		for i, p := range q.Patterns {
			if len(p) == 0 {
				return fmt.Errorf("%w: docfreq: pattern %d is empty", ErrInvalidQuery, i)
			}
			if a != nil {
				if err := checkPatternBytes(a, q.Kind, p); err != nil {
					return err
				}
			}
		}
		return nil
	case OpMismatch:
		if len(q.Pattern) == 0 {
			return fmt.Errorf("%w: mismatch: empty pattern", ErrInvalidQuery)
		}
		if q.K < 0 || q.K > MaxMismatches {
			return fmt.Errorf("%w: mismatch: k %d out of range [0, %d]", ErrInvalidQuery, q.K, MaxMismatches)
		}
		if a != nil {
			return checkPatternBytes(a, q.Kind, q.Pattern)
		}
		return nil
	}
	return fmt.Errorf("%w: unknown kind %d", ErrInvalidQuery, int(q.Kind))
}

func checkPatternBytes(a *alphabet.Alphabet, k OpKind, p []byte) error {
	for j, b := range p {
		if !a.Contains(b) {
			return fmt.Errorf("%w: %s: pattern byte %q at offset %d is not in the index's %s alphabet",
				ErrInvalidQuery, k, b, j, a.Name())
		}
	}
	return nil
}

// Fingerprint returns a canonical, injective byte encoding of the plan —
// the serving layer's cache key component. Two Queries answer identically
// on one index epoch iff their fingerprints match.
func (q *Query) Fingerprint() string { return string(q.AppendFingerprint(nil)) }

// AppendFingerprint appends the plan's Fingerprint to b and returns the
// extended slice, for callers that build a larger key in one buffer.
func (q *Query) AppendFingerprint(b []byte) []byte {
	b = strconv.AppendInt(b, int64(q.Kind), 10)
	b = append(b, '|')
	b = strconv.AppendInt(b, int64(q.MaxOccurrences), 10)
	b = append(b, '|')
	b = strconv.AppendInt(b, int64(q.K), 10)
	b = append(b, '|')
	b = strconv.AppendInt(b, int64(q.MinLen), 10)
	b = append(b, '|')
	b = strconv.AppendInt(b, int64(q.DocA), 10)
	b = append(b, '|')
	b = strconv.AppendInt(b, int64(q.DocB), 10)
	b = append(b, '|')
	b = strconv.AppendInt(b, int64(len(q.Pattern)), 10)
	b = append(b, ':')
	b = append(b, q.Pattern...)
	for _, p := range q.Patterns {
		b = append(b, '|')
		b = strconv.AppendInt(b, int64(len(p)), 10)
		b = append(b, ':')
		b = append(b, p...)
	}
	return b
}

// Analytics answers one analytics query against the monolithic index. It is
// the reference executor: the sharded and live executors must answer
// byte-identically. Membership kinds route through Batch (one dispatch
// surface either way); corrupt indexes surface ErrCorruptIndex. The long
// walks (topk enumeration, the lrs tree walk, the mismatch descent) poll ctx
// periodically, so a canceled or expired context abandons the work and
// returns ctx's error instead of pinning the worker until completion.
//
// An index whose tree holds one range of the suffix order (Range) answers
// topk, lrs, mismatch and docfreq over its range, the per-shard answers
// mergeShards takes — a docfreq document counts where its first occurrence
// of the pattern is held, so the shards' counts add up — and lcs over the two
// whole documents, which it holds (commonSubstring).
func (x *Index) Analytics(ctx context.Context, q Query) (Answer, error) {
	if err := q.Validate(nil, len(x.docEnds)); err != nil {
		return Answer{}, err
	}
	if err := x.CheckErr(); err != nil {
		return Answer{}, err
	}
	if err := ctx.Err(); err != nil {
		return Answer{}, err
	}
	stop := ctxStop(ctx)
	switch q.Kind {
	case OpTopK:
		sel := topSelection{k: q.K}
		eachLMer(x.tree, x.data, q.MinLen, stop, sel.offer)
		if err := ctx.Err(); err != nil {
			return Answer{}, err
		}
		return sel.answer(), nil
	case OpLongestRepeat:
		lbl, occ := suffixtree.LongestRepeated(x.tree, stop)
		if err := ctx.Err(); err != nil {
			return Answer{}, err
		}
		if len(lbl) == 0 {
			return Answer{}, nil
		}
		return Answer{Found: true, Pattern: lbl, Occurrences: occ, Count: len(occ)}, nil
	case OpCommonSubstring:
		return commonSubstring(ctx, x.docBytes(q.DocA), x.docBytes(q.DocB))
	case OpDocFreq:
		var counts func([]byte, DocHit) bool
		if x.partial() {
			counts = x.holdsFirst
		}
		return docFreqAnswer(ctx, q.Patterns, x.Batch, x.docEnds, counts)
	case OpMismatch:
		occ := suffixtree.MismatchSearch(x.tree, x.data, q.Pattern, q.K, alphabet.Terminator, stop)
		if err := ctx.Err(); err != nil {
			return Answer{}, err
		}
		return mismatchAnswer(occ, q.MaxOccurrences), nil
	}
	return x.Batch([]Query{q})[0], nil
}

// ctxStop adapts a context to the walk primitives' stop predicate: ctx.Err
// is sampled once per stopCheckInterval calls, so the per-node overhead is a
// counter increment, not a channel poll. A context that can never be
// canceled costs nothing: the predicate is nil and the walks skip the check
// entirely.
func ctxStop(ctx context.Context) func() bool {
	if ctx.Done() == nil {
		return nil
	}
	n := 0
	return func() bool {
		n++
		if n&(stopCheckInterval-1) != 0 {
			return false
		}
		return ctx.Err() != nil
	}
}

// stopCheckInterval is how many stop-predicate polls elapse between actual
// ctx.Err samples; must be a power of two.
const stopCheckInterval = 1024

// commonSubstring answers lcs for documents a and b from the suffix order of
// a '$' b '#': its suffix array and its permuted LCP array, read through the
// suffix array in rank order, so the call holds one LCP array and no
// rank-order copy of it. Both separators rank below every alphabet symbol
// and occur once, so no LCP between neighbours runs over one. The answer is as
// long as the largest LCP of neighbours that start on different sides of the
// '$', and the first such pair in suffix order names the smallest label of
// that length; its offsets are its first occurrence in each document. The
// cost is the two documents, whatever the corpus around them. The text, the
// suffix array and the LCPs are sorted into the process's kept lcs scratch
// (lcsSlot) when the pair fits lcsKeepSymbols and no other call holds it, so
// a warmed call allocates only SA-IS's own state and the answer's label,
// which is copied out before the scratch goes back; otherwise into fresh
// arrays.
func commonSubstring(ctx context.Context, a, b []byte) (Answer, error) {
	n := len(a) + len(b) + 2
	var sc lcsScratch
	if n <= lcsKeepSymbols {
		select {
		case sc = <-lcsSlot:
		default:
		}
		defer func() {
			select {
			case lcsSlot <- sc:
			default:
			}
		}()
	}
	text, sa, plcp := sc.fit(n)
	text = append(text, a...)
	text = append(text, alphabet.Terminator)
	text = append(text, b...)
	text = append(text, alphabet.Terminator-1)
	err := suffixarray.BuildInto(text, sa)
	if err == nil {
		err = ctx.Err()
	}
	if err == nil {
		err = suffixarray.PLCPInto(text, sa, plcp)
	}
	if err != nil {
		return Answer{}, err
	}
	best, at := 0, 0
	for i := 1; i < len(sa); i++ {
		if h := int(plcp[sa[i]]); h > best && (int(sa[i-1]) < len(a)) != (int(sa[i]) < len(a)) {
			best, at = h, int(sa[i])
		}
	}
	if best == 0 {
		return Answer{OffsetA: -1, OffsetB: -1}, nil
	}
	label := bytes.Clone(text[at : at+best])
	return Answer{Found: true, Pattern: label, OffsetA: bytes.Index(a, label), OffsetB: bytes.Index(b, label), Count: best}, nil
}

// lcsKeepSymbols caps the pair, in symbols of a '$' b '#', whose arrays
// commonSubstring keeps between calls: at 9 B per symbol, at most 2.25 MiB
// stays behind. A larger pair sorts into fresh arrays the collector takes
// back.
var lcsKeepSymbols = 256 << 10

// lcsSlot holds the kept lcs scratch, when no call holds it. A call takes it
// and puts it back without blocking: one that finds the slot empty sorts
// into fresh arrays and leaves them behind if the slot is still empty.
var lcsSlot = make(chan lcsScratch, 1)

// lcsScratch is the arrays one lcs call sorts its text into.
type lcsScratch struct {
	text    []byte
	sa, phi []int32
}

// fit returns the scratch's arrays for an n-symbol text, replacing any that
// is too short by a fresh one the scratch keeps: the text empty, with room
// for n bytes, and the suffix and LCP arrays at n entries.
func (sc *lcsScratch) fit(n int) ([]byte, []int32, []int32) {
	if cap(sc.text) < n {
		sc.text = make([]byte, 0, n)
	}
	if cap(sc.sa) < n {
		sc.sa, sc.phi = make([]int32, n), make([]int32, n)
	}
	return sc.text[:0], sc.sa[:n], sc.phi[:n]
}

// docBytes returns document ord's content, viewed in place.
func (x *Index) docBytes(ord int) []byte {
	start := 0
	if ord > 0 {
		start = int(x.docEnds[ord-1])
	}
	return x.data[start:x.docEnds[ord]]
}

// holdsFirst reports whether hit — the first occurrence of p in its document
// that this range index holds — is the document's first occurrence of p at
// all: whether this index, of the shards whose ranges p's suffixes straddle,
// is the one that counts the document in docfreq. When every suffix that
// begins with p is in the range the answer is yes without looking.
func (x *Index) holdsFirst(p []byte, hit DocHit) bool {
	if bytes.Compare(p, x.lo) >= 0 && (len(x.hi) == 0 || (bytes.Compare(p, x.hi) < 0 && !bytes.HasPrefix(x.hi, p))) {
		return true
	}
	return bytes.Index(x.docBytes(hit.Doc)[:hit.Offset+len(p)-1], p) < 0
}

// eachLMer enumerates, in lexicographic order, every distinct
// length-L content substring (windows containing the terminator are skipped)
// with its occurrence count — the depth-L loci walk with O(1)-amortized
// subtree counts. A label is the L bytes at the locus's first suffix, viewed
// in place and valid only during the call: the locus of a substring that
// occurs once is a leaf, whose path label is the whole suffix, so reading
// the path and slicing it would copy O(n) bytes per L-mer. A non-nil stop
// predicate (ctxStop) abandons the walk early; the caller re-checks its
// context afterwards and discards the partial aggregate.
func eachLMer(v *suffixtree.FlatTree, data []byte, L int, stop func() bool, add func(label []byte, count int)) {
	suffixtree.PrefixLoci(v, int32(L), func(node int32) bool {
		if stop != nil && stop() {
			return false
		}
		o := int(suffixtree.FirstLeaf(v, node))
		if o < 0 || o+L > len(data) {
			return true // defensive: corrupt layout
		}
		lbl := data[o : o+L]
		if bytes.IndexByte(lbl, alphabet.Terminator) >= 0 {
			return true
		}
		add(lbl, v.CountLeaves(node))
		return true
	})
}

// topSelection keeps the k best of a stream of distinct (label, count)
// candidates offered in ascending label order, under the canonical ranking:
// count descending, then label ascending. Arrival order stands in for the
// label comparison, so the selection is a min-heap on (count, −arrival)
// whose root is the entry that loses first; a label is copied only when its
// candidate enters the selection.
type topSelection struct {
	k    int
	heap []topCandidate
	seq  int
}

type topCandidate struct {
	count, seq int
	label      []byte
}

// loses reports whether candidate a ranks below candidate b.
func (a *topCandidate) loses(b *topCandidate) bool {
	if a.count != b.count {
		return a.count < b.count
	}
	return a.seq > b.seq
}

// offer presents the next candidate; label is only read during the call.
func (t *topSelection) offer(label []byte, count int) {
	t.seq++
	if len(t.heap) == t.k && count <= t.heap[0].count {
		return
	}
	h := t.heap
	if len(h) < t.k {
		h = append(h, topCandidate{count, t.seq, append([]byte(nil), label...)})
		t.heap = h
		for i := len(h) - 1; i > 0; { // sift up
			up := (i - 1) / 2
			if !h[i].loses(&h[up]) {
				break
			}
			h[i], h[up] = h[up], h[i]
			i = up
		}
		return
	}
	h[0] = topCandidate{count, t.seq, append(h[0].label[:0], label...)}
	for i := 0; ; { // sift down
		low := i
		for c := 2*i + 1; c <= 2*i+2 && c < len(h); c++ {
			if h[c].loses(&h[low]) {
				low = c
			}
		}
		if low == i {
			break
		}
		h[i], h[low] = h[low], h[i]
		i = low
	}
}

// answer ranks the selection into the OpTopK answer.
func (t *topSelection) answer() Answer {
	if len(t.heap) == 0 {
		return Answer{}
	}
	sort.Slice(t.heap, func(i, j int) bool { return t.heap[j].loses(&t.heap[i]) })
	top := make([]TopEntry, len(t.heap))
	for i, c := range t.heap {
		top[i] = TopEntry{Pattern: c.label, Count: c.count}
	}
	return Answer{Found: true, Top: top, Count: len(top)}
}

// The two consumers below are fed the suffixes of a text in lexicographic
// order, each with its offset, the LCP it shares with the suffix before it
// and the content bytes it has left before the next barrier (a gap or the end
// of the text); the LCP never reaches past a barrier.

// repeatScan is the lrs consumer: the longest repeated substring is as long
// as the largest LCP between neighbouring suffixes, the first pair reaching
// it names the lexicographically smallest such substring, and the unbroken
// run of LCPs at that length around the pair lists its occurrences.
type repeatScan struct {
	best int   // largest neighbour LCP so far
	occ  []int // suffixes of the first run reaching it
	open bool  // that run is still extending
	prev int   // the previous suffix
}

func (r *repeatScan) add(off, lcp, _ int) {
	switch {
	case lcp > r.best:
		r.best, r.open = lcp, true
		r.occ = append(r.occ[:0], r.prev, off)
	case lcp < r.best:
		r.open = false
	case r.open:
		r.occ = append(r.occ, off)
	}
	r.prev = off
}

// answer packages the scan of text.
func (r *repeatScan) answer(text []byte) Answer {
	if r.best == 0 {
		return Answer{}
	}
	sort.Ints(r.occ)
	label := append([]byte(nil), text[r.occ[0]:r.occ[0]+r.best]...)
	return Answer{Found: true, Pattern: label, Occurrences: r.occ, Count: len(r.occ)}
}

// topScan is the topk consumer: suffixes sharing their first l bytes are
// neighbours, so every distinct l-mer is one run of LCP ≥ l and its count
// the run's length. Suffixes with fewer than l content bytes left carry no
// window (and break every run: their LCP with anything is below l).
type topScan struct {
	l            int
	text         []byte // the scanned text
	sel          topSelection
	start, count int // the current run: its first suffix and its size
}

func (t *topScan) add(off, lcp, room int) {
	if room < t.l {
		return
	}
	if t.count > 0 && lcp >= t.l {
		t.count++
		return
	}
	t.flush()
	t.start, t.count = off, 1
}

// flush closes the current run into the selection.
func (t *topScan) flush() {
	if t.count > 0 {
		t.sel.offer(t.text[t.start:t.start+t.l], t.count)
		t.count = 0
	}
}

func (t *topScan) answer() Answer {
	t.flush()
	return t.sel.answer()
}

// textOrder is the suffix order of a text the segments of a live snapshot
// spell one after the other from offset 0 — the virtual global string —
// closed by the byte below the terminator: the unique smallest last symbol
// SA-IS needs, so no match runs over it. sa and lcp are suffixOrder's.
type textOrder struct {
	text    []byte
	sa, lcp []int32
}

// newTextOrder lays segs out and sorts them: SA-IS for the suffix order,
// Kasai for the neighbour LCPs, O(n) time whatever the content looks like.
func newTextOrder(segs []run) (*textOrder, error) {
	n := 1
	for _, r := range segs {
		n += len(r.Data)
	}
	text := make([]byte, 0, n)
	for _, r := range segs {
		text = append(text, r.Data...)
	}
	text = append(text, alphabet.Terminator-1)
	sa, lcp, err := suffixOrder(text)
	if err != nil {
		return nil, err
	}
	return &textOrder{text: text, sa: sa, lcp: lcp}, nil
}

// suffixOrderAnswer answers lrs or topk in one pass of the op's consumer over
// o. Both consumers copy what they keep of o.text, which outlives the answer.
func suffixOrderAnswer(ctx context.Context, q Query, o *textOrder) (Answer, error) {
	var rep repeatScan
	top := topScan{l: q.MinLen, text: o.text, sel: topSelection{k: q.K}}
	add := rep.add
	if q.Kind == OpTopK {
		add = top.add
	}
	stop := ctxStop(ctx)
	last := len(o.text) - 1
	for k, off := range o.sa {
		if stop != nil && stop() {
			return Answer{}, ctx.Err()
		}
		add(int(off), int(o.lcp[k]), last-int(off))
	}
	if q.Kind == OpTopK {
		return top.answer(), nil
	}
	return rep.answer(o.text), nil
}

// docFreqAnswer aggregates per-document stats for a pattern set. batch, the
// layer's own executor, answers one OpOccurrences op per pattern, a chunk of
// at most batchStackOps patterns per call, so a large set neither holds
// every occurrence list at once nor runs uncancelable: ctx is checked
// between chunks. docHits cuts each answer at the documents' ends. A non-nil
// counts decides, from its first hit, whether a document is counted
// (Index.holdsFirst); nil counts every document with a hit.
func docFreqAnswer[E int | int32](ctx context.Context, patterns [][]byte, batch func([]Op) []Result, ends []E, counts func([]byte, DocHit) bool) (Answer, error) {
	ans := Answer{Stats: make([]PatternStat, len(patterns))}
	ops := make([]Op, 0, min(len(patterns), batchStackOps))
	for lo := 0; lo < len(patterns); lo += batchStackOps {
		if err := ctx.Err(); err != nil {
			return Answer{}, err
		}
		chunk := patterns[lo:min(lo+batchStackOps, len(patterns))]
		ops = ops[:0]
		for _, p := range chunk {
			ops = append(ops, Op{Kind: OpOccurrences, Pattern: p})
		}
		for i, res := range batch(ops) {
			p, st := chunk[i], &ans.Stats[lo+i]
			hits := docHits(ends, res.Occurrences, len(p))
			st.Count = len(hits)
			last := -1
			for _, h := range hits {
				if h.Doc != last {
					if counts == nil || counts(p, h) {
						st.Docs++
					}
					last = h.Doc
				}
			}
			ans.Count += st.Count
			if st.Count > 0 {
				ans.Found = true
			}
		}
	}
	return ans, nil
}

// mismatchAnswer finalizes a sorted global match list under the cap. The
// empty answer is the zero Answer on every layer, so differential
// comparisons never see nil-versus-empty-slice noise.
func mismatchAnswer(occ []int, max int) Answer {
	if len(occ) == 0 {
		return Answer{}
	}
	ans := Answer{Found: true, Count: len(occ), Occurrences: occ}
	if max > 0 && len(occ) > max {
		ans.Occurrences = occ[:max]
	}
	return ans
}

// hammingAtMost reports whether the two equal-length byte windows differ in
// at most k positions.
func hammingAtMost(a, b []byte, k int) bool {
	mis := 0
	for i := range a {
		if a[i] != b[i] {
			mis++
			if mis > k {
				return false
			}
		}
	}
	return true
}

// crossingWindows invokes fn for every length-m content window of the
// virtual global string that no per-segment tree can see — those crossing a
// junction, deduplicated across junctions, and those inside an unindexed run
// (the regions crossingOccurrences scans) — in ascending start order; start
// is the global window offset and window its bytes, valid only during the
// call. Windows touching the virtual terminator are excluded — analytics
// windows are content-only.
func (ss *stitch) crossingWindows(m int, fn func(start int, window []byte)) {
	ss.eachRegion(m, ss.totalLen-1, func(off int, data []byte, from, limit int) bool {
		for s := from; s < limit && s+m <= len(data); s++ {
			fn(off+s, data[s:s+m])
		}
		return true
	})
}
