package era

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"

	"era/internal/alphabet"
	"era/internal/suffixtree"
)

// This file is the query-plan layer: one typed representation (Query →
// Answer) for every operation the package answers — the membership family
// (contains/count/occurrences) and the analytics family the suffix tree's
// structure makes cheap (§1 of the paper motivates suffix trees for exactly
// these): top-k most frequent substrings of a length, longest repeated
// substring, longest common substring across documents, document-frequency
// stats for a pattern set, and k-mismatch search via bounded-branching
// descent. There are two in-process executors: Index.Analytics walks one
// tree, and liveSnapshot.analytics (analytics_live.go) merges tiers — it is
// what both LiveIndex.Analytics and ShardedIndex.Analytics run, a sharded
// index being the zero-tombstone case. Dispatch and parameter validation
// live here, once.
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
func (q *Query) Fingerprint() string {
	var b []byte
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
	return string(b)
}

// Analytics answers one analytics query against the monolithic index. It is
// the reference executor: the sharded and live executors must answer
// byte-identically. Membership kinds route through Batch (one dispatch
// surface either way); corrupt indexes surface ErrCorruptIndex. The long
// walks (topk enumeration, the lrs tree walk, the mismatch descent) poll ctx
// periodically, so a canceled or expired context abandons the work and
// returns ctx's error instead of pinning the worker until completion.
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
		agg := map[string]int{}
		collectPrefixCounts(x.tree, q.MinLen, stop, func(label []byte, count int) {
			agg[string(label)] += count
		})
		if err := ctx.Err(); err != nil {
			return Answer{}, err
		}
		return topAnswer(agg, q.K), nil
	case OpLongestRepeat:
		lbl, occ := suffixtree.LongestRepeated(x.tree, stop)
		if err := ctx.Err(); err != nil {
			return Answer{}, err
		}
		if len(lbl) == 0 {
			return Answer{}, nil
		}
		out := make([]int, len(occ))
		for i, o := range occ {
			out[i] = int(o)
		}
		sort.Ints(out)
		return Answer{Found: true, Pattern: lbl, Occurrences: out, Count: len(out)}, nil
	case OpCommonSubstring:
		return x.commonSubstring(ctx, q.DocA, q.DocB)
	case OpDocFreq:
		return docFreqAnswer(q.Patterns, ctxDocOcc(ctx, x.DocOccurrences))
	case OpMismatch:
		occ := suffixtree.MismatchSearch(x.tree, x.data, q.Pattern, q.K, alphabet.Terminator, stop)
		if err := ctx.Err(); err != nil {
			return Answer{}, err
		}
		out := make([]int, len(occ))
		for i, o := range occ {
			out[i] = int(o)
		}
		sort.Ints(out)
		return mismatchAnswer(out, q.MaxOccurrences), nil
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

// ctxDocOcc wraps a DocOccurrences implementation with a per-pattern ctx
// check, so a canceled docfreq query stops between patterns instead of
// scanning the whole set.
func ctxDocOcc(ctx context.Context, docOcc func([]byte) ([]DocHit, error)) func([]byte) ([]DocHit, error) {
	if ctx.Done() == nil {
		return docOcc
	}
	return func(p []byte) ([]DocHit, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return docOcc(p)
	}
}

// commonSubstring finds the longest substring occurring (non-crossing) in
// both documents a and b: one post-order pass computing, per internal node,
// the per-document slack (the largest depth at which the node still has a
// non-crossing occurrence in the document); the answer length is the
// maximum over nodes of min(depth, slackA, slackB), which also covers
// answers whose locus lies mid-edge. Only the two requested documents are
// tracked, so corpora of any document count are supported.
func (x *Index) commonSubstring(ctx context.Context, a, b int) (Answer, error) {
	stop := ctxStop(ctx)
	t := x.tree
	n := t.NumNodes()
	sa := make([]int32, n)
	sb := make([]int32, n)
	contentEnd := x.docEnds[len(x.docEnds)-1]
	type frame struct {
		id      int32
		depth   int32
		visited bool
	}
	var bestLen int32
	var cands []int32
	stack := []frame{{t.Root(), 0, false}}
	budget := 2 * n
	for len(stack) > 0 && budget > 0 {
		if stop != nil && stop() {
			return Answer{}, ctx.Err()
		}
		budget--
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if !f.visited {
			stack = append(stack, frame{f.id, f.depth, true})
			t.ForEachChild(f.id, func(c int32) bool {
				stack = append(stack, frame{c, f.depth + t.EdgeLen(c), false})
				return true
			})
			continue
		}
		sa[f.id], sb[f.id] = -1, -1
		if t.IsLeaf(f.id) {
			if o := t.Suffix(f.id); o >= 0 && o < contentEnd {
				doc, _ := x.docOf(o)
				if doc == a {
					sa[f.id] = x.docEnds[doc] - o
				}
				if doc == b {
					sb[f.id] = x.docEnds[doc] - o
				}
			}
			continue
		}
		t.ForEachChild(f.id, func(c int32) bool {
			if sa[c] > sa[f.id] {
				sa[f.id] = sa[c]
			}
			if sb[c] > sb[f.id] {
				sb[f.id] = sb[c]
			}
			return true
		})
		if f.id == t.Root() {
			continue
		}
		v := f.depth
		if sa[f.id] < v {
			v = sa[f.id]
		}
		if sb[f.id] < v {
			v = sb[f.id]
		}
		if v > bestLen {
			bestLen, cands = v, cands[:0]
		}
		if v == bestLen && v > 0 {
			cands = append(cands, f.id)
		}
	}
	if bestLen == 0 {
		return Answer{OffsetA: -1, OffsetB: -1}, nil
	}
	var label []byte
	for _, id := range cands {
		l := t.PathLabel(id)
		if int32(len(l)) > bestLen {
			l = l[:bestLen]
		}
		if label == nil || bytes.Compare(l, label) < 0 {
			label = l
		}
	}
	offA, offB := x.minDocOffset(label, a), x.minDocOffset(label, b)
	return Answer{Found: true, Pattern: label, OffsetA: offA, OffsetB: offB, Count: len(label)}, nil
}

// minDocOffset returns the smallest non-crossing occurrence offset of
// pattern inside document doc, or -1.
func (x *Index) minDocOffset(pattern []byte, doc int) int {
	best := -1
	for _, o := range x.tree.Occurrences(pattern) {
		d, start := x.docOf(o)
		if d != doc || int(o)+len(pattern) > int(x.docEnds[d]) {
			continue
		}
		if off := int(o) - start; best < 0 || off < best {
			best = off
		}
	}
	return best
}

// collectPrefixCounts enumerates every distinct length-L content substring
// (windows containing the terminator are skipped) with its occurrence count
// — the depth-L loci walk with O(1)-amortized subtree counts. A non-nil
// stop predicate (ctxStop) abandons the walk early; the caller re-checks
// its context afterwards and discards the partial aggregate.
func collectPrefixCounts(v suffixtree.View, L int, stop func() bool, add func(label []byte, count int)) {
	suffixtree.PrefixLoci(v, int32(L), func(node int32) bool {
		if stop != nil && stop() {
			return false
		}
		lbl := v.PathLabel(node)
		if len(lbl) < L {
			return true // defensive: corrupt layout
		}
		lbl = lbl[:L]
		if bytes.IndexByte(lbl, alphabet.Terminator) >= 0 {
			return true
		}
		add(lbl, v.CountLeaves(node))
		return true
	})
}

// topAnswer ranks the aggregated substring counts: count descending, then
// pattern ascending; the top k entries win.
func topAnswer(agg map[string]int, k int) Answer {
	entries := make([]TopEntry, 0, len(agg))
	for s, c := range agg {
		entries = append(entries, TopEntry{Pattern: []byte(s), Count: c})
	}
	if len(entries) == 0 {
		return Answer{}
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].Count != entries[j].Count {
			return entries[i].Count > entries[j].Count
		}
		return bytes.Compare(entries[i].Pattern, entries[j].Pattern) < 0
	})
	if len(entries) > k {
		entries = entries[:k]
	}
	return Answer{Found: true, Top: entries, Count: len(entries)}
}

// docFreqAnswer aggregates per-document stats for a pattern set through any
// layer's DocOccurrences (whose cross-layer identity is already pinned).
func docFreqAnswer(patterns [][]byte, docOcc func([]byte) ([]DocHit, error)) (Answer, error) {
	ans := Answer{Stats: make([]PatternStat, len(patterns))}
	for i, p := range patterns {
		hits, err := docOcc(p)
		if err != nil {
			return Answer{}, err
		}
		st := &ans.Stats[i]
		st.Count = len(hits)
		last := -1
		for _, h := range hits {
			if h.Doc != last {
				st.Docs++
				last = h.Doc
			}
		}
		ans.Count += st.Count
		if st.Count > 0 {
			ans.Found = true
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
// junction, deduplicated across junctions, and those inside an uncovered run
// (the regions crossingOccurrences scans) — in ascending start order; start
// is the global window offset and window its bytes, valid only during the
// call. Windows touching the virtual terminator are excluded — analytics
// windows are content-only.
func (ss *stitchString) crossingWindows(m int, fn func(start int, window []byte)) {
	ss.eachRegion(m, ss.totalLen-1, func(off int, data []byte, from, limit int) bool {
		for s := from; s < limit && s+m <= len(data); s++ {
			fn(off+s, data[s:s+m])
		}
		return true
	})
}

// The rolling-hash helpers below power the stitched (sharded and live)
// executors for longest-repeated and longest-common substring: candidate
// lengths binary-search over window-hash tables of the materialized virtual
// string, with every hash hit verified byte-for-byte before it counts, so
// collisions cost time, never correctness.

const hashBase = 1099511628211 // FNV prime; any odd multiplier works

// windowHashes returns the rolling polynomial hash of every length-m window
// of s (len(s)-m+1 of them).
func windowHashes(s []byte, m int) []uint64 {
	if m <= 0 || m > len(s) {
		return nil
	}
	var pow uint64 = 1
	for i := 1; i < m; i++ {
		pow *= hashBase
	}
	out := make([]uint64, len(s)-m+1)
	var h uint64
	for i := 0; i < m; i++ {
		h = h*hashBase + uint64(s[i])
	}
	out[0] = h
	for i := m; i < len(s); i++ {
		h = (h-uint64(s[i-m])*pow)*hashBase + uint64(s[i])
		out[i-m+1] = h
	}
	return out
}

// hasRepeatedWindow reports whether some length-m substring of content
// occurs at least twice. A non-nil stop predicate abandons the scan early
// (reporting false); the caller re-checks its context and discards the
// misled binary search.
func hasRepeatedWindow(content []byte, m int, stop func() bool) bool {
	hs := windowHashes(content, m)
	if hs == nil {
		return false
	}
	byHash := make(map[uint64][]int32, len(hs))
	for i, h := range hs {
		if stop != nil && stop() {
			return false
		}
		for _, j := range byHash[h] {
			if bytes.Equal(content[i:i+m], content[j:int(j)+m]) {
				return true
			}
		}
		byHash[h] = append(byHash[h], int32(i))
	}
	return false
}

// longestRepeatContent computes the canonical longest-repeated-substring
// answer directly over the materialized content: the longest length is
// binary-searched above the caller's known-achievable lower bound (0 when
// unknown), the lexicographically smallest repeated substring of that
// length wins, and its ascending occurrence positions are returned. A
// canceled ctx abandons the search and returns ctx's error.
func longestRepeatContent(ctx context.Context, content []byte, lo int) (label []byte, occ []int, err error) {
	n := len(content)
	if n < 2 {
		return nil, nil, ctx.Err()
	}
	stop := ctxStop(ctx)
	best := lo
	l, r := lo+1, n-1
	for l <= r {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		mid := (l + r) / 2
		if hasRepeatedWindow(content, mid, stop) {
			best = mid
			l = mid + 1
		} else {
			r = mid - 1
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	if best == 0 {
		return nil, nil, nil
	}
	// Group the best-length windows by hash, split groups by actual bytes,
	// and take the lexicographically smallest substring repeating ≥ 2×.
	hs := windowHashes(content, best)
	byHash := make(map[uint64][]int32, len(hs))
	for i, h := range hs {
		byHash[h] = append(byHash[h], int32(i))
	}
	for _, group := range byHash {
		if len(group) < 2 {
			continue
		}
		for gi, i := range group {
			dup := false
			for _, j := range group[gi+1:] {
				if bytes.Equal(content[i:int(i)+best], content[j:int(j)+best]) {
					dup = true
					break
				}
			}
			if dup {
				w := content[i : int(i)+best]
				if label == nil || bytes.Compare(w, label) < 0 {
					label = w
				}
			}
		}
	}
	if label == nil {
		return nil, nil, nil // unreachable unless the binary search was misled
	}
	for i := 0; i+best <= n; {
		rel := bytes.Index(content[i:], label)
		if rel < 0 {
			break
		}
		occ = append(occ, i+rel)
		i += rel + 1
	}
	return append([]byte(nil), label...), occ, nil
}

// lcsTwoStrings computes the canonical longest-common-substring answer for
// two raw document byte strings: longest first, lexicographically smallest
// among equals, with the smallest occurrence offset in each document.
func lcsTwoStrings(A, B []byte) (label []byte, offA, offB int) {
	maxLen := len(A)
	if len(B) < maxLen {
		maxLen = len(B)
	}
	common := func(m int) bool {
		ha := windowHashes(A, m)
		byHash := make(map[uint64][]int32, len(ha))
		for i, h := range ha {
			byHash[h] = append(byHash[h], int32(i))
		}
		for j, h := range windowHashes(B, m) {
			for _, i := range byHash[h] {
				if bytes.Equal(B[j:j+m], A[i:int(i)+m]) {
					return true
				}
			}
		}
		return false
	}
	best := 0
	l, r := 1, maxLen
	for l <= r {
		mid := (l + r) / 2
		if common(mid) {
			best = mid
			l = mid + 1
		} else {
			r = mid - 1
		}
	}
	if best == 0 {
		return nil, -1, -1
	}
	ha := windowHashes(A, best)
	byHash := make(map[uint64][]int32, len(ha))
	for i, h := range ha {
		byHash[h] = append(byHash[h], int32(i))
	}
	for j, h := range windowHashes(B, best) {
		for _, i := range byHash[h] {
			if bytes.Equal(B[j:j+best], A[i:int(i)+best]) {
				w := A[i : int(i)+best]
				if label == nil || bytes.Compare(w, label) < 0 {
					label = w
				}
			}
		}
	}
	offA = bytes.Index(A, label)
	offB = bytes.Index(B, label)
	return append([]byte(nil), label...), offA, offB
}
