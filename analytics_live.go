package era

import (
	"bytes"
	"context"
	"fmt"
	"sort"

	"era/internal/alphabet"
	"era/internal/suffixtree"
)

// Analytics answers one analytics query against the live corpus,
// byte-identically to a from-scratch BuildCorpus over the surviving
// documents. The whole query runs against one acquired snapshot, so it sees
// a single mutation epoch regardless of concurrent appends and deletes.
func (lx *LiveIndex) Analytics(ctx context.Context, q Query) (Answer, error) {
	s := lx.acquire()
	if s == nil {
		return Answer{}, errLiveClosed
	}
	defer s.release()
	return s.analytics(ctx, q)
}

// checkErr surfaces the first tier whose checksums fail verification.
func (s *liveSnapshot) checkErr() error {
	for i, t := range s.tiers {
		if err := t.h.idx.CheckErr(); err != nil {
			return fmt.Errorf("tier %d: %w", i, err)
		}
	}
	return nil
}

// analytics is the tier-merging executor. Tombstones never relax the answer
// discipline: a tier with dead documents contributes only matches that
// start in a live document and stay inside its live run (translate), and
// the stitched scans see only live content — the virtual global string is
// assembled from live segments, so a `$`-window, junction or uncovered-run
// scan touches no tombstoned byte and no tier tree at all.
func (s *liveSnapshot) analytics(ctx context.Context, q Query) (Answer, error) {
	if err := q.Validate(nil, s.numDocs); err != nil {
		return Answer{}, err
	}
	if err := s.checkErr(); err != nil {
		return Answer{}, err
	}
	if err := ctx.Err(); err != nil {
		return Answer{}, err
	}
	switch q.Kind {
	case OpTopK:
		ans := s.topK(ctx, q)
		if err := ctx.Err(); err != nil {
			return Answer{}, err
		}
		return ans, nil
	case OpLongestRepeat:
		// Clean tiers' tree answers are sound lower bounds (their content is
		// contiguous live content); tiers with tombstones are skipped — a
		// repeat inside one may span dead bytes, so the tree answer is not a
		// live repeat. The stitched search settles the true length either way.
		lo := 0
		s.fanOutClean(func(t *liveTier) int {
			lbl, _ := suffixtree.LongestRepeated(t.h.idx.tree, ctxStop(ctx))
			return len(lbl)
		}, &lo)
		if err := ctx.Err(); err != nil {
			return Answer{}, err
		}
		content := s.globalSlice(nil, 0, s.totalLen-1)
		label, occ, err := longestRepeatContent(ctx, content, lo)
		if err != nil {
			return Answer{}, err
		}
		return Answer{Found: label != nil, Pattern: label, Occurrences: occ, Count: len(occ)}, nil
	case OpCommonSubstring:
		label, offA, offB := lcsTwoStrings(s.docBytes(q.DocA), s.docBytes(q.DocB))
		return Answer{Found: label != nil, Pattern: label, OffsetA: offA, OffsetB: offB, Count: len(label)}, nil
	case OpDocFreq:
		return docFreqAnswer(q.Patterns, ctxDocOcc(ctx, func(p []byte) ([]DocHit, error) {
			return s.docOccurrences(p), nil
		}))
	case OpMismatch:
		ans := s.mismatch(ctx, q)
		if err := ctx.Err(); err != nil {
			return Answer{}, err
		}
		return ans, nil
	}
	return s.batch([]Query{q})[0], nil
}

// fanOutClean folds f over the clean (tombstone-free) tiers, keeping the
// maximum in *acc; tiers run concurrently through fanOut.
func (s *liveSnapshot) fanOutClean(f func(t *liveTier) int, acc *int) {
	vals := make([]int, len(s.tiers))
	s.fanOut(func(i int, t *liveTier) {
		if t.nDead == 0 {
			vals[i] = f(t)
		}
	})
	for _, v := range vals {
		if v > *acc {
			*acc = v
		}
	}
}

func (s *liveSnapshot) topK(ctx context.Context, q Query) Answer {
	L := q.MinLen
	perTier := make([]map[string]int, len(s.tiers))
	s.fanOut(func(i int, t *liveTier) {
		m := map[string]int{}
		idx := t.h.idx
		stop := ctxStop(ctx)
		if t.nDead == 0 {
			collectPrefixCounts(idx.tree, L, stop, func(label []byte, count int) {
				m[string(label)] += count
			})
		} else {
			// Tombstoned tiers count through full occurrence enumeration
			// plus translate, so only live windows contribute.
			suffixtree.PrefixLoci(idx.tree, int32(L), func(node int32) bool {
				if stop != nil && stop() {
					return false
				}
				lbl := idx.tree.PathLabel(node)
				if len(lbl) < L {
					return true
				}
				lbl = lbl[:L]
				if bytes.IndexByte(lbl, alphabet.Terminator) >= 0 {
					return true
				}
				leaves := idx.tree.Leaves(node)
				occ := make([]int, len(leaves))
				for j, o := range leaves {
					occ[j] = int(o)
				}
				sort.Ints(occ)
				if c := len(t.translate(occ, L, 0)); c > 0 {
					m[string(lbl)] += c
				}
				return true
			})
		}
		perTier[i] = m
	})
	if ctx.Err() != nil {
		return Answer{} // discarded by the caller's ctx re-check
	}
	agg := map[string]int{}
	for _, m := range perTier {
		for sub, c := range m {
			agg[sub] += c
		}
	}
	s.stitch.crossingWindows(L, func(_ int, window []byte) {
		agg[string(window)]++
	})
	ans := topAnswer(agg, q.K)
	for _, e := range ans.Top {
		if s.count(e.Pattern) != e.Count {
			for sub := range agg {
				agg[sub] = s.count([]byte(sub))
			}
			return topAnswer(agg, q.K)
		}
	}
	return ans
}

func (s *liveSnapshot) mismatch(ctx context.Context, q Query) Answer {
	m := len(q.Pattern)
	perTier := make([][]int, len(s.tiers))
	s.fanOut(func(i int, t *liveTier) {
		raw := suffixtree.MismatchSearch(t.h.idx.tree, t.h.idx.data, q.Pattern, q.K, alphabet.Terminator, ctxStop(ctx))
		occ := make([]int, len(raw))
		for j, o := range raw {
			occ[j] = int(o)
		}
		sort.Ints(occ)
		if t.nDead == 0 {
			for j := range occ {
				occ[j] += t.gStart[0]
			}
			perTier[i] = occ
		} else {
			perTier[i] = t.translate(occ, m, 0)
		}
	})
	var crossing []int
	s.stitch.crossingWindows(m, func(start int, window []byte) {
		if hammingAtMost(window, q.Pattern, q.K) {
			crossing = append(crossing, start)
		}
	})
	return mismatchAnswer(mergeOccurrences(perTier, crossing, 0), q.MaxOccurrences)
}
