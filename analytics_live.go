package era

import (
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
// scan touches no tombstoned byte and no tier tree at all. lrs, topk and lcs
// do not fan out at all: lrs and topk are read off the suffix array of the
// virtual string laid out from the live segments (suffixOrderAnswer), which is
// linear on any input and has junctions, tombstones and the memtable already
// resolved, and lcs off that of its two documents (commonSubstring).
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
	case OpTopK, OpLongestRepeat:
		return suffixOrderAnswer(ctx, q, s.segs)
	case OpCommonSubstring:
		return commonSubstring(ctx, s.docBytes(q.DocA), s.docBytes(q.DocB))
	case OpDocFreq:
		return docFreqAnswer(q.Patterns, ctxDocOcc(ctx, func(p []byte) ([]DocHit, error) {
			return s.docOccurrences(p), nil
		}), nil)
	case OpMismatch:
		ans := s.mismatch(ctx, q)
		if err := ctx.Err(); err != nil {
			return Answer{}, err
		}
		return ans, nil
	}
	return s.batch([]Query{q})[0], nil
}

func (s *liveSnapshot) mismatch(ctx context.Context, q Query) Answer {
	parts := make([]part, len(s.tiers))
	s.fanOut(func(i int, t *liveTier) {
		raw := suffixtree.MismatchSearch(t.h.idx.tree, t.h.idx.data, q.Pattern, q.K, alphabet.Terminator, ctxStop(ctx))
		occ := make([]int, len(raw))
		for j, o := range raw {
			occ[j] = int(o)
		}
		sort.Ints(occ)
		if t.nDead > 0 {
			occ = t.translate(occ, len(q.Pattern), 0)
		}
		parts[i] = part{Off: t.shift(), Count: len(occ), Occurrences: occ}
	})
	return s.stitch.merge(q, parts)
}
