package era

import (
	"bytes"
	"context"
	"reflect"
	"slices"
	"testing"

	"era/internal/suffixarray"
)

// TestStitchMergeAbsentParts pins the live executor's merge (stitch.merge):
// the parts are the answers three document-aligned tiers give about
// themselves, and each part is absent in turn. What is left must merge into
// what a monolithic build of the surviving documents answers, in corpus
// offsets, minus the matches that build sees across the splice where the
// absent tier was (its neighbours do not touch in the corpus, and the stitch
// has no junction there).
func TestStitchMergeAbsentParts(t *testing.T) {
	ctx := context.Background()
	docs := shardTestCorpus(t, 24, 7)
	concat := append(bytes.Join(docs, nil), '$')
	cuts := []int{0, 8, 16, 24} // tier i holds documents [cuts[i], cuts[i+1])
	edges := []int{0}           // tier i holds corpus bytes [edges[i], edges[i+1])
	var tiers []*Index
	for i := 0; i+1 < len(cuts); i++ {
		tier, err := BuildCorpus(docs[cuts[i]:cuts[i+1]], nil)
		if err != nil {
			t.Fatal(err)
		}
		tiers = append(tiers, tier)
		edges = append(edges, edges[i]+tier.Len()-1)
	}

	var ops []Op
	for i, p := range shardTestPatterns(docs, 3) {
		if len(p) == 0 || bytes.IndexByte(p, '$') >= 0 {
			continue // the executor answers these before any merge
		}
		ops = append(ops,
			Op{Kind: OpContains, Pattern: p},
			Op{Kind: OpCount, Pattern: p},
			Op{Kind: OpOccurrences, Pattern: p, MaxOccurrences: i % 3},
			Op{Kind: OpMismatch, Pattern: p, K: 1, MaxOccurrences: (i + 1) % 3})
	}

	for absent := -1; absent < len(tiers); absent++ {
		// The surviving tiers: their documents, their own answers, and the
		// junctions with both sides present.
		var surviving [][]byte
		var bounds []int
		answers := map[int][]Result{}
		for i, tier := range tiers {
			if i == absent {
				continue
			}
			surviving = append(surviving, docs[cuts[i]:cuts[i+1]]...)
			if i > 0 && i-1 != absent {
				bounds = append(bounds, edges[i])
			}
			for _, op := range ops {
				a, err := tier.Analytics(ctx, op) // membership kinds route through Batch
				if err != nil {
					t.Fatal(err)
				}
				answers[i] = append(answers[i], a)
			}
		}
		// The stitch's runs are the corpus cut at those junctions: the
		// absent tier's bytes stay inside a run, where no scan crosses them.
		var segs []run
		lo := 0
		for _, b := range append(bounds, len(concat)-1) {
			segs = append(segs, run{Off: lo, Local: lo, Data: concat[lo:b], Indexed: true})
			lo = b
		}
		st := &stitch{totalLen: len(concat), segs: segs}
		mono, err := BuildCorpus(surviving, nil)
		if err != nil {
			t.Fatal(err)
		}
		// A monolithic offset at or past the splice sits the absent tier's
		// length further on in the corpus; a match across the splice is not one.
		splice, gap := -1, 0
		if absent >= 0 {
			splice, gap = edges[absent], edges[absent+1]-edges[absent]
		}

		for oi, op := range ops {
			var parts []part
			for i := range tiers {
				if a, ok := answers[i]; ok {
					parts = append(parts, part{Off: edges[i], Found: a[oi].Found, Count: a[oi].Count, Occurrences: a[oi].Occurrences})
				}
			}
			got := st.merge(op, parts)

			all := op
			all.MaxOccurrences = 0
			if op.Kind != OpMismatch {
				all.Kind = OpOccurrences
			}
			ref, err := mono.Analytics(ctx, all)
			if err != nil {
				t.Fatal(err)
			}
			var occ []int
			for _, o := range ref.Occurrences {
				switch {
				case o >= splice:
					occ = append(occ, o+gap)
				case o+len(op.Pattern) <= splice:
					occ = append(occ, o)
				}
			}
			want := Result{Found: len(occ) > 0}
			if op.Kind != OpContains {
				want.Count = len(occ)
			}
			if op.Kind != OpContains && op.Kind != OpCount && want.Found {
				want.Occurrences = occ
				if op.MaxOccurrences > 0 && len(occ) > op.MaxOccurrences {
					want.Occurrences = occ[:op.MaxOccurrences]
				}
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("tier %d absent: %s %q (k %d, max %d)\n got %+v\nwant %+v", absent, op.Kind, op.Pattern, op.K, op.MaxOccurrences, got, want)
			}
		}
	}
}

// TestMergeShardsAbsentParts pins mergeShards the way RouteOps drives it
// when a shard is down: the parts are the answers of a ShardedIndex's shards,
// each absent in turn, and member answers over the shards that are left. The
// merge must then answer over the suffixes the surviving ranges hold, as an
// oracle over the suffix array computes it: membership and mismatch count the
// surviving suffixes that match; topk counts the L-mers they start; lrs is
// the longest LCP of two neighbouring surviving suffixes whose shards both
// answered (a cut to a missing shard is no pair), the smallest such repeat,
// and every surviving suffix it begins.
func TestMergeShardsAbsentParts(t *testing.T) {
	ctx := context.Background()
	docs := shardTestCorpus(t, 24, 7)
	sx, err := BuildShardedCorpus(docs, &ShardConfig{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	text := append(bytes.Join(docs, nil), '$')
	n := len(text)
	sa, err := suffixarray.Build(text)
	if err != nil {
		t.Fatal(err)
	}
	lcp := suffixarray.LCP(text, sa)
	shardOf := make([]int, n) // by rank
	for i, r := 0, 0; i < sx.NumShards(); i++ {
		sh, _ := sx.Shard(i)
		for end := r + sh.tree.NumLeaves(); r < end; r++ {
			shardOf[r] = i
		}
	}

	var queries []Query
	for i, p := range shardTestPatterns(docs, 3) {
		queries = append(queries,
			Query{Kind: OpCount, Pattern: p},
			Query{Kind: OpOccurrences, Pattern: p, MaxOccurrences: i % 3})
		if len(p) > 0 && bytes.IndexByte(p, '$') < 0 {
			queries = append(queries, Query{Kind: OpMismatch, Pattern: p, K: 1, MaxOccurrences: (i + 1) % 3})
		}
	}
	for _, key := range sx.keys[1:] { // the patterns two shards share
		queries = append(queries, Query{Kind: OpOccurrences, Pattern: key[:len(key)-1]})
		if len(key) > 1 {
			queries = append(queries, Query{Kind: OpTopK, K: 5, MinLen: len(key) - 1})
		}
	}
	queries = append(queries, Query{Kind: OpLongestRepeat}, Query{Kind: OpTopK, K: 4, MinLen: 1}, Query{Kind: OpTopK, K: 10, MinLen: 3})

	for absent := -1; absent < sx.NumShards(); absent++ {
		live := func(r int) bool { return shardOf[r] != absent }
		member := func(op Op) (Result, error) {
			parts := make([]*Answer, sx.NumShards())
			first, last := sx.owners(op.Pattern)
			for s := first; s <= last; s++ {
				if s != absent {
					a := sx.shards[s].Batch([]Op{op})[0]
					parts[s] = &a
				}
			}
			return mergeShards(op, sx.keys, parts, nil)
		}
		for _, q := range queries {
			parts := make([]*Answer, sx.NumShards())
			for _, s := range analyticsShards(q, sx.keys) {
				if s != absent {
					a, err := sx.shards[s].Analytics(ctx, q)
					if err != nil {
						t.Fatal(err)
					}
					parts[s] = &a
				}
			}
			got, err := mergeShards(q, sx.keys, parts, member)
			if err != nil {
				t.Fatal(err)
			}

			var want Answer
			switch q.Kind {
			case OpTopK:
				agg := map[string]int{}
				for r, o := range sa {
					if live(r) && int(o)+q.MinLen < n {
						agg[string(text[o:int(o)+q.MinLen])]++
					}
				}
				want = topAnswer(agg, q.K)
			case OpLongestRepeat:
				best, label := 0, []byte(nil)
				for r := 1; r < n; r++ {
					a, b := shardOf[r-1], shardOf[r]
					if a == absent || b == absent {
						continue
					}
					l := int(lcp[r])
					if w := text[sa[r] : int(sa[r])+l]; l > best || (l == best && l > 0 && bytes.Compare(w, label) < 0) {
						best, label = l, w
					}
				}
				if best > 0 {
					var occ []int
					for r, o := range sa {
						if live(r) && bytes.HasPrefix(text[o:], label) {
							occ = append(occ, int(o))
						}
					}
					slices.Sort(occ)
					want = Answer{Found: true, Pattern: label, Occurrences: occ, Count: len(occ)}
				}
			default:
				var occ []int
				for r, o := range sa {
					w := text[o:min(int(o)+len(q.Pattern), n)]
					match := bytes.HasPrefix(text[o:], q.Pattern)
					if q.Kind == OpMismatch {
						match = len(w) == len(q.Pattern) && bytes.IndexByte(w, '$') < 0 && hammingAtMost(w, q.Pattern, q.K)
					}
					if live(r) && match {
						occ = append(occ, int(o))
					}
				}
				slices.Sort(occ)
				if len(occ) > 0 {
					want = Answer{Found: true, Count: len(occ)}
					if q.Kind != OpCount {
						if q.MaxOccurrences > 0 && len(occ) > q.MaxOccurrences {
							occ = occ[:q.MaxOccurrences]
						}
						want.Occurrences = occ
					}
				}
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("shard %d absent: %s %q k=%d L=%d max %d\n got %+v\nwant %+v", absent, q.Kind, q.Pattern, q.K, q.MinLen, q.MaxOccurrences, got, want)
			}
		}
	}
}
