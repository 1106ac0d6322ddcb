package era

import (
	"bytes"
	"context"
	"reflect"
	"testing"
)

// TestStitchMergeAbsentParts pins Stitch.Merge — the one merge the in-process
// partitioned executor and the cluster router both call — the way the router
// drives it: the parts are the answers the three shards of a ShardedIndex give
// about themselves, and each part is absent in turn. What is left must merge
// into what a monolithic build of the surviving documents answers, in corpus
// offsets, minus the matches that build sees across the splice where the
// absent shard was (its neighbours do not touch in the corpus, and the router
// drops the junction windows it cannot fetch).
func TestStitchMergeAbsentParts(t *testing.T) {
	ctx := context.Background()
	docs := shardTestCorpus(t, 24, 7)
	sx, err := BuildShardedCorpus(docs, &ShardConfig{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	concat := append(bytes.Join(docs, nil), '$')
	edges := []int{0} // shard i holds corpus bytes [edges[i], edges[i+1])
	for i := 0; i < sx.NumShards(); i++ {
		sh, _ := sx.Shard(i)
		edges = append(edges, edges[i]+sh.Len()-1)
	}

	var ops []Op
	for i, p := range shardTestPatterns(docs, 3) {
		if len(p) == 0 || bytes.IndexByte(p, '$') >= 0 {
			continue // the executors answer these before any merge
		}
		ops = append(ops,
			Op{Kind: OpContains, Pattern: p},
			Op{Kind: OpCount, Pattern: p},
			Op{Kind: OpOccurrences, Pattern: p, MaxOccurrences: i % 3},
			Op{Kind: OpMismatch, Pattern: p, K: 1, MaxOccurrences: (i + 1) % 3})
	}

	for absent := -1; absent < sx.NumShards(); absent++ {
		// The surviving shards: their documents, their own answers, and the
		// junctions with both sides present.
		var surviving [][]byte
		var bounds []int
		answers := map[int][]Result{}
		for i := 0; i < sx.NumShards(); i++ {
			if i == absent {
				continue
			}
			sh, first := sx.Shard(i)
			surviving = append(surviving, docs[first:first+sh.NumDocs()]...)
			if i > 0 && i-1 != absent {
				bounds = append(bounds, edges[i])
			}
			for _, op := range ops {
				a, err := sh.Analytics(ctx, op) // membership kinds route through Batch
				if err != nil {
					t.Fatal(err)
				}
				answers[i] = append(answers[i], a)
			}
		}
		st := NewStitch(len(concat), bounds, func(_ []byte, lo, hi int) []byte { return concat[lo:hi] })
		mono, err := BuildCorpus(surviving, nil)
		if err != nil {
			t.Fatal(err)
		}
		// A monolithic offset at or past the splice sits the absent shard's
		// length further on in the corpus; a match across the splice is not one.
		splice, gap := -1, 0
		if absent >= 0 {
			splice, gap = edges[absent], edges[absent+1]-edges[absent]
		}

		for oi, op := range ops {
			var parts []Part
			for i := 0; i < sx.NumShards(); i++ {
				if a, ok := answers[i]; ok {
					parts = append(parts, Part{Off: edges[i], Found: a[oi].Found, Count: a[oi].Count, Occurrences: a[oi].Occurrences})
				}
			}
			got := st.Merge(op, parts)

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
				t.Fatalf("shard %d absent: %s %q (k %d, max %d)\n got %+v\nwant %+v", absent, op.Kind, op.Pattern, op.K, op.MaxOccurrences, got, want)
			}
		}
	}

	// Document stats add up over the parts that are there.
	dq := Op{Kind: OpDocFreq, Patterns: [][]byte{docs[3][:4], docs[20][:2], []byte("ACGTACGTACGTACGTAA")}}
	var parts []Part
	var kept [][]byte
	for _, i := range []int{0, 2} {
		sh, first := sx.Shard(i)
		a, err := sh.Analytics(ctx, dq)
		if err != nil {
			t.Fatal(err)
		}
		parts = append(parts, Part{Off: edges[i], Stats: a.Stats})
		kept = append(kept, docs[first:first+sh.NumDocs()]...)
	}
	if got, want := NewStitch(len(concat), nil, nil).Merge(dq, parts), naiveDocFreq(kept, dq.Patterns); !reflect.DeepEqual(got, want) {
		t.Errorf("docfreq over shards 0 and 2:\n got %+v\nwant %+v", got, want)
	}
}
