package suffixtree

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"era/internal/alphabet"
)

// recordSink is a HeapSink that remembers the tree sections it hands out,
// short of the count by short records.
type recordSink struct {
	HeapSink
	short int
	trees [][2][]byte
}

func (r *recordSink) Tree(nInt int) (nodes, sym []byte, err error) {
	nodes, sym, err = r.HeapSink.Tree(nInt - r.short)
	r.trees = append(r.trees, [2][]byte{nodes, sym})
	return nodes, sym, err
}

// TestAssembleShards pins the one assembly both builders feed: for every k
// the shards tile the suffix order — each tree holds exactly the suffixes of
// its range (ValidateView against its keys), in order, its leaf section is
// its window of the suffix array it was handed, not a copy, and its node and
// symbol sections are the arrays its Sink handed out for the count — each lower key is the shortest prefix of the
// range's first suffix that the suffix before it lacks, and each cut sits at
// the smallest LCP within n/(8k) of its target, nearest the target on ties.
func TestAssembleShards(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	random := func(n int, syms string) []byte {
		d := make([]byte, n)
		for i := range d {
			d[i] = syms[rng.Intn(len(syms))]
		}
		return d
	}
	for name, data := range map[string][]byte{
		"dna":       random(3000, "ACGT"),
		"binary":    random(500, "ab"),
		"periodic":  bytes.Repeat([]byte("ACGTTGA"), 200),
		"one-byte":  []byte("A"),
		"one-sym":   bytes.Repeat([]byte("A"), 300),
		"english":   random(2000, "abcdefghijklmnopqrstuvwxyz"),
		"few-sufs":  []byte("GATTACA"),
		"two-bytes": []byte("AC"),
	} {
		term := append(slices.Clip(data), alphabet.Terminator)
		sa, lcp := sortedStream(term, len(term))
		n := len(term)
		for k := 1; k <= 9; k++ {
			sink := &recordSink{}
			shards, err := AssembleShards(term, sa, lcp, k, sink)
			if err != nil {
				t.Fatalf("%s, k=%d: %v", name, k, err)
			}
			for i, sh := range shards {
				if got := sink.trees[i]; len(sink.trees) != len(shards) || &sh.Nodes[0] != &got[0][0] || len(sh.Nodes) != len(got[0]) || &sh.Sym[0] != &got[1][0] || len(sh.Sym) != len(got[1]) {
					t.Fatalf("%s, k=%d, shard %d: the node and symbol sections are not the arrays the sink handed out", name, k, i)
				}
			}
			if _, err := AssembleShards(term, sa, lcp, k, &recordSink{short: 1}); err == nil {
				t.Fatalf("%s, k=%d: an assembly into sections one record short of the count succeeded", name, k)
			}
			if len(shards) != min(k, n) {
				t.Fatalf("%s, k=%d: %d shards over %d suffixes", name, k, len(shards), n)
			}
			rank, prevCut := 0, 0
			for i, sh := range shards {
				ft, err := NewFlatTree(term, sh.Nodes, sh.Sym, nil, nil, sh.LeafData, sh.NLeaves)
				if err != nil {
					t.Fatal(err)
				}
				if view := leafView(sa[rank:]); view != nil && &sh.LeafData[0] != &view[0] {
					t.Fatalf("%s, k=%d, shard %d: the leaf section is not ranks [%d, ...) of the suffix array it was handed", name, k, i, rank)
				}
				if err := ValidateView(ft, sh.Lo, sh.Hi); err != nil {
					t.Fatalf("%s, k=%d, shard %d [%q, %q): %v", name, k, i, sh.Lo, sh.Hi, err)
				}
				if got := ft.Leaves(ft.Root()); !slices.Equal(got, sa[rank:rank+len(got)]) {
					t.Fatalf("%s, k=%d, shard %d: leaves are not ranks [%d, %d) of the suffix array", name, k, i, rank, rank+len(got))
				}
				if i > 0 {
					if !bytes.Equal(shards[i-1].Hi, sh.Lo) {
						t.Fatalf("%s, k=%d: shard %d ends at %q, shard %d starts at %q", name, k, i-1, shards[i-1].Hi, i, sh.Lo)
					}
					suf := sa[rank]
					if want := term[suf : suf+lcp[rank]+1]; !bytes.Equal(sh.Lo, want) {
						t.Fatalf("%s, k=%d, shard %d: key %q, want %q", name, k, i, sh.Lo, want)
					}
					// The cut is the window's least (lcp, distance to target, rank).
					kk := len(shards) // k capped at the suffix count
					target, w := i*n/kk, n/(8*kk)
					lo, hi := max(target-w, prevCut+1), min(target+w, n-1)
					if rank < lo || rank > hi {
						t.Fatalf("%s, k=%d: cut %d at rank %d, outside [%d, %d]", name, k, i, rank, lo, hi)
					}
					for r := lo; r <= hi; r++ {
						if lcp[r] < lcp[rank] || (lcp[r] == lcp[rank] && (absDiff(r, target) < absDiff(rank, target) || (absDiff(r, target) == absDiff(rank, target) && r < rank))) {
							t.Fatalf("%s, k=%d: cut %d at rank %d (lcp %d), but rank %d (lcp %d) comes first for target %d", name, k, i, rank, lcp[rank], r, lcp[r], target)
						}
					}
					prevCut = rank
				} else if len(sh.Lo) != 0 {
					t.Fatalf("%s, k=%d: first shard starts at %q", name, k, sh.Lo)
				}
				rank += int(sh.NLeaves)
			}
			if rank != n || len(shards[len(shards)-1].Hi) != 0 {
				t.Fatalf("%s, k=%d: shards hold %d of %d suffixes, the last ends at %q", name, k, rank, n, shards[len(shards)-1].Hi)
			}
		}
	}
}
