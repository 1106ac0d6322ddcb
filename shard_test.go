package era

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"era/internal/suffixtree"
	"era/internal/workload"
)

// shardTestCorpus builds a deterministic mixed-size document corpus with
// adjacent documents sharing content, so patterns exist that cross document
// (and therefore shard) boundaries.
func shardTestCorpus(t *testing.T, nDocs int, seed int64) [][]byte {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	data := workload.MustGenerate(workload.DNA, 4000, seed)
	data = data[:len(data)-1]
	docs := make([][]byte, nDocs)
	off := 0
	for i := range docs {
		n := 1 + rng.Intn(len(data)/nDocs*2)
		if off+n > len(data) {
			n = len(data) - off
		}
		if n <= 0 {
			// Recycle from the start so every document is non-trivial and
			// repeats earlier content (more cross-boundary matches).
			off, n = 0, 1+rng.Intn(64)
		}
		docs[i] = data[off : off+n]
		off += n
	}
	return docs
}

// shardTestPatterns samples patterns that exercise every answer path:
// in-document hits, document- and shard-boundary-crossing hits, misses,
// the empty pattern, and terminator-containing patterns.
func shardTestPatterns(docs [][]byte, seed int64) [][]byte {
	rng := rand.New(rand.NewSource(seed))
	concat := bytes.Join(docs, nil)
	var pats [][]byte
	for i := 0; i < 40; i++ {
		off := rng.Intn(len(concat) - 16)
		pats = append(pats, concat[off:off+1+rng.Intn(14)])
	}
	// Patterns straddling every document boundary (any of which may become
	// a shard boundary): the regime the stitch scan exists for.
	off := 0
	for _, d := range docs[:len(docs)-1] {
		off += len(d)
		for _, w := range []int{1, 3, 7} {
			lo, hi := off-w, off+w
			if lo < 0 {
				lo = 0
			}
			if hi > len(concat) {
				hi = len(concat)
			}
			pats = append(pats, concat[lo:hi])
		}
	}
	pats = append(pats,
		nil,                              // empty: matches everywhere
		[]byte("ACGTACGTACGTACGTACGTAA"), // likely absent
		[]byte("$"),                      // the global terminator suffix
		append(append([]byte{}, concat[len(concat)-3:]...), '$'),    // valid only at the global end
		append(append([]byte{}, concat[len(concat)-9:]...), '$'),    // a tail wide enough to span the last cut(s)
		append(append([]byte{'$'}, concat[len(concat)-9:]...), '$'), // the same tail behind a second terminator: a miss
		append(append([]byte{}, concat[:2]...), '$'),                // '$' never occurs mid-string
		[]byte("$A"), // nothing follows the terminator
	)
	return pats
}

// shardEmptyDocsCorpus interleaves empty documents with short ones — at the
// head, at the tail, singly and in runs — so that for every K up to the
// document count each cut has an empty document at it or next to it, and
// some shards hold no content at all.
func shardEmptyDocsCorpus() [][]byte {
	var docs [][]byte
	for i, d := range []string{"ACGTAC", "GT", "ACGTACGT", "T", "CGTACG", "TACGTA", "GTAC"} {
		docs = append(docs, nil, []byte(d))
		if i%2 == 1 {
			docs = append(docs, nil)
		}
	}
	return append(docs, nil)
}

// keyPatterns returns the patterns a sharded index's cuts make awkward:
// every proper prefix of every key (the empty one included), whose suffixes
// two or more shards share.
func keyPatterns(sx *ShardedIndex) [][]byte {
	var pats [][]byte
	for _, key := range sx.keys[1:] {
		for l := 0; l < len(key); l++ {
			pats = append(pats, key[:l])
		}
	}
	return pats
}

// cutCoverage counts how often the differential met the cases no single
// shard can answer, so a corpus change that stops producing them fails.
type cutCoverage struct {
	lrsAcrossCut, topkBoundary, docfreqUnion int
}

// assertShardedAnalytics holds the sharded index to the monolithic one on
// every analytics op, aimed at the cuts: topk at every length up to past the
// longest key, lrs, lcs over document pairs, and docfreq and mismatch over
// the key prefixes.
func assertShardedAnalytics(t *testing.T, mono *Index, sx *ShardedIndex, cov *cutCoverage) {
	t.Helper()
	ctx := context.Background()
	longest := 0
	for _, key := range sx.keys {
		longest = max(longest, len(key))
	}
	var named [][]byte
	for _, p := range keyPatterns(sx) {
		if len(p) > 0 {
			named = append(named, p)
		}
	}
	qs := []Query{{Kind: OpLongestRepeat}}
	for l := 1; l <= min(longest+1, 12); l++ {
		qs = append(qs, Query{Kind: OpTopK, K: 3, MinLen: l}, Query{Kind: OpTopK, K: MaxTopK, MinLen: l})
	}
	for _, pair := range [][2]int{{0, 1}, {1, 0}, {0, mono.NumDocs() - 1}} {
		if pair[0] != pair[1] && max(pair[0], pair[1]) < mono.NumDocs() {
			qs = append(qs, Query{Kind: OpCommonSubstring, DocA: pair[0], DocB: pair[1]})
		}
	}
	if len(named) > 0 {
		qs = append(qs, Query{Kind: OpDocFreq, Patterns: named})
	}
	for _, p := range named {
		qs = append(qs, Query{Kind: OpMismatch, Pattern: p, K: 1}, Query{Kind: OpMismatch, Pattern: p, K: 0, MaxOccurrences: 2})
	}
	for _, q := range qs {
		want, err := mono.Analytics(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sx.Analytics(ctx, q)
		if err != nil {
			t.Fatalf("%s %+v: %v", q.Kind, q, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Analytics(%s k=%d L=%d docs %d,%d)\n got %+v\nwant %+v", q.Kind, q.K, q.MinLen, q.DocA, q.DocB, got, want)
		}
		switch q.Kind {
		case OpLongestRepeat:
			if first, last := sx.owners(want.Pattern); want.Found && first < last {
				cov.lrsAcrossCut++
			}
		case OpTopK:
			for _, e := range want.Top {
				if first, last := sx.owners(e.Pattern); first < last {
					cov.topkBoundary++
				}
			}
		}
	}
	for _, p := range named {
		first, last := sx.owners(p)
		sum := 0
		for _, sh := range sx.shards[first : last+1] {
			hits, _ := sh.DocOccurrences(p)
			docs := map[int]bool{}
			for _, h := range hits {
				docs[h.Doc] = true
			}
			sum += len(docs)
		}
		want, _ := mono.Analytics(ctx, Query{Kind: OpDocFreq, Patterns: [][]byte{p}})
		if sum > want.Stats[0].Docs {
			cov.docfreqUnion++
		}
	}
}

// TestShardedDifferential is the acceptance test for prefix-partitioned
// sharding: every query kind on the ShardedIndex — Contains, Count,
// Occurrences, DocOccurrences, Batch and the five analytics ops — answers
// byte-identically to the monolithic index over the same corpus, on the
// patterns the cuts make awkward (proper prefixes of a key, which two shards
// share) as well as boundary-crossing, terminator-containing and absent ones.
// The corpora are the awkward ones for cuts: mixed sizes; empty documents
// around every cut, for every K; DNA cut into more shards than it has
// symbols; one document (which no document cut could split); periodic text,
// whose LCPs are equal across a whole cut window; a corpus with an empty
// document; small texts cut so finely that the longest repeat straddles a
// cut; and bytes ≥ 0x80 with every symbol an alphabet allows under the root,
// whose keys end mid-character and whose root fills its child count. The run must meet the cases no single shard answers: an lrs across a
// cut, a boundary L-mer in a topk, and a docfreq whose documents two shards
// share.
func TestShardedDifferential(t *testing.T) {
	empties := shardEmptyDocsCorpus()
	everyK := make([]int, len(empties))
	for i := range everyK {
		everyK[i] = i + 1
	}
	dna := workload.MustGenerate(workload.DNA, 3000, 17)
	dnaDocs, err := workload.SliceDocs(dna[:3000], 9)
	if err != nil {
		t.Fatal(err)
	}
	awkward := []int{1, 2, 3, 5, 8}
	var cov cutCoverage
	for _, tc := range []struct {
		name string
		docs [][]byte
		ks   []int
	}{
		{"mixed", shardTestCorpus(t, 23, 7), []int{1, 2, 4, 8}},
		{"empty-docs", empties, everyK},
		{"dna", dnaDocs, awkward},
		{"one-doc", [][]byte{dna[:2000]}, awkward},
		{"periodic", [][]byte{bytes.Repeat([]byte("ACGTTGA"), 150), bytes.Repeat([]byte("AC"), 200)}, awkward},
		{"empty-doc", [][]byte{dna[:700], nil, dna[700:1500]}, awkward},
		{"tiny", [][]byte{[]byte("GATTACAGATTACA"), []byte("TTAGGG")}, awkward},
		{"high-bytes", highByteCorpus(), awkward},
	} {
		mono, err := BuildCorpus(tc.docs, nil)
		if err != nil {
			t.Fatal(err)
		}
		pats := shardTestPatterns(tc.docs, 99)
		for _, k := range tc.ks {
			t.Run(fmt.Sprintf("%s/K=%d", tc.name, k), func(t *testing.T) {
				sx, err := BuildShardedCorpus(tc.docs, &ShardConfig{Shards: k})
				if err != nil {
					t.Fatal(err)
				}
				if sx.NumShards() != k {
					t.Fatalf("NumShards = %d, want %d", sx.NumShards(), k)
				}
				if sx.Len() != mono.Len() || sx.NumDocs() != mono.NumDocs() {
					t.Fatalf("Len/NumDocs = %d/%d, want %d/%d", sx.Len(), sx.NumDocs(), mono.Len(), mono.NumDocs())
				}
				if sx.Alphabet().Name() != mono.Alphabet().Name() {
					t.Fatalf("alphabet %s, want %s", sx.Alphabet().Name(), mono.Alphabet().Name())
				}
				assertSameAnswers(t, mono, sx, append(keyPatterns(sx), pats...))
				assertShardedAnalytics(t, mono, sx, &cov)
			})
		}
	}
	t.Logf("cases no single shard answers: %+v", cov)
	if cov.lrsAcrossCut == 0 || cov.topkBoundary == 0 || cov.docfreqUnion == 0 {
		t.Errorf("the corpora never met a case no single shard answers: %+v", cov)
	}
}

// assertSameAnswers is the one membership differential every partitioned
// layer is held to: over pats, got must answer Contains, Count, Occurrences,
// DocOccurrences and a mixed-kind Batch with assorted occurrence caps
// exactly (reflect.DeepEqual, so nil-versus-empty included) as want does.
func assertSameAnswers(t *testing.T, want, got Queryable, pats [][]byte) {
	t.Helper()
	var ops []Op
	for i, p := range pats {
		if g, w := got.Contains(p), want.Contains(p); g != w {
			t.Fatalf("Contains(%q) = %v, want %v", p, g, w)
		}
		if g, w := got.Count(p), want.Count(p); g != w {
			t.Fatalf("Count(%q) = %d, want %d", p, g, w)
		}
		gotOcc, _ := got.Occurrences(p)
		wantOcc, _ := want.Occurrences(p)
		if !reflect.DeepEqual(gotOcc, wantOcc) {
			t.Fatalf("Occurrences(%q) = %v, want %v", p, gotOcc, wantOcc)
		}
		gotHits, _ := got.DocOccurrences(p)
		wantHits, _ := want.DocOccurrences(p)
		if !reflect.DeepEqual(gotHits, wantHits) {
			t.Fatalf("DocOccurrences(%q) = %v, want %v", p, gotHits, wantHits)
		}
		ops = append(ops,
			Op{Kind: OpContains, Pattern: p},
			Op{Kind: OpCount, Pattern: p},
			Op{Kind: OpOccurrences, Pattern: p},
			Op{Kind: OpOccurrences, Pattern: p, MaxOccurrences: 1 + i%5},
		)
	}
	gotRes, wantRes := got.Batch(ops), want.Batch(ops)
	for i := range ops {
		if !reflect.DeepEqual(gotRes[i], wantRes[i]) {
			t.Fatalf("Batch op %d (%s %q max %d): got %+v, want %+v",
				i, ops[i].Kind, ops[i].Pattern, ops[i].MaxOccurrences, gotRes[i], wantRes[i])
		}
	}
}

// TestShardedPersistRoundTrip pins the sharded image: WriteFile → OpenIndex
// reproduces a ShardedIndex that still answers identically to the
// monolithic index, keeps its name and shard layout, and WriteTo/
// ReadQueryable round-trips through a plain stream as well.
func TestShardedPersistRoundTrip(t *testing.T) {
	docs := shardTestCorpus(t, 11, 3)
	mono, err := BuildCorpus(docs, nil)
	if err != nil {
		t.Fatal(err)
	}
	sx, err := BuildShardedCorpus(docs, &ShardConfig{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	sx.SetName("corpus-sharded")

	path := filepath.Join(t.TempDir(), "corpus.idx")
	if err := sx.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	reopened, err := OpenIndex(path)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := reopened.(*ShardedIndex)
	if !ok {
		t.Fatalf("OpenIndex returned %T, want *ShardedIndex", reopened)
	}
	if got.Name() != "corpus-sharded" {
		t.Errorf("name = %q, want corpus-sharded", got.Name())
	}
	if got.NumShards() != sx.NumShards() || got.NumDocs() != sx.NumDocs() || got.Len() != sx.Len() {
		t.Fatalf("layout after round trip = %d shards / %d docs / %d len, want %d / %d / %d",
			got.NumShards(), got.NumDocs(), got.Len(), sx.NumShards(), sx.NumDocs(), sx.Len())
	}
	assertSameAnswers(t, mono, got, shardTestPatterns(docs, 31))

	// Stream round trip (no file): WriteTo → ReadQueryable. The plain
	// buffer takes the two-pass sizing path while WriteFile took the
	// seekable backpatch path — their bytes must be identical.
	var buf bytes.Buffer
	if _, err := sx.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	fileBytes, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), fileBytes) {
		t.Error("seekable (WriteFile) and two-pass (WriteTo) serializations differ")
	}
	streamed, err := ReadQueryable(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if streamed.(*ShardedIndex).NumShards() != sx.NumShards() {
		t.Errorf("stream round trip lost shards")
	}

	// ReadIndex must refuse a sharded stream with a pointer to the right API,
	// not misparse it.
	if _, err := sx.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadIndex(&buf); err == nil {
		t.Error("ReadIndex accepted a sharded stream")
	}
}

// TestShardCutsBalanced pins the cut placement end to end: K shards over n
// suffixes, each within n/(8K) + 1 of n/K of them (the window a cut may move
// in to find a shorter key), tiling the suffix order.
func TestShardCutsBalanced(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		n := 50 + rng.Intn(3000)
		docs, err := workload.SliceDocs(workload.MustGenerate(workload.DNA, n, int64(trial))[:n], 1+rng.Intn(8))
		if err != nil {
			t.Fatal(err)
		}
		k := 1 + rng.Intn(12)
		sx, err := BuildShardedCorpus(docs, &ShardConfig{Shards: k})
		if err != nil {
			t.Fatal(err)
		}
		if sx.NumShards() != k {
			t.Fatalf("trial %d: %d shards for k=%d", trial, sx.NumShards(), k)
		}
		total := n + 1
		slack := total/(8*k) + 1
		held := 0
		for i := 0; i < k; i++ {
			sh, _ := sx.Shard(i)
			leaves := sh.tree.NumLeaves()
			if leaves < total/k-2*slack || leaves > total/k+2*slack+1 {
				t.Errorf("trial %d: shard %d of %d holds %d of %d suffixes", trial, i, k, leaves, total)
			}
			held += leaves
		}
		if held != total {
			t.Fatalf("trial %d: shards hold %d of %d suffixes", trial, held, total)
		}
	}
}

// TestOwners pins the routing rule the sharded index and the router share:
// Owners(keys, p) is exactly the run of shards whose ranges [keys[i],
// keys[i+1]) hold some string that begins with p — so every shard holding a
// suffix that begins with p, and one shard unless p is a proper prefix of a
// key — on the empty pattern, every proper prefix of every key, the keys
// themselves, absent patterns and windows of the corpus.
func TestOwners(t *testing.T) {
	docs := shardTestCorpus(t, 9, 3)
	for _, k := range []int{1, 2, 3, 5, 8} {
		sx, err := BuildShardedCorpus(docs, &ShardConfig{Shards: k})
		if err != nil {
			t.Fatal(err)
		}
		data := sx.shards[0].data
		pats := append(keyPatterns(sx), sx.keys...)
		pats = append(pats, []byte("TTTTTTTTTTTTTTTTTTTT"), []byte("AAAAAAAAAAAAAAAAAAAAC"), []byte("$"))
		for off := 0; off+6 < len(data); off += 37 {
			pats = append(pats, data[off:off+1+off%6])
		}
		for _, p := range pats {
			first, last := sx.owners(p)
			var meets []int
			for i, sh := range sx.shards {
				if (len(sh.hi) == 0 || bytes.Compare(sh.hi, p) > 0) && (bytes.Compare(sh.lo, p) <= 0 || bytes.HasPrefix(sh.lo, p)) {
					meets = append(meets, i)
				}
			}
			if len(meets) == 0 || meets[0] != first || meets[len(meets)-1] != last || len(meets) != last-first+1 {
				t.Fatalf("K=%d: Owners(%q) = [%d, %d], the ranges that meet it are %v", k, p, first, last, meets)
			}
			proper := false
			for _, key := range sx.keys {
				proper = proper || (len(p) < len(key) && bytes.HasPrefix(key, p))
			}
			if first != last && !proper {
				t.Fatalf("K=%d: %q owned by shards %d..%d but a proper prefix of no key", k, p, first, last)
			}
			for o := range data {
				if bytes.HasPrefix(data[o:], p) {
					s := slices.IndexFunc(sx.shards, func(sh *Index) bool { return suffixtree.InRange(data[o:], sh.lo, sh.hi) })
					if s < first || s > last {
						t.Fatalf("K=%d: suffix %d begins with %q and lies in shard %d, outside its owners %d..%d", k, o, p, s, first, last)
					}
				}
			}
		}
	}
}

// TestShardedBuildValidation covers the build-time error paths.
func TestShardedBuildValidation(t *testing.T) {
	if _, err := BuildShardedCorpus(nil, nil); err == nil {
		t.Error("empty corpus accepted")
	}
	if _, err := BuildShardedCorpus([][]byte{[]byte("AC$GT")}, nil); err == nil {
		t.Error("terminator byte in document accepted")
	}
	if _, err := BuildShardedCorpus([][]byte{[]byte("ACGT")}, &ShardConfig{Shards: -1}); err == nil {
		t.Error("negative shard count accepted")
	}
	// More shards than suffixes: capped, not an error.
	sx, err := BuildShardedCorpus([][]byte{[]byte("GATTACA"), []byte("CATTAGA")}, &ShardConfig{Shards: 99})
	if err != nil {
		t.Fatal(err)
	}
	if sx.NumShards() != 15 {
		t.Errorf("NumShards = %d, want 15 (capped at the suffix count)", sx.NumShards())
	}
}
