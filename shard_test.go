package era

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

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

// TestShardedDifferential is the acceptance test for the tentpole: every
// query kind on the ShardedIndex — Contains, Count, Occurrences,
// DocOccurrences, Batch — answers byte-identically to the monolithic index
// over the same corpus, boundary-crossing and terminator-containing patterns
// included, for K ∈ {1,2,4,8} on a mixed-size corpus and for every K on a
// corpus with empty documents around every cut.
func TestShardedDifferential(t *testing.T) {
	empties := shardEmptyDocsCorpus()
	everyK := make([]int, len(empties))
	for i := range everyK {
		everyK[i] = i + 1
	}
	for _, tc := range []struct {
		name string
		docs [][]byte
		ks   []int
	}{
		{"mixed", shardTestCorpus(t, 23, 7), []int{1, 2, 4, 8}},
		{"empty-docs", empties, everyK},
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
				assertSameAnswers(t, mono, sx, pats)
			})
		}
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

// TestShardedPersistRoundTrip pins the v3 format: WriteFile → OpenIndex
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
	sx.SetName("corpus-v3")

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
	if got.Name() != "corpus-v3" {
		t.Errorf("name = %q, want corpus-v3", got.Name())
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

	// ReadIndex must refuse a v3 stream with a pointer to the right API,
	// not misparse it.
	if _, err := sx.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadIndex(&buf); err == nil {
		t.Error("ReadIndex accepted a sharded v3 stream")
	}
}

// TestShardCutsBalanced pins the greedy assignment: contiguous, covering,
// at least one document per shard, and no shard larger than a full even
// split plus the biggest single document (the greedy bound).
func TestShardCutsBalanced(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(40)
		sizes := make([]int, n)
		total, biggest := 0, 0
		for i := range sizes {
			sizes[i] = rng.Intn(1000)
			total += sizes[i]
			if sizes[i] > biggest {
				biggest = sizes[i]
			}
		}
		k := 1 + rng.Intn(n)
		cuts := shardCuts(sizes, k)
		if len(cuts) != k {
			t.Fatalf("trial %d: %d cuts for k=%d", trial, len(cuts), k)
		}
		prev := 0
		for ci, c := range cuts {
			if c[0] != prev || c[1] <= c[0] {
				t.Fatalf("trial %d: cut %d = %v not contiguous from %d", trial, ci, c, prev)
			}
			prev = c[1]
			size := 0
			for _, s := range sizes[c[0]:c[1]] {
				size += s
			}
			if bound := total/k + biggest; size > bound {
				t.Errorf("trial %d: cut %d holds %d bytes, bound %d (sizes %v, k=%d)", trial, ci, size, bound, sizes, k)
			}
		}
		if prev != n {
			t.Fatalf("trial %d: cuts end at %d, want %d", trial, prev, n)
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
	// More shards than documents: capped, not an error.
	sx, err := BuildShardedCorpus([][]byte{[]byte("GATTACA"), []byte("CATTAGA")}, &ShardConfig{Shards: 9})
	if err != nil {
		t.Fatal(err)
	}
	if sx.NumShards() != 2 {
		t.Errorf("NumShards = %d, want 2 (capped at document count)", sx.NumShards())
	}
}
