package era

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"

	"era/internal/workload"
)

// randomOps draws a mixed pool of present and absent patterns over data.
func randomOps(data []byte, n int, seed int64) []Op {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]Op, n)
	for i := range ops {
		var p []byte
		switch i % 3 {
		case 0, 1: // substring of the corpus (possibly empty)
			l := rng.Intn(8)
			off := rng.Intn(len(data) - l)
			p = data[off : off+l]
		case 2: // random pattern, usually absent for longer lengths
			p = make([]byte, 1+rng.Intn(10))
			for j := range p {
				p[j] = "ACGT"[rng.Intn(4)]
			}
		}
		ops[i] = Op{Kind: OpKind(rng.Intn(3)), Pattern: p, MaxOccurrences: rng.Intn(4)}
	}
	return ops
}

// batchLayouts serves the same string as built and as reopened from its
// mapped file, so the batch suite runs its prefix-resumed descent over both.
func batchLayouts(t *testing.T, data []byte, cfg *Config) map[string]Queryable {
	t.Helper()
	built, err := Build(data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := filepath.Join(t.TempDir(), "batch.idx")
	if err := built.WriteFile(p); err != nil {
		t.Fatal(err)
	}
	mapped, err := OpenIndex(p)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mapped.Close() })
	return map[string]Queryable{"built": built, "mapped": mapped}
}

// TestBatchMatchesSingleQueries holds Batch, op by op, to a scan of the
// string.
func TestBatchMatchesSingleQueries(t *testing.T) {
	data := workload.MustGenerate(workload.DNA, 4000, 3)
	data = data[:len(data)-1]
	ops := randomOps(data, 300, 17)
	oracle := newScanOracle([][]byte{data})
	for name, idx := range batchLayouts(t, data, &Config{MemoryBudget: 64 * 1024}) {
		oracle.assertAnswersLike(t, name, idx, nil, ops)
	}
}

func TestBatchEdgeCases(t *testing.T) {
	for name, idx := range batchLayouts(t, []byte("TGGTGGTGGTGCGGTGATGGTGC"), nil) {
		if got := idx.Batch(nil); len(got) != 0 {
			t.Errorf("%s: Batch(nil) = %v", name, got)
		}
		res := idx.Batch([]Op{
			{Kind: OpCount, Pattern: nil},                                                   // empty pattern matches everywhere
			{Kind: OpCount, Pattern: []byte("TG")},                                          // paper Table 1
			{Kind: OpCount, Pattern: []byte("TG")},                                          // duplicate
			{Kind: OpContains, Pattern: []byte("TGT")},                                      // fTGT = 0
			{Kind: OpOccurrences, Pattern: []byte("TGGTGGTG")},                              // the LRS
			{Kind: OpContains, Pattern: bytes.Repeat([]byte("TGGTGGTGGTGCGGTGATGGTGC"), 2)}, // longer than S
			{Kind: OpCount, Pattern: []byte("$")},                                           // terminator probe
			{Kind: OpContains, Pattern: []byte{0xFF}},                                       // out-of-alphabet byte
			{Kind: OpContains, Pattern: []byte("TG\xffTG")},                                 // out-of-alphabet mid-pattern
		})
		if res[0].Count != idx.Len() { // every position incl. terminator starts a suffix
			t.Errorf("%s: Count(empty) = %d, want %d", name, res[0].Count, idx.Len())
		}
		if res[1].Count != 7 || res[2].Count != 7 {
			t.Errorf("%s: Count(TG) = %d/%d, want 7", name, res[1].Count, res[2].Count)
		}
		if res[3].Found {
			t.Errorf("%s: Contains(TGT) = true", name)
		}
		if len(res[4].Occurrences) != 2 {
			t.Errorf("%s: Occurrences(TGGTGGTG) = %v, want 2 offsets", name, res[4].Occurrences)
		}
		if res[5].Found {
			t.Errorf("%s: pattern longer than S reported found", name)
		}
		if res[6].Count != 1 {
			t.Errorf("%s: Count($) = %d, want 1", name, res[6].Count)
		}
		if res[7].Found || res[8].Found {
			t.Errorf("%s: out-of-alphabet pattern reported found (%v/%v)", name, res[7].Found, res[8].Found)
		}
	}
}

// TestConcurrentQueries pins the documented guarantee that one Index may be
// queried from many goroutines with no synchronization (run under -race in
// CI): 8 goroutines issue every query kind, including Batch, and check the
// answers against a serial pass.
func TestConcurrentQueries(t *testing.T) {
	data := workload.MustGenerate(workload.DNA, 3000, 9)
	data = data[:len(data)-1]
	idx, err := Build(data, &Config{MemoryBudget: 64 * 1024})
	if err != nil {
		t.Fatal(err)
	}
	ops := randomOps(data, 100, 23)
	want := idx.Batch(ops)
	wantLRS, _ := idx.LongestRepeatedSubstring()

	const goroutines = 8
	var wg sync.WaitGroup
	errc := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 20; round++ {
				got := idx.Batch(ops)
				for i := range want {
					if got[i].Found != want[i].Found || got[i].Count != want[i].Count {
						t.Errorf("goroutine %d: result %d = %+v, want %+v", g, i, got[i], want[i])
						return
					}
				}
				op := ops[(g*7+round)%len(ops)]
				if idx.Contains(op.Pattern) != want[(g*7+round)%len(ops)].Found {
					t.Errorf("goroutine %d: Contains(%q) diverged", g, op.Pattern)
					return
				}
				if lrs, _ := idx.LongestRepeatedSubstring(); !bytes.Equal(lrs, wantLRS) {
					t.Errorf("goroutine %d: LRS diverged", g)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

func TestPersistNamedRoundTrip(t *testing.T) {
	idx, err := Build([]byte("GATTACA"), nil)
	if err != nil {
		t.Fatal(err)
	}
	idx.SetName("tiny-genome")
	var buf bytes.Buffer
	if _, err := idx.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadIndex(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name() != "tiny-genome" {
		t.Errorf("Name = %q, want tiny-genome", got.Name())
	}
	if got.Alphabet().Name() != idx.Alphabet().Name() {
		t.Errorf("alphabet name %q not preserved (want %q)", got.Alphabet().Name(), idx.Alphabet().Name())
	}
}

// TestReadIndexCorruptHeader pins that hostile or truncated length fields
// fail cleanly instead of attempting giant allocations.
func TestReadIndexCorruptHeader(t *testing.T) {
	idx, err := Build([]byte("GATTACA"), nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := idx.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// The header's length and count fields (u64 each): image, meta, string,
	// documents, nodes, leaf index, leaf data, leaves. The header CRC is
	// restamped so the field itself is what the reader refuses.
	for _, off := range []int{16, 32, 48, 64, 80, 104, 120, 128} {
		c := append([]byte(nil), raw...)
		binary.LittleEndian.PutUint64(c[off:], 0xFFFFFFFFFFFF)
		if _, err := ReadIndex(bytes.NewReader(fixV4HeaderCRC(c))); err == nil {
			t.Errorf("corrupt length at offset %d accepted", off)
		}
	}
	if _, err := ReadIndex(bytes.NewReader(raw[:20])); err == nil {
		t.Error("truncated index accepted")
	}
}

func TestOpKindWireNames(t *testing.T) {
	for _, k := range []OpKind{OpContains, OpCount, OpOccurrences} {
		parsed, err := ParseOpKind(k.String())
		if err != nil || parsed != k {
			t.Errorf("ParseOpKind(%s) = %v, %v", k, parsed, err)
		}
	}
	if _, err := ParseOpKind("frobnicate"); err == nil {
		t.Error("unknown op kind accepted")
	}
}
