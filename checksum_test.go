package era

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// Bit-flip robustness: damage at any byte of a persisted image must either
// fail the open, or surface through the checksum machinery before a query
// can return a wrong answer. A corrupt-but-open index answers with zero
// values (Contains false, Count 0, no occurrences) — never garbage, never a
// panic.

// corruptionCorpus is a small fixed corpus with a pattern whose answers the
// flip tests pin.
func corruptionCorpus() ([][]byte, []byte) {
	docs := [][]byte{
		[]byte("GATTACAGATTACA"),
		[]byte("CCCGATTACACCC"),
		[]byte("TTTT"),
		[]byte("ACGTACGTACGT"),
	}
	return docs, []byte("GATTACA")
}

// assertFlipSafe opens a (possibly damaged) image and checks the contract
// against the pristine oracle. Returns a description of how the damage
// surfaced, for the caller's coverage accounting.
func assertFlipSafe(t *testing.T, path string, oracle Queryable, pat []byte) string {
	t.Helper()
	q, err := OpenIndex(path)
	if err != nil {
		return "open"
	}
	defer q.Close()

	var verr error
	switch x := q.(type) {
	case *Index:
		verr = x.CheckErr()
	case *ShardedIndex:
		verr = x.CheckErr()
	default:
		t.Fatalf("unexpected index type %T", q)
	}

	gotContains, gotCount := q.Contains(pat), q.Count(pat)
	gotOccs, occErr := q.Occurrences(pat)
	if verr != nil {
		// Detected. The boolean/count paths are gated to zero values (a
		// monolithic index zeroes every answer; a sharded one zeroes the
		// damaged shard's), so each is either the exact oracle value or the
		// zero value — never a third, fabricated answer. The occurrence path
		// must do better: surface the corruption as ErrCorruptIndex instead
		// of silently returning empty.
		if !errors.Is(occErr, ErrCorruptIndex) {
			t.Fatalf("corrupt index: Occurrences err = %v, want ErrCorruptIndex (verify: %v)", occErr, verr)
		}
		if len(gotOccs) != 0 {
			t.Fatalf("corrupt index returned occurrences alongside error: %v", gotOccs)
		}
		// Nor is a damaged image ever written back out.
		if err := q.WriteFile(path + ".copy"); !errors.Is(err, ErrCorruptIndex) {
			t.Fatalf("corrupt index: WriteFile err = %v, want ErrCorruptIndex", err)
		}
		zeroOK := !gotContains && gotCount == 0
		oracleOK := gotContains == oracle.Contains(pat) && gotCount == oracle.Count(pat)
		if !zeroOK && !oracleOK {
			t.Fatalf("corrupt index answering garbage: Contains=%v Count=%d (verify: %v)",
				gotContains, gotCount, verr)
		}
		return "verify"
	}
	if occErr != nil {
		t.Fatalf("healthy index errored: %v", occErr)
	}
	// Undetected (the flip landed outside any checksummed window — header
	// padding and the like): answers must still be exactly right.
	if gotContains != oracle.Contains(pat) || gotCount != oracle.Count(pat) {
		t.Fatalf("undetected flip changed answers: Contains=%v Count=%d, oracle Contains=%v Count=%d",
			gotContains, gotCount, oracle.Contains(pat), oracle.Count(pat))
	}
	return "benign"
}

// flipSweep writes image-with-one-flipped-byte files across sampled offsets
// and runs the contract check on each.
func flipSweep(t *testing.T, img []byte, oracle Queryable, pat []byte) {
	t.Helper()
	dir := t.TempDir()
	step := len(img) / 64
	if step < 1 {
		step = 1
	}
	surfaced := map[string]int{}
	for off := 0; off < len(img); off += step {
		bad := append([]byte(nil), img...)
		bad[off] ^= 0xff
		p := filepath.Join(dir, fmt.Sprintf("flip-%d.idx", off))
		if err := os.WriteFile(p, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		surfaced[assertFlipSafe(t, p, oracle, pat)]++
		os.Remove(p)
	}
	// The sweep must actually be exercising detection, not skating through a
	// sea of benign padding.
	if surfaced["open"]+surfaced["verify"] < len(surfaced)+3 {
		t.Logf("surface histogram: %v", surfaced)
	}
	if surfaced["verify"] == 0 && surfaced["open"] == 0 {
		t.Fatalf("no flip was detected at all: %v", surfaced)
	}
}

func TestV4BitFlipDetectedMono(t *testing.T) {
	docs, pat := corruptionCorpus()
	mono, err := BuildCorpus(docs, nil)
	if err != nil {
		t.Fatal(err)
	}
	p := filepath.Join(t.TempDir(), "mono.idx")
	if err := WriteFileV4(p, mono); err != nil {
		t.Fatal(err)
	}
	img, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	flipSweep(t, img, mono, pat)
}

func TestV4BitFlipDetectedSharded(t *testing.T) {
	docs, pat := corruptionCorpus()
	sharded, err := BuildShardedCorpus(docs, &ShardConfig{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	p := filepath.Join(t.TempDir(), "sharded.idx")
	if err := WriteFileV4(p, sharded); err != nil {
		t.Fatal(err)
	}
	img, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	flipSweep(t, img, sharded, pat)
}

// TestManifestCorruptionReported pins the live-manifest footer through the
// read-only Verify API: a flipped manifest byte turns into a reported
// problem, not a wrong parse.
func TestManifestCorruptionReported(t *testing.T) {
	dir := t.TempDir()
	lx, err := NewLive("vm", &LiveConfig{Dir: dir, MemtableMaxDocs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lx.Append([][]byte{[]byte("GATTACA"), []byte("CAT")}); err != nil {
		t.Fatal(err)
	}
	if err := lx.Close(); err != nil {
		t.Fatal(err)
	}

	rep, err := Verify(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("healthy live dir reported problems: %v", rep.Problems)
	}

	mpath := filepath.Join(dir, liveManifestName)
	buf, err := os.ReadFile(mpath)
	if err != nil {
		t.Fatal(err)
	}
	buf[len(buf)/2] ^= 0xff
	if err := os.WriteFile(mpath, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err = Verify(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() {
		t.Fatal("corrupt manifest verified clean")
	}
}
