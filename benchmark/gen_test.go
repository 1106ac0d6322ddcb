package main

import (
	"bytes"
	"reflect"
	"testing"

	"era/internal/workload"
)

// Equal seeds must give byte-identical inputs and different seeds different
// ones: the driver compares runs by seed.
func TestInputsAreAFunctionOfTheSeed(t *testing.T) {
	gen := func(seed int64) (*corpus, [][]byte, *stream) {
		c, err := genCorpus(workload.English, 1<<14, 8, seed)
		if err != nil {
			t.Fatal(err)
		}
		return c, genUniverse(c.data, seed), genStream(seed, 24<<7)
	}
	c1, u1, s1 := gen(7)
	c2, u2, s2 := gen(7)
	c3, u3, s3 := gen(8)

	if !bytes.Equal(c1.data, c2.data) || !reflect.DeepEqual(c1.docs, c2.docs) {
		t.Error("corpus differs between two generations from one seed")
	}
	if !reflect.DeepEqual(u1, u2) {
		t.Error("pattern universe differs between two generations from one seed")
	}
	if !reflect.DeepEqual(s1, s2) {
		t.Error("op stream differs between two generations from one seed")
	}
	if bytes.Equal(c1.data, c3.data) {
		t.Error("corpus is the same for two seeds")
	}
	if reflect.DeepEqual(u1, u3) {
		t.Error("pattern universe is the same for two seeds")
	}
	if reflect.DeepEqual(s1.calls, s3.calls) {
		t.Error("op stream is the same for two seeds")
	}
}

func TestStreamShape(t *testing.T) {
	const n = 24 << 10
	s := genStream(1, n)
	if len(s.calls) != n {
		t.Fatalf("stream has %d calls, want %d", len(s.calls), n)
	}
	// Every block of 24 calls holds exactly 3 batches and 7 of each single op.
	for at := 0; at < n; at += len(streamBlock) {
		var kinds [4]int
		for _, c := range s.calls[at : at+len(streamBlock)] {
			kinds[c.kind]++
		}
		if kinds != [4]int{7, 7, 7, 3} {
			t.Fatalf("block at %d holds %v of contains/count/occurrences/batch32, want [7 7 7 3]", at, kinds)
		}
	}
	for _, c := range s.calls {
		if c.kind == opBatch {
			if int(c.pat) >= len(s.batches) {
				t.Fatalf("batch call names batch %d of %d", c.pat, len(s.batches))
			}
		} else if c.pat >= universeSize {
			t.Fatalf("call names pattern %d of %d", c.pat, universeSize)
		}
	}
	for _, b := range s.batches {
		for _, c := range b {
			if c.kind == opBatch || c.pat >= universeSize {
				t.Fatalf("batch holds call %+v", c)
			}
		}
	}
}

func TestUniverseShape(t *testing.T) {
	c, err := genCorpus(workload.DNA, 1<<14, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	u := genUniverse(c.data, 3)
	if len(u) != universeSize {
		t.Fatalf("universe has %d patterns, want %d", len(u), universeSize)
	}
	for i, p := range u {
		if len(p) < minPatternLen || len(p) > maxPatternLen {
			t.Fatalf("pattern %d has length %d", i, len(p))
		}
		if i%4 != 3 && i < 2048 && !bytes.Contains(c.data, p) {
			t.Fatalf("unmutated pattern %d %q does not occur in the corpus", i, p)
		}
	}
}
