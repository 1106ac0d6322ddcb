package suffixtree

import (
	"math/rand"
	"testing"
)

// TestMatchTraceAgreesWithFind checks the flat layout's MatchTrace against
// its Find and the scan oracle on random patterns, including resumed
// descents: each pattern restarts from the longest prefix it shares with its
// predecessor, exactly as Index.Batch drives it.
func TestMatchTraceAgreesWithFind(t *testing.T) {
	s := "TGGTGGTGGTGCGGTGATGGTGCGGATTGGCCAATTGGTTGTTGAACCGT$"
	tr := flatOf(t, buildFromSA(t, mem(t, s)), []byte(s))

	rng := rand.New(rand.NewSource(1))
	patterns := make([][]byte, 200)
	for i := range patterns {
		if i%2 == 0 {
			l := rng.Intn(10)
			off := rng.Intn(len(s) - 1 - l)
			patterns[i] = []byte(s[off : off+l])
		} else {
			p := make([]byte, 1+rng.Intn(8))
			for j := range p {
				p[j] = "ACGT"[rng.Intn(4)]
			}
			patterns[i] = p
		}
	}

	trace := make([]Locus, 16)
	var prev []byte
	prevMatched := 0
	for _, p := range patterns {
		// Resume from the shared prefix with the previous pattern.
		l := 0
		for l < len(p) && l < len(prev) && p[l] == prev[l] {
			l++
		}
		if l > prevMatched {
			l = prevMatched
		}
		matched := tr.MatchTrace(p, l, trace)
		prev, prevMatched = p, matched
		if want := longestOccurringPrefix([]byte(s), p); matched != want {
			t.Fatalf("MatchTrace(%q) matched %d, the longest prefix occurring is %d", p, matched, want)
		}

		wantLoc, wantOK := tr.Find(p)
		if (matched == len(p)) != wantOK {
			t.Fatalf("MatchTrace(%q) matched %d, Find ok=%v", p, matched, wantOK)
		}
		if !wantOK {
			continue
		}
		if len(p) > 0 {
			got := trace[len(p)-1]
			if got != wantLoc {
				t.Fatalf("MatchTrace(%q) locus = %+v, Find = %+v", p, got, wantLoc)
			}
		}
		// Every intermediate locus must equal a fresh Find of the prefix.
		for d := 1; d <= len(p); d++ {
			want, ok := tr.Find(p[:d])
			if !ok || trace[d-1] != want {
				t.Fatalf("MatchTrace(%q) trace[%d] = %+v, Find(%q) = %+v, %v", p, d-1, trace[d-1], p[:d], want, ok)
			}
		}
	}
}

// TestMatchTracePartialFailure pins that a failed match still reports how
// far it got and leaves that prefix's trace usable.
func TestMatchTracePartialFailure(t *testing.T) {
	s := "TGGTGGTGGTGCGGTGATGGTGC$"
	tr := flatOf(t, buildFromSA(t, mem(t, s)), []byte(s))

	trace := make([]Locus, 8)
	p := []byte("TGATXX") // TGAT matches, then diverges
	matched := tr.MatchTrace(p, 0, trace)
	if matched != 4 {
		t.Fatalf("MatchTrace(%q) matched %d, want 4", p, matched)
	}
	// Resuming a pattern that shares the 4 matched symbols must succeed
	// without rewalking them.
	q := []byte("TGATGG")
	if got := tr.MatchTrace(q, matched, trace); got != len(q) {
		t.Fatalf("resumed MatchTrace(%q) matched %d, want %d", q, got, len(q))
	}
	want, ok := tr.Find(q)
	if !ok || trace[len(q)-1] != want {
		t.Fatalf("resumed locus = %+v, Find(%q) = %+v, %v", trace[len(q)-1], q, want, ok)
	}
}
