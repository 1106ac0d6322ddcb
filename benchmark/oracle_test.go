package main

import (
	"bytes"
	"slices"
	"testing"
)

// The oracle is checked against brute force, which shares nothing with it.
func TestOracleAgainstBruteForce(t *testing.T) {
	text := []byte("TGGTGGTGGTGCGGTGATGGTGC")
	o, err := newOracle(text)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{"TG", "GGT", "TGGTGGTG", "C", "CC", "TGC", "GATGGTGC", "A", "AA"} {
		var naive []int
		for i := 0; i+len(p) <= len(text); i++ {
			if bytes.HasPrefix(text[i:], []byte(p)) {
				naive = append(naive, i)
			}
		}
		if got := o.count([]byte(p)); got != len(naive) {
			t.Errorf("count(%q) = %d, brute force finds %d", p, got, len(naive))
		}
		got := o.firstOccurrences([]byte(p), 3)
		if want := naive[:min(3, len(naive))]; !slices.Equal(got, want) {
			t.Errorf("firstOccurrences(%q, 3) = %v, brute force finds %v", p, got, want)
		}
	}
	if got := o.longestRepeat(); got != len("TGGTGGTG") {
		t.Errorf("longestRepeat = %d, want 8 (TGGTGGTG, the paper's Fig. 2)", got)
	}
}

func TestExpectCheck(t *testing.T) {
	o, err := newOracle([]byte("abracadabra"))
	if err != nil {
		t.Fatal(err)
	}
	e := o.expect([][]byte{[]byte("abra"), []byte("zz"), []byte("a")})
	for _, tc := range []struct {
		name   string
		c      call
		found  bool
		count  int
		occ    []int
		strict bool
		want   bool
	}{
		{"contains hit", call{opContains, 0}, true, 0, nil, false, true},
		{"contains wrongly missed", call{opContains, 0}, false, 0, nil, false, false},
		{"miss", call{opCount, 1}, false, 0, nil, false, true},
		{"miss reported found", call{opCount, 1}, true, 1, nil, false, false},
		{"count", call{opCount, 0}, true, 2, nil, false, true},
		{"count off by one", call{opCount, 0}, true, 3, nil, false, false},
		{"occurrences", call{opOccurrences, 0}, true, 2, []int{0, 7}, true, true},
		{"occurrences short", call{opOccurrences, 0}, true, 2, []int{0}, false, false},
		{"occurrences at a wrong offset", call{opOccurrences, 0}, true, 2, []int{0, 6}, false, false},
		{"occurrences unsorted", call{opOccurrences, 0}, true, 2, []int{7, 0}, false, false},
		{"every offset of a frequent pattern", call{opOccurrences, 2}, true, 5, []int{0, 3, 5, 7, 10}, false, true},
	} {
		if got := e.check(tc.c, tc.found, tc.count, tc.occ, tc.strict); got != tc.want {
			t.Errorf("%s: check = %v, want %v", tc.name, got, tc.want)
		}
	}
}
