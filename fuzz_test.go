package era

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"era/internal/alphabet"
	"era/internal/seq"
	"era/internal/ukkonen"
)

// fuzzAlphabets are the symbol sets FuzzBuildQuery maps raw fuzz bytes
// onto: the paper's three alphabet classes plus a binary one (small
// alphabets stress vertical partitioning hardest).
var fuzzAlphabets = []string{
	"ACGT",
	"ACDEFGHIKLMNPQRSTVWY",
	"abcdefghijklmnopqrstuvwxyz",
	"01",
}

// FuzzBuildQuery builds an ERA index over fuzzer-chosen data and
// cross-checks every query kind — Contains, Count, Occurrences and the
// batched path — against a naive suffix tree from internal/ukkonen, the
// repository's correctness oracle.
func FuzzBuildQuery(f *testing.F) {
	f.Add([]byte("TGGTGGTGGTGCGGTGATGGTGC"), []byte("TG"), byte(0))
	f.Add([]byte("GATTACA"), []byte("TTTT"), byte(0))
	f.Add([]byte("mississippi"), []byte("issi"), byte(2))
	f.Add([]byte{0, 1, 0, 1, 1}, []byte{1, 1}, byte(3))
	f.Add([]byte("AAAAAAAAAAAAAAAA"), []byte("AAA"), byte(0))
	// Analytics-heavy seeds: strong repeat structure (lrs/topk ties), a
	// pattern at Hamming distance 1 from many windows (mismatch), and
	// periodic strings where top-k counts collide and rank by label.
	f.Add([]byte("GATTACAGATTACA"), []byte("GATTACA"), byte(0))
	f.Add([]byte("abcabcabcabcx"), []byte("abd"), byte(2))
	f.Add([]byte("011001100110"), []byte("0101"), byte(3))
	f.Add([]byte("MKLVMKLVMKLV"), []byte("MKLX"), byte(1))
	// Pattern lengths 1..16 against a period-4 string: the word-at-a-time
	// edge compare sees every split of a pattern across the 8-byte word grid
	// — sub-word only (1..7), exact words (8, 16), and word + partial tail
	// (9..15) — with mismatches landing in both the word and the tail.
	grid := []byte("ACGTACGTACGTACGTACGTACGT")
	for n := 1; n <= 16; n++ {
		f.Add(grid, grid[:n], byte(0))
		mis := append([]byte(nil), grid[:n]...)
		mis[n-1] = 'A' + 'C' - mis[n-1] // flip the final symbol within the alphabet
		f.Add(grid, mis, byte(0))
	}

	f.Fuzz(func(t *testing.T, core, patRaw []byte, alphaSel byte) {
		syms := fuzzAlphabets[int(alphaSel)%len(fuzzAlphabets)]
		if len(core) == 0 || len(core) > 4096 {
			t.Skip()
		}
		if len(patRaw) > 24 {
			patRaw = patRaw[:24]
		}
		data := make([]byte, len(core))
		for i, b := range core {
			data[i] = syms[int(b)%len(syms)]
		}
		pat := make([]byte, len(patRaw))
		for i, b := range patRaw {
			pat[i] = syms[int(b)%len(syms)]
		}

		// A tight budget forces real vertical partitioning even on small
		// fuzz inputs (and forceERA keeps the ones that fit even that budget
		// as a suffix array with ERA; FuzzBuildersAgree holds the in-memory
		// builder to ERA's bytes, and so to this oracle).
		idx, err := Build(data, forceERA(len(data)+1))
		if err != nil {
			t.Fatalf("Build(%q): %v", data, err)
		}
		if idx.Stats().InMemory {
			t.Fatalf("Build(%q) did not run ERA", data)
		}

		// The oracle: a naive O(n²) suffix tree over the same string.
		terminated := append(append([]byte(nil), data...), alphabet.Terminator)
		mem, err := seq.NewMem(idx.Alphabet(), terminated)
		if err != nil {
			t.Fatal(err)
		}
		oracle, err := ukkonen.BuildNaive(mem)
		if err != nil {
			t.Fatal(err)
		}

		for _, p := range [][]byte{pat, data, nil} {
			wantContains := oracle.Contains(p)
			if got := idx.Contains(p); got != wantContains {
				t.Errorf("Contains(%q) = %v, oracle says %v (data %q)", p, got, wantContains, data)
			}
			wantCount := oracle.Count(p)
			if got := idx.Count(p); got != wantCount {
				t.Errorf("Count(%q) = %d, oracle says %d (data %q)", p, got, wantCount, data)
			}
			wantOcc := oracle.Occurrences(p)
			gotOcc, _ := idx.Occurrences(p)
			if len(gotOcc) != len(wantOcc) {
				t.Errorf("Occurrences(%q): %d offsets, oracle has %d (data %q)", p, len(gotOcc), len(wantOcc), data)
			}

			// The batched path must agree with the single-query path.
			res := idx.Batch([]Op{
				{Kind: OpContains, Pattern: p},
				{Kind: OpCount, Pattern: p},
				{Kind: OpOccurrences, Pattern: p},
			})
			if res[0].Found != wantContains || res[1].Count != wantCount || len(res[2].Occurrences) != len(wantOcc) {
				t.Errorf("Batch(%q) = %+v, oracle: found %v count %d occ %d", p, res, wantContains, wantCount, len(wantOcc))
			}
		}

		// The longest repeated substring must occur at least twice and be
		// confirmed by the oracle.
		lrs, occ := idx.LongestRepeatedSubstring()
		if len(lrs) > 0 {
			if len(occ) < 2 {
				t.Errorf("LRS %q has %d occurrences", lrs, len(occ))
			}
			if oracle.Count(lrs) != len(occ) {
				t.Errorf("LRS %q: %d occurrences, oracle says %d", lrs, len(occ), oracle.Count(lrs))
			}
		} else if bytes.ContainsFunc(data[1:], func(r rune) bool { return byte(r) == data[0] }) && len(data) > 1 {
			// Any repeated single symbol implies a non-empty LRS.
			t.Errorf("empty LRS but %q repeats symbols", data)
		}

		// The analytics plans against the naive scan
		// oracles (data is the single document, so it is the whole virtual
		// global string).
		analytics := []Query{
			{Kind: OpLongestRepeat},
			{Kind: OpTopK, K: 8, MinLen: 2},
			{Kind: OpTopK, K: 3, MinLen: len(data)/2 + 1},
		}
		if len(pat) > 0 {
			analytics = append(analytics,
				Query{Kind: OpMismatch, Pattern: pat, K: 0},
				Query{Kind: OpMismatch, Pattern: pat, K: 1},
				Query{Kind: OpMismatch, Pattern: pat, K: 2, MaxOccurrences: 4},
				Query{Kind: OpDocFreq, Patterns: [][]byte{pat, data}},
			)
		}
		for _, q := range analytics {
			want := naiveAnswer([][]byte{data}, q)
			got, err := idx.Analytics(context.Background(), q)
			if err != nil {
				t.Fatalf("Analytics(%s %+v): %v (data %q)", q.Kind, q, err, data)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("Analytics(%s %+v) = %+v, oracle %+v (data %q)", q.Kind, q, got, want, data)
			}
		}
	})
}
