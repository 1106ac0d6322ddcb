package era

import (
	"bytes"
	"context"
	"reflect"
	"slices"
	"testing"
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
// batched path — against a scan of the string (scanOracle), and the
// analytics plans against the naive analytics oracles.
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

		// The oracle: a bytes.HasPrefix scan over every offset of the
		// terminated string, which shares no code with any tree.
		oracle := newScanOracle([][]byte{data})

		for _, p := range [][]byte{pat, data, nil} {
			wantOcc := oracle.occurrences(p)
			wantContains, wantCount := len(wantOcc) > 0, len(wantOcc)
			if got := idx.Contains(p); got != wantContains {
				t.Errorf("Contains(%q) = %v, oracle says %v (data %q)", p, got, wantContains, data)
			}
			if got := idx.Count(p); got != wantCount {
				t.Errorf("Count(%q) = %d, oracle says %d (data %q)", p, got, wantCount, data)
			}
			if gotOcc, _ := idx.Occurrences(p); !slices.Equal(gotOcc, wantOcc) && len(gotOcc)+len(wantOcc) > 0 {
				t.Errorf("Occurrences(%q) = %v, oracle says %v (data %q)", p, gotOcc, wantOcc, data)
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
			if want := len(oracle.occurrences(lrs)); want != len(occ) {
				t.Errorf("LRS %q: %d occurrences, oracle says %d", lrs, len(occ), want)
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

// FuzzShardedAgainstMono cuts fuzzer-chosen text into documents (empty ones
// included), shards it into K prefix ranges, and holds a fuzzer-chosen
// stream of ops — every kind, on patterns cut from the text and on proper
// prefixes of the shard keys, which two shards share — to the monolithic
// index: Batch (analytics ops ride along), Analytics, and the single-pattern
// calls, DeepEqual.
func FuzzShardedAgainstMono(f *testing.F) {
	f.Add([]byte("TGGTGGTGGTGCGGTGATGGTGC"), byte(3), []byte{0, 1, 1, 2, 2, 5, 3, 7, 4, 0, 5, 9, 6, 2, 7, 3})
	f.Add([]byte("GATTACAGATTACA"), byte(8), []byte{3, 0, 3, 1, 4, 4, 6, 6, 7, 1, 2, 0})
	f.Add(bytes.Repeat([]byte("ACGTTGA"), 30), byte(5), []byte{11, 2, 19, 4, 4, 0, 14, 8, 23, 1})
	f.Add([]byte("mississippi"), byte(0x22), []byte{1, 1, 2, 3, 5, 7, 6, 1, 3, 6})
	f.Add(bytes.Repeat([]byte{0}, 200), byte(0x14), []byte{3, 2, 4, 0, 2, 1, 11, 4})
	f.Fuzz(func(t *testing.T, core []byte, kSel byte, script []byte) {
		if len(core) == 0 || len(core) > 2048 || len(script) > 64 {
			t.Skip()
		}
		syms := fuzzAlphabets[int(kSel>>4)%len(fuzzAlphabets)]
		k := 1 + int(kSel&15)
		data := make([]byte, len(core))
		var docs [][]byte
		start := 0
		for i, b := range core {
			data[i] = syms[int(b)%len(syms)]
			if b%11 == 0 && i > 0 { // a document ends before i; every second cut adds an empty one
				docs = append(docs, data[start:i])
				if b%2 == 0 {
					docs = append(docs, nil)
				}
				start = i
			}
		}
		docs = append(docs, data[start:])
		mono, err := BuildCorpus(docs, nil)
		if err != nil {
			t.Fatal(err)
		}
		sx, err := BuildShardedCorpus(docs, &ShardConfig{Shards: k})
		if err != nil {
			t.Fatal(err)
		}
		keys := keyPatterns(sx)
		pattern := func(a, b byte) []byte {
			if b&1 == 0 && len(keys) > 0 {
				return keys[int(b>>1)%len(keys)]
			}
			off := int(b>>1) % len(data)
			return data[off:min(off+1+int(a>>3)%8, len(data))]
		}
		var ops []Op
		for i := 0; i+1 < len(script); i += 2 {
			a, b := script[i], script[i+1]
			p := pattern(a, b)
			op := Op{Kind: OpKind(a % 8), Pattern: p}
			switch op.Kind {
			case OpOccurrences:
				op.MaxOccurrences = int(b) % 4
			case OpTopK:
				op.Pattern, op.K, op.MinLen = nil, 1+int(b)%8, 1+int(a>>3)%6
			case OpLongestRepeat:
				op.Pattern = nil
			case OpCommonSubstring:
				op.Pattern, op.DocA, op.DocB = nil, int(a>>3)%len(docs), int(b)%len(docs)
				if op.DocA == op.DocB {
					continue
				}
			case OpDocFreq:
				op.Pattern, op.Patterns = nil, [][]byte{p, pattern(b, a)}
				if len(op.Patterns[0]) == 0 || len(op.Patterns[1]) == 0 {
					continue
				}
			case OpMismatch:
				op.K, op.MaxOccurrences = int(b)%3, int(a>>3)%3
				if len(p) == 0 {
					continue
				}
			}
			ops = append(ops, op)
		}
		got, want := sx.Batch(ops), mono.Batch(ops)
		for i, op := range ops {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("K=%d, op %d (%s %q k=%d L=%d): got %+v, want %+v (docs %q)", k, i, op.Kind, op.Pattern, op.K, op.MinLen, got[i], want[i], docs)
			}
			if op.Kind.IsAnalytic() {
				if a, err := sx.Analytics(context.Background(), op); err != nil || !reflect.DeepEqual(a, want[i]) {
					t.Fatalf("K=%d, Analytics(%s): %+v, %v; want %+v (docs %q)", k, op.Kind, a, err, want[i], docs)
				}
				continue
			}
			if c := sx.Count(op.Pattern); c != mono.Count(op.Pattern) {
				t.Fatalf("K=%d, Count(%q) = %d, want %d", k, op.Pattern, c, mono.Count(op.Pattern))
			}
			gotHits, _ := sx.DocOccurrences(op.Pattern)
			wantHits, _ := mono.DocOccurrences(op.Pattern)
			if !reflect.DeepEqual(gotHits, wantHits) {
				t.Fatalf("K=%d, DocOccurrences(%q) = %v, want %v", k, op.Pattern, gotHits, wantHits)
			}
		}
	})
}
