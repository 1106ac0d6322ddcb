package core

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"

	"era/internal/alphabet"
	"era/internal/seq"
	"era/internal/sim"
	"era/internal/workload"
)

// These tests pin the hash-free hot paths to the map-based references that
// remain in vertical.go / era.go: byte-identical outputs AND byte-identical
// virtual-time accounting, on top of the fuzz oracles that already check the
// end results against naive counting and Ukkonen.

func matcherScanner(t testing.TB, f *seq.File) (*seq.Scanner, *sim.Clock) {
	t.Helper()
	clock := new(sim.Clock)
	sc, err := f.NewScanner(clock, seq.ScannerConfig{BufSize: 16 * 1024})
	if err != nil {
		t.Fatal(err)
	}
	return sc, clock
}

// TestScanCountDenseMatchesMap compares the rolling-code dense counter, as
// the one-worker VP round runs it, against the map scan: same frequencies, same tail, same clock, same
// scanner traffic — across workloads, window lengths and string lengths
// (including lengths around the chunking and tail boundaries).
func TestScanCountDenseMatchesMap(t *testing.T) {
	model := sim.DefaultModel()
	for _, kind := range workload.Kinds {
		a, err := workload.AlphabetOf(kind)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{2, 3, 17, 1000, 4099} {
			data := workload.MustGenerate(kind, n, int64(n))
			for _, k := range []int{1, 2, 3, 5, 9} {
				if k >= len(data) {
					continue
				}
				// Working set: every k-mer that occurs at a sampled set of
				// positions, plus windows that cannot occur.
				seen := map[string]bool{}
				var working [][]byte
				for i := 0; i+k < len(data); i += 1 + i/3 {
					w := string(data[i : i+k])
					if !seen[w] {
						seen[w] = true
						working = append(working, []byte(w))
					}
				}
				absent := bytes.Repeat(a.Symbols()[:1], k)
				if !seen[string(absent)] {
					working = append(working, absent)
				}

				vc := newVertCounter(a)
				if vc.table(k, len(data)) == nil {
					continue // too wide for the dense path at this size
				}
				freqsD := make([]int64, len(working))
				freqsM := make([]int64, len(working))
				// Fresh files: the simulated disk arm is stateful, so each
				// run must see identical disk history for clocks to agree.
				// The dense side is the VP's one-worker round: one span, all
				// of S.
				scD, clockD := matcherScanner(t, publish(t, a, data))
				ctx := &buildContext{vpsc: scD, cpu: clockD, io: new(sim.Clock), vc: vc}
				tailD, err := newVPRound(1).count([]*buildContext{ctx}, model, len(data), k, working, freqsD)
				if err != nil {
					t.Fatal(err)
				}
				scM, clockM := matcherScanner(t, publish(t, a, data))
				tailM, err := scanCountMap(scM, clockM, model, len(data), k, working, freqsM)
				if err != nil {
					t.Fatal(err)
				}
				for wi := range working {
					if freqsD[wi] != freqsM[wi] {
						t.Errorf("%s n=%d k=%d: freq(%q) dense %d, map %d", kind, n, k, working[wi], freqsD[wi], freqsM[wi])
					}
				}
				if !bytes.Equal(tailD, tailM) {
					t.Errorf("%s n=%d k=%d: tail dense %q, map %q", kind, n, k, tailD, tailM)
				}
				if clockD.Now() != clockM.Now() {
					t.Errorf("%s n=%d k=%d: clock dense %v, map %v", kind, n, k, clockD.Now(), clockM.Now())
				}
				if scD.Stats() != scM.Stats() {
					t.Errorf("%s n=%d k=%d: scanner stats dense %+v, map %+v", kind, n, k, scD.Stats(), scM.Stats())
				}
			}
		}
	}
}

// TestCollectTrieMatchesMap compares the shortest-match code trie scan
// against the map scan on real vertical partitions (variable-length label
// sets including the p$ and $ labels): identical occurrences, chunks,
// captured counts, clocks and scanner traffic.
func TestCollectTrieMatchesMap(t *testing.T) {
	model := sim.DefaultModel()
	for _, kind := range workload.Kinds {
		a, err := workload.AlphabetOf(kind)
		if err != nil {
			t.Fatal(err)
		}
		for _, seed := range []int64{1, 2, 3} {
			data := workload.MustGenerate(kind, 3000, seed)
			f := publish(t, a, data)
			sc, clock := matcherScanner(t, f)
			groups, _, err := VerticalPartition(f, sc, clock, model, 64, true)
			if err != nil {
				t.Fatal(err)
			}
			for gi, g := range groups {
				for _, rng := range []int{0, 7, 64} {
					prep := func() (occs [][]int32, chunks [][][]byte) {
						occs = make([][]int32, len(g.Prefixes))
						chunks = make([][][]byte, len(g.Prefixes))
						for i, p := range g.Prefixes {
							occs[i] = make([]int32, 0, p.Freq)
							if rng > 0 {
								chunks[i] = make([][]byte, 0, p.Freq)
							}
						}
						return occs, chunks
					}
					maxLen := 0
					lengthsSet := map[int]bool{}
					for _, p := range g.Prefixes {
						if len(p.Label) > maxLen {
							maxLen = len(p.Label)
						}
						lengthsSet[len(p.Label)] = true
					}
					lengths := make([]int, 0, len(lengthsSet))
					for l := 1; l <= maxLen; l++ {
						if lengthsSet[l] {
							lengths = append(lengths, l)
						}
					}

					occsT, _ := prep()
					scT, clockT := matcherScanner(t, publish(t, a, data))
					m := newCollectMatcher(nil, a, g, lengths, maxLen)
					ctx := new(buildContext)
					slot := make([]int32, len(g.Prefixes))
					total := 0
					for i, p := range g.Prefixes {
						slot[i] = int32(total)
						total += int(p.Freq)
					}
					if rng > 0 {
						ctx.chunks.reset(total, rng)
						for i := range ctx.chunks.buf {
							ctx.chunks.buf[i] = 0xFF // a recycled buffer: the scan must pad clipped chunks itself
						}
					}
					capT, err := collectScanTrie(ctx, m, scT, clockT, model, len(data), rng, occsT, slot)
					if err != nil {
						t.Fatal(err)
					}
					occsM, chunksM := prep()
					scM, clockM := matcherScanner(t, publish(t, a, data))
					capM, err := collectScanMap(g, scM, clockM, model, len(data), maxLen, lengths, rng, occsM, chunksM)
					if err != nil {
						t.Fatal(err)
					}

					if capT != capM {
						t.Errorf("%s seed %d group %d rng %d: captured trie %d, map %d", kind, seed, gi, rng, capT, capM)
					}
					if clockT.Now() != clockM.Now() {
						t.Errorf("%s seed %d group %d rng %d: clock trie %v, map %v", kind, seed, gi, rng, clockT.Now(), clockM.Now())
					}
					if scT.Stats() != scM.Stats() {
						t.Errorf("%s seed %d group %d rng %d: scanner stats trie %+v, map %+v", kind, seed, gi, rng, scT.Stats(), scM.Stats())
					}
					for i := range g.Prefixes {
						if !equal32(occsT[i], occsM[i]) {
							t.Errorf("%s seed %d group %d: occs of %q trie %v, map %v", kind, seed, gi, g.Prefixes[i].Label, occsT[i], occsM[i])
						}
						if rng > 0 {
							// Slot slot[i]+j holds the map scan's chunk j of
							// prefix i, zero-padded to the stride.
							for j, want := range chunksM[i] {
								off := (int(slot[i]) + j) * rng
								got := ctx.chunks.buf[off : off+rng]
								if !bytes.Equal(got[:len(want)], want) || !bytes.Equal(got[len(want):], make([]byte, rng-len(want))) {
									t.Errorf("%s seed %d group %d: chunk %d of %q trie %q, map %q", kind, seed, gi, j, g.Prefixes[i].Label, got, want)
								}
							}
						}
					}
				}
			}
		}
	}
}

// TestRoundLoopsSteadyStateAllocFree pins the arena-backed round loops:
// extra rounds must not cost extra allocations, or extra bytes. The same
// group is prepared with a wide and a narrow static range; the narrow run
// does many times the rounds, and the allocation difference per extra round
// must be ≈ 0. Then the elastic range must allocate the bytes a static one
// does: R is sized once, from the plan.
func TestRoundLoopsSteadyStateAllocFree(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement is load-sensitive")
	}
	model := sim.DefaultModel()
	data := workload.MustGenerate(workload.Genome, 20000, 7)
	f := publish(t, alphabet.DNA, data)
	sc, clock := matcherScanner(t, f)
	groups, _, err := VerticalPartition(f, sc, clock, model, 512, true)
	if err != nil {
		t.Fatal(err)
	}
	// The largest group whose prefixes all recur: with no singleton slot the
	// collect round asks R for at most rCap, so an R sized by each round's
	// need would grow again in a later round.
	var g Group
	for _, cand := range groups {
		recur := true
		for _, p := range cand.Prefixes {
			recur = recur && p.Freq > 1
		}
		if recur && cand.Freq > g.Freq {
			g = cand
		}
	}
	if g.Freq < 256 {
		t.Fatalf("test setup: the largest group of recurring prefixes has %d leaves", g.Freq)
	}
	view, err := f.View()
	if err != nil {
		t.Fatal(err)
	}

	const rCap = 50000 // no multiple of the leaf counts: slots·range moves from round to round
	var rounds int
	run := func(name string, static int) func() {
		return func() {
			scR, clockR := matcherScanner(t, f)
			var stats PrepareStats
			var err error
			switch name {
			case "prepare":
				_, stats, err = GroupPrepare(nil, f, scR, clockR, model, g, rCap, static)
			case "prepare, 2 helpers":
				// The rounds fanned out to a crew of two lent contexts,
				// whose goroutines start once per call.
				fanned := &buildContext{crew: []*buildContext{{}, {}}}
				_, stats, err = GroupPrepare(fanned, f, scR, clockR, model, g, rCap, static)
			case "branch":
				_, stats, err = GroupBranch(nil, f, view, scR, clockR, model, g, rCap, static)
			}
			if err != nil {
				t.Fatal(err)
			}
			rounds = stats.Rounds
		}
	}
	measure := func(name string, static int) (float64, int) {
		allocs := testing.AllocsPerRun(3, run(name, static))
		return allocs, rounds
	}

	// Both runs do several rounds so one-time capacity growth cancels; the
	// narrow run roughly triples the rounds. The map-based loops allocated
	// ~2 per leaf per round (hundreds per round for this group), so the
	// 2-per-round bound pins the regression with a wide margin.
	for _, name := range []string{"prepare", "prepare, 2 helpers", "branch"} {
		aWide, rWide := measure(name, 9)
		aNarrow, rNarrow := measure(name, 3)
		if rNarrow <= rWide {
			t.Fatalf("%s: narrow range did not add rounds (%d vs %d)", name, rNarrow, rWide)
		}
		perRound := (aNarrow - aWide) / float64(rNarrow-rWide)
		if perRound > 2 {
			t.Errorf("%s: %.2f allocations per extra round (wide %0.f over %d rounds, narrow %0.f over %d rounds); round loop must be allocation-free in the steady state",
				name, perRound, aWide, rWide, aNarrow, rNarrow)
		}

		// Bytes, which an object count cannot see: R is allocated once, at
		// the plan's rCap, so the elastic range — whose slots·range moves by
		// a few bytes from round to round as leaves resolve — allocates
		// what a static range pinned at its round-one width does. An R
		// regrown whenever a round needs a little more reallocates all of
		// it each time.
		static := bytesPerRun(3, run(name, roundRange(rCap, 0, int(g.Freq), len(data))))
		staticRounds := rounds
		elastic := bytesPerRun(3, run(name, 0))
		t.Logf("%s: static range %.0f B per run over %d rounds, elastic %.0f B over %d rounds", name, static, staticRounds, elastic, rounds)
		if elastic > static+rCap/2 {
			t.Errorf("%s: the elastic range allocated %.0f B per run, the static %.0f B; R must be allocated once, at the plan's %d bytes",
				name, elastic, static, rCap)
		}
	}
}

// bytesPerRun is testing.AllocsPerRun for bytes: the mean growth of
// TotalAlloc over runs calls of f, after one warm-up call.
func bytesPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestMatcherPrimitivesAllocFree pins the reusable building blocks at zero
// steady-state allocations once warm: the chunk buffer's reset/fill cycle
// and the dense counter's per-round table reuse.
func TestMatcherPrimitivesAllocFree(t *testing.T) {
	var chunks chunkBuf
	chunks.reset(64, 256)
	if n := testing.AllocsPerRun(50, func() {
		chunks.reset(64, 256)
		for i := 0; i < 64; i++ {
			chunks.fill(i, 200)
		}
	}); n != 0 {
		t.Errorf("chunk buffer round cycle allocates %v times per round, want 0", n)
	}

	vc := newVertCounter(alphabet.DNA)
	vc.table(8, 1<<20)
	vc.scanBuf(64*1024 + 7)
	if n := testing.AllocsPerRun(50, func() {
		if vc.table(8, 1<<20) == nil {
			t.Fatal("dense table unexpectedly unavailable")
		}
		vc.scanBuf(64*1024 + 7)
	}); n != 0 {
		t.Errorf("vertical counter round cycle allocates %v times per round, want 0", n)
	}
}

// TestStrMethodDeepRepeats is the regression test for the open-edge clobber
// bug: on highly repetitive strings, ERa-str re-queues several edges of one
// sub-tree in one round; the re-queue must not overwrite edges still being
// processed (the seed's round loop appended into the array it was
// iterating, duplicating edges, corrupting sub-trees and eventually running
// past the end of the string). The Str build must agree with ERa-str+mem sub-tree
// for sub-tree, and ERa-str+mem with Ukkonen.
func TestStrMethodDeepRepeats(t *testing.T) {
	data := workload.MustGenerate(workload.Genome, 4000, 7)
	requireStrMatchesStrMem(t, alphabet.DNA, data, 64*1024)
	// The Ukkonen comparison below is the full correctness check; the
	// per-suffix Validate pass would only repeat it much more slowly.
	res, err := BuildSerial(publish(t, alphabet.DNA, data), Options{MemoryBudget: 64 * 1024, AssembleFlat: true})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Flat, oracleFlat(t, alphabet.DNA, data)) {
		t.Error("ERa-str+mem image differs from the Ukkonen oracle's on deep repeats")
	}
	str, err := BuildSerial(publish(t, alphabet.DNA, data), Options{MemoryBudget: 64 * 1024, Method: Str})
	if err != nil {
		t.Fatal(err)
	}
	if str.Stats.TreeNodes != res.Stats.TreeNodes {
		t.Errorf("ERa-str built %d nodes, ERa-str+mem %d; the two methods must build the same tree", str.Stats.TreeNodes, res.Stats.TreeNodes)
	}
}
