package core

import (
	"bytes"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"era/internal/alphabet"
)

// stableAreaSorter is the kernel sortArea replaced, kept as the reference:
// sort.Stable over an index window, comparing the chunks as byte slices (a
// clipped chunk is shorter, not padded) symbol by symbol.
type stableAreaSorter struct {
	chunks [][]byte
	idx    []int32
}

func (s *stableAreaSorter) Len() int      { return len(s.idx) }
func (s *stableAreaSorter) Swap(a, b int) { s.idx[a], s.idx[b] = s.idx[b], s.idx[a] }
func (s *stableAreaSorter) Less(a, b int) bool {
	x, y := s.chunks[s.idx[a]], s.chunks[s.idx[b]]
	k := 0
	for k < len(x) && k < len(y) && x[k] == y[k] {
		k++
	}
	if k == len(x) || k == len(y) {
		return len(x) < len(y)
	}
	return x[k] < y[k]
}

// areaFixture is a subState over the suffixes of text at the given
// positions, with their rng-symbol chunks fetched into scattered slots the
// way a round leaves them.
type areaFixture struct {
	st     *subState
	ch     chunkBuf
	chunks [][]byte // index → chunk, clipped at the end of text
}

func newAreaFixture(rnd *rand.Rand, text []byte, positions []int32, rng int) *areaFixture {
	m := len(positions)
	fx := &areaFixture{chunks: make([][]byte, m)}
	fx.ch.reset(m, rng)
	for i := range fx.ch.buf {
		fx.ch.buf[i] = 0xEE // a recycled buffer; fill must pad clipped chunks
	}
	st := &subState{
		L: slices.Clone(positions), P: make([]int32, m), I: make([]int32, m),
		area: make([]byte, m), R: make([]int32, m),
	}
	for i, r := range rnd.Perm(m) {
		st.P[i] = int32(r)
		st.I[r] = int32(i)
	}
	for i, slot := range rnd.Perm(m) {
		c := text[positions[i]:min(int(positions[i])+rng, len(text))]
		copy(fx.ch.fill(slot, len(c)), c)
		st.R[i] = int32(slot)
		fx.chunks[i] = c
	}
	fx.st = st
	return fx
}

// checkSortArea sorts [lo, hi) with the kernel and with the reference and
// requires the same L, P, I and slot order, and everything outside the
// window untouched.
func checkSortArea(t *testing.T, name string, fx *areaFixture, lo, hi int) {
	t.Helper()
	st := fx.st
	wantL, wantP, wantR := slices.Clone(st.L), slices.Clone(st.P), slices.Clone(st.R)
	ref := &stableAreaSorter{chunks: fx.chunks, idx: make([]int32, hi-lo)}
	for k := range ref.idx {
		ref.idx[k] = int32(lo + k)
	}
	sort.Stable(ref)
	for k, src := range ref.idx {
		wantL[lo+k], wantP[lo+k], wantR[lo+k] = st.L[src], st.P[src], st.R[src]
	}

	var scr sortScratch
	st.sortArea(&fx.ch, &scr, lo, hi)
	if !slices.Equal(st.L, wantL) {
		t.Fatalf("%s: L differs from the stable reference", name)
	}
	if !slices.Equal(st.P, wantP) {
		t.Fatalf("%s: P differs from the stable reference", name)
	}
	if !slices.Equal(st.R, wantR) {
		t.Fatalf("%s: slot order differs from the stable reference", name)
	}
	for x, r := range st.P {
		if st.I[r] != int32(x) {
			t.Fatalf("%s: I[P[%d]] = %d", name, x, st.I[r])
		}
	}
}

// sortAreaTexts are the chunk populations the differential draws from:
// random symbols (few ties), a period-2 string (two tie classes, decided
// only where the end of S clips a chunk), one repeated symbol (every full
// chunk equal) and a short random string whose area is mostly clipped.
func sortAreaTexts(rnd *rand.Rand, n int) map[string][]byte {
	random := make([]byte, n)
	for i := range random {
		random[i] = "ACGT"[rnd.Intn(4)]
	}
	texts := map[string][]byte{
		"random":    random,
		"periodic":  bytes.Repeat([]byte("ab"), n/2),
		"all-equal": bytes.Repeat([]byte("a"), n),
		"clipped":   random[:48],
	}
	for k, s := range texts {
		texts[k] = append(slices.Clip(s), alphabet.Terminator)
	}
	return texts
}

// TestSortAreaMatchesStableReference is the differential that lets the
// packed-key kernel replace sort.Stable: identical L, P, I and slot order on
// every chunk population, for ranges on both sides of the key width and of
// its multiples, and areas from a pair to thousands.
func TestSortAreaMatchesStableReference(t *testing.T) {
	rnd := rand.New(rand.NewSource(18))
	sizes := []int{2, 3, 7, 64, 500, 4096}
	if testing.Short() {
		sizes = []int{2, 3, 7, 64, 500}
	}
	for name, text := range sortAreaTexts(rnd, 6000) {
		for rng := 1; rng <= 40; rng++ {
			for _, m := range sizes {
				m = min(m, len(text))
				// A random sample of the suffixes — all of them when the text
				// is short, so most chunks are clipped.
				perm := rnd.Perm(len(text))[:m]
				positions := make([]int32, m)
				for i, p := range perm {
					positions[i] = int32(p)
				}
				fx := newAreaFixture(rnd, text, positions, rng)
				lo := rnd.Intn(m - 1)
				hi := lo + 2 + rnd.Intn(m-lo-1)
				if rnd.Intn(2) == 0 {
					lo, hi = 0, m
				}
				checkSortArea(t, name, fx, lo, hi)
			}
		}
	}
}

// FuzzSortArea drives the same differential from arbitrary symbols, in the
// style of FuzzVerticalPartition: the text is the fuzz input over a small
// alphabet (so ties are common), every suffix is a leaf of one area.
func FuzzSortArea(f *testing.F) {
	f.Add([]byte("TGGTGGTGGTGCGGTGATGGTGC"), uint8(3))
	f.Add([]byte("abababababababababababababab"), uint8(9))
	f.Add(bytes.Repeat([]byte{0}, 70), uint8(16))
	f.Fuzz(func(t *testing.T, core []byte, rngRaw uint8) {
		if len(core) == 0 || len(core) > 2048 {
			t.Skip()
		}
		text := make([]byte, len(core)+1)
		for i, b := range core {
			text[i] = "ACGT"[int(b)%4]
		}
		text[len(core)] = alphabet.Terminator
		positions := make([]int32, len(text))
		for i := range positions {
			positions[i] = int32(i)
		}
		rnd := rand.New(rand.NewSource(int64(len(core))))
		fx := newAreaFixture(rnd, text, positions, 1+int(rngRaw)%48)
		checkSortArea(t, "fuzz", fx, 0, len(positions))
	})
}

// TestSortChargeIgnoresTheKernel pins the model to the data: a round charges
// the same operations whether its areas arrive unsorted — so the packed-key
// kernel does the work — or already put in order by the sort.Stable
// reference, which leaves the kernel nothing to do. (The replaced code
// charged the comparisons its sort happened to make, so any kernel change
// moved every virtual time.)
func TestSortChargeIgnoresTheKernel(t *testing.T) {
	rnd := rand.New(rand.NewSource(5))
	for name, text := range sortAreaTexts(rnd, 3000) {
		for _, rng := range []int{1, 5, 8, 13, 32} {
			m := min(700, len(text))
			positions := make([]int32, m)
			for i, p := range rnd.Perm(len(text))[:m] {
				positions[i] = int32(p)
			}
			prepare := func() *areaFixture {
				fx := newAreaFixture(rand.New(rand.NewSource(int64(rng))), text, positions, rng)
				fx.st.LCP, fx.st.active = make([]int32, m), m
				return fx
			}
			a, b := prepare(), prepare()

			// b: the reference kernel sorts the one area before the round.
			ref := &stableAreaSorter{chunks: b.chunks, idx: make([]int32, m)}
			for k := range ref.idx {
				ref.idx[k] = int32(k)
			}
			sort.Stable(ref)
			l, p, r := slices.Clone(b.st.L), slices.Clone(b.st.P), slices.Clone(b.st.R)
			for k, src := range ref.idx {
				b.st.L[k], b.st.P[k], b.st.R[k] = l[src], p[src], r[src]
				b.st.I[p[src]] = int32(k)
			}

			var scr sortScratch
			opsA, errA := a.st.round(&a.ch, &scr, len(text), 0)
			opsB, errB := b.st.round(&b.ch, &scr, len(text), 0)
			if errA != nil || errB != nil {
				t.Fatalf("%s rng %d: round failed: %v / %v", name, rng, errA, errB)
			}
			if opsA != opsB {
				t.Errorf("%s rng %d: %d ops with the packed-key kernel, %d after the stable reference", name, rng, opsA, opsB)
			}
			if !slices.Equal(a.st.L, b.st.L) || !slices.Equal(a.st.LCP, b.st.LCP) || !slices.Equal(a.st.area, b.st.area) {
				t.Errorf("%s rng %d: the two kernels left different L / LCP / areas", name, rng)
			}
		}
	}
}

// TestSortChargeClosedForm pins the charge itself: m·⌈log₂ m⌉ comparisons
// at the mean of one symbol and the mean adjacent comparison length.
func TestSortChargeClosedForm(t *testing.T) {
	for _, c := range []struct {
		m        int
		adjacent int64
		want     int64
	}{
		{1, 0, 0},
		{2, 5, 2 * 1 * (1 + 5) / 2}, // one pair of length 5
		{3, 8, 3 * 2 * (1 + 4) / 2}, // mean 4
		{4, 9, 4 * 2 * (1 + 3) / 2}, // mean 3
		{5, 10, (5*3 + 5*3*10/4) / 2},
		{1024, 1023 * 7, 1024 * 10 * (1 + 7) / 2},
		{1025, 1024 * 7, 1025 * 11 * (1 + 7) / 2},
		{1 << 21, (1<<21 - 1) << 30, (1 << 21) * 21 * (1 + 1<<30) / 2}, // no overflow on the way
	} {
		if got := sortCharge(c.m, c.adjacent); got != c.want {
			t.Errorf("sortCharge(%d, %d) = %d, want %d", c.m, c.adjacent, got, c.want)
		}
	}
}
