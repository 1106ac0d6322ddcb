package suffixarray

import (
	"bytes"
	"encoding/binary"
	stdsa "index/suffixarray"
	"math"
	"math/bits"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"era/internal/workload"
)

// naiveSA sorts suffixes directly — the O(n² log n) oracle.
func naiveSA(s []byte) []int32 {
	sa := make([]int32, len(s))
	for i := range sa {
		sa[i] = int32(i)
	}
	sort.Slice(sa, func(i, j int) bool {
		return bytes.Compare(s[sa[i]:], s[sa[j]:]) < 0
	})
	return sa
}

// sortsSuffixes reports whether sa is s's suffix array: a permutation of
// its offsets whose neighbouring suffixes strictly ascend. The suffixes are
// distinct, so that is the order naiveSA sorts them into, at n-1 comparisons.
func sortsSuffixes(s []byte, sa []int32) bool {
	if len(sa) != len(s) {
		return false
	}
	seen := make([]bool, len(s))
	for k, p := range sa {
		if p < 0 || int(p) >= len(s) || seen[p] {
			return false
		}
		seen[p] = true
		if k > 0 && bytes.Compare(s[sa[k-1]:], s[p:]) >= 0 {
			return false
		}
	}
	return true
}

// naiveLCP counts the LCP of every pair of neighbouring suffixes.
func naiveLCP(s []byte, sa []int32) []int32 {
	lcp := make([]int32, len(sa))
	for k := 1; k < len(sa); k++ {
		lcp[k] = int32(commonPrefix(s[sa[k-1]:], s[sa[k]:]))
	}
	return lcp
}

// commonPrefix counts the symbols a and b start with in common: whole equal
// blocks by memory comparison, then a word at a time — the first differing
// byte of two little-endian words is the lowest set byte of their XOR — then
// a byte at a time.
func commonPrefix(a, b []byte) int {
	const block = 256
	h := 0
	for len(a) >= block && len(b) >= block && bytes.Equal(a[:block], b[:block]) {
		a, b, h = a[block:], b[block:], h+block
	}
	for len(a) >= 8 && len(b) >= 8 {
		if x := binary.LittleEndian.Uint64(a) ^ binary.LittleEndian.Uint64(b); x != 0 {
			return h + bits.TrailingZeros64(x)/8
		}
		a, b, h = a[8:], b[8:], h+8
	}
	for i := 0; i < len(a) && i < len(b) && a[i] == b[i]; i++ {
		h++
	}
	return h
}

func terminated(core []byte) []byte {
	// Map arbitrary bytes into 'A'..'D' and terminate, so the sentinel
	// invariant holds.
	out := make([]byte, len(core)+1)
	for i, c := range core {
		out[i] = 'A' + c%4
	}
	out[len(core)] = '$'
	return out
}

func TestBuildSmall(t *testing.T) {
	cases := []string{
		"$",
		"A$",
		"AA$",
		"AB$",
		"BA$",
		"BANANA$",
		"AAAAAAAA$",
		"ABABABAB$",
		"MISSISSIPPI$",
		"TGGTGGTGGTGCGGTGATGGTGC$", // the paper's running example (Fig. 2)
	}
	for _, c := range cases {
		s := []byte(c)
		got, err := Build(s)
		if err != nil {
			t.Fatalf("Build(%q): %v", c, err)
		}
		want := naiveSA(s)
		if !equal32(got, want) {
			t.Errorf("Build(%q) = %v, want %v", c, got, want)
		}
		// The fuzz target's order check accepts exactly the sorted order.
		if !sortsSuffixes(s, want) {
			t.Errorf("sortsSuffixes refused the sorted suffixes of %q", c)
		}
		if n := len(want); n > 2 {
			swapped, repeated := slices.Clone(want), slices.Clone(want)
			swapped[n-2], swapped[n-1] = swapped[n-1], swapped[n-2]
			repeated[n-1] = repeated[0]
			if sortsSuffixes(s, swapped) || sortsSuffixes(s, repeated) {
				t.Errorf("sortsSuffixes accepted a misordered or repeating array for %q", c)
			}
		}
		into := make([]int32, len(s))
		for i := range into {
			into[i] = -7 // whatever the destination held before
		}
		if err := BuildInto(s, into); err != nil || !equal32(into, want) {
			t.Errorf("BuildInto(%q) = %v (%v), want %v", c, into, err, want)
		}
		if err := BuildInto(s, into[1:]); err == nil {
			t.Errorf("BuildInto(%q) into %d entries succeeded", c, len(into)-1)
		}
	}
}

func TestBuildRejectsBadSentinel(t *testing.T) {
	if _, err := Build([]byte("")); err == nil {
		t.Error("Build of empty string: expected error")
	}
	if _, err := Build([]byte("A$A")); err == nil {
		t.Error("Build with interior terminator: expected error")
	}
	if _, err := Build([]byte("ABC")); err == nil {
		// 'C' is the last byte but 'A' < 'C'... actually A > C is false;
		// bytes before the last must rank ABOVE it, and 'A' < 'C' violates it.
		t.Error("Build without unique smallest last byte: expected error")
	}
}

func TestBuildQuick(t *testing.T) {
	f := func(core []byte) bool {
		s := terminated(core)
		got, err := Build(s)
		if err != nil {
			return false
		}
		return equal32(got, naiveSA(s))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// lcpAgrees reports whether LCP and PLCP of s both give the LCPs counted
// symbol by symbol: LCP in rank order, PLCP read through the suffix array.
func lcpAgrees(s []byte, sa []int32) bool {
	want := naiveLCP(s, sa)
	if !equal32(LCP(s, sa), want) {
		return false
	}
	plcp := PLCP(s, sa)
	if len(plcp) != len(sa) {
		return false
	}
	for k, p := range sa {
		if plcp[p] != want[k] {
			return false
		}
	}
	return true
}

func TestLCPQuick(t *testing.T) {
	f := func(core []byte) bool {
		s := terminated(core)
		sa, err := Build(s)
		if err != nil {
			return false
		}
		return lcpAgrees(s, sa)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
	// Text where every suffix repeats to the end: each LCP is as long as the
	// shorter suffix allows, the Φ walk's longest carried h.
	for _, c := range []string{"$", "A$", "AAAAAAAAAAAAAAAA$", "ABABABABABABABA$", "ACGTTGAACGTTGAACGTTGA$"} {
		s := []byte(c)
		sa, err := Build(s)
		if err != nil {
			t.Fatal(err)
		}
		if !lcpAgrees(s, sa) {
			t.Errorf("%q: LCP = %v, PLCP = %v, counting gives %v", c, LCP(s, sa), PLCP(s, sa), naiveLCP(s, sa))
		}
	}
}

func TestBuildWorkloads(t *testing.T) {
	for _, k := range workload.Kinds {
		s := workload.MustGenerate(k, 2000, 42)
		got, err := Build(s)
		if err != nil {
			t.Fatalf("%s: %v", k, err)
		}
		if want := naiveSA(s); !equal32(got, want) {
			t.Errorf("%s: SA mismatch", k)
		}
	}
}

func TestBuildLongRepetitive(t *testing.T) {
	// Deep recursion path for SA-IS: long runs and periodic structure.
	rng := rand.New(rand.NewSource(7))
	s := make([]byte, 0, 5001)
	for len(s) < 5000 {
		r := rng.Intn(3)
		switch r {
		case 0:
			for i := 0; i < 50; i++ {
				s = append(s, 'A')
			}
		case 1:
			for i := 0; i < 30; i++ {
				s = append(s, "AB"[i%2])
			}
		default:
			s = append(s, byte('A'+rng.Intn(4)))
		}
	}
	s = append(s, '$')
	got, err := Build(s)
	if err != nil {
		t.Fatal(err)
	}
	if want := naiveSA(s); !equal32(got, want) {
		t.Fatal("SA mismatch on repetitive input")
	}
	if !lcpAgrees(s, got) {
		t.Error("LCP or PLCP mismatch on repetitive input")
	}
}

func equal32(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// FuzzBuildLCP holds Build, LCP and PLCP to two references that share
// nothing with them or with each other: neighbouring suffixes compared, with
// their LCPs counted, and the standard library's suffix array, asked where
// windows of the text occur.
func FuzzBuildLCP(f *testing.F) {
	f.Add([]byte("TGGTGGTGGTGCGGTGATGGTGC"), byte(4))
	f.Add([]byte("mississippi"), byte(26))
	f.Add(bytes.Repeat([]byte{0}, 300), byte(1))
	f.Add(bytes.Repeat([]byte{0, 1}, 200), byte(2))
	f.Add(bytes.Repeat([]byte{0, 1, 2, 3, 3, 2, 0}, 70), byte(4))
	f.Add([]byte{3, 2, 1, 0, 0, 1, 2, 3, 3, 3, 0, 0, 0, 1}, byte(200))
	f.Add([]byte{}, byte(0))
	f.Fuzz(func(t *testing.T, core []byte, sigma byte) {
		if len(core) > 4096 {
			t.Skip()
		}
		// Up to 219 symbols above the terminator '$'.
		k := int(sigma)%219 + 1
		s := make([]byte, len(core)+1)
		for i, c := range core {
			s[i] = '%' + c%byte(k)
		}
		s[len(core)] = '$'

		sa, err := Build(s)
		if err != nil {
			t.Fatal(err)
		}
		if !sortsSuffixes(s, sa) {
			t.Fatalf("Build(%q) = %v does not sort the suffixes", s, sa)
		}
		lcp := naiveLCP(s, sa)
		if got := LCP(s, sa); !equal32(got, lcp) {
			t.Fatalf("LCP(%q) = %v, counting gives %v", s, got, lcp)
		}
		plcp := PLCP(s, sa)
		for k, p := range sa {
			if plcp[p] != lcp[k] {
				t.Fatalf("PLCP(%q)[%d] = %d, counting gives %d for rank %d", s, p, plcp[p], lcp[k], k)
			}
		}

		// The two answers are sets of distinct offsets: each of index/
		// suffixarray's must be one of this window's, consumed once.
		std, in := stdsa.New(s), make([]bool, len(s))
		for i := 0; i < len(s); i += len(s)/8 + 1 {
			for _, m := range []int{1, 2, 5, len(s) - i} {
				p := s[i:min(i+m, len(s))]
				lo := sort.Search(len(sa), func(r int) bool { return bytes.Compare(s[sa[r]:], p) >= 0 })
				hi := lo + sort.Search(len(sa)-lo, func(r int) bool { return !bytes.HasPrefix(s[sa[lo+r]:], p) })
				for _, o := range sa[lo:hi] {
					in[o] = true
				}
				want := std.Lookup(p, -1)
				same := len(want) == hi-lo
				for _, o := range want {
					same = same && in[o]
					in[o] = false
				}
				if !same {
					got := slices.Sorted(slices.Values(sa[lo:hi]))
					slices.Sort(want)
					t.Fatalf("%q occurs at %v by this suffix array of %q, at %v by index/suffixarray", p, got, s, want)
				}
			}
		}
	})
}

// benchTexts are the shapes the allocation pin and the benchmark run over:
// the two ends of the paper's alphabets, and text where every suffix repeats
// to the end.
func benchTexts(n int) map[string][]byte {
	return map[string][]byte{
		"dna":      workload.MustGenerate(workload.DNA, n, 42),
		"english":  workload.MustGenerate(workload.English, n, 42),
		"period-7": append(bytes.Repeat([]byte("ACGTTGA"), n/7+1)[:n], '$'),
	}
}

// TestAllocationPerSymbol pins what the package doc promises beyond the
// text: Build and PLCP together allocate at most 10 bytes per symbol at 1 Mi
// symbols — the suffix array, PLCP's one array and under a byte of SA-IS
// state — and Build and LCP at most 16, the rank-order gather's array on top.
// The 4 Ki figures carry 2 KiB of byte buckets and the allocator's size-class
// rounding, so PLCP's bound there is 12. TotalAlloc is process-wide, so
// whatever else the runtime allocates meanwhile (the race detector's
// bookkeeping, a parallel test) lands in one reading; the least of several is
// the pass's own.
func TestAllocationPerSymbol(t *testing.T) {
	kernels := []struct {
		name         string
		lcp          func(s []byte, sa []int32) []int32
		small, large float64 // B/symbol at 4 Ki and at 1 Mi symbols
	}{
		{"LCP", LCP, 16, 16},
		{"PLCP", PLCP, 12, 10},
	}
	for _, n := range []int{4 << 10, 1 << 20} {
		for name, s := range benchTexts(n) {
			for _, kn := range kernels {
				least := uint64(math.MaxUint64)
				for range 4 {
					var before, after runtime.MemStats
					runtime.ReadMemStats(&before)
					sa, err := Build(s)
					if err != nil {
						t.Fatal(err)
					}
					lcp := kn.lcp(s, sa)
					runtime.ReadMemStats(&after)
					runtime.KeepAlive(lcp)
					least = min(least, after.TotalAlloc-before.TotalAlloc)
				}
				perSym := float64(least) / float64(len(s))
				t.Logf("%s, %d symbols: Build + %s %.2f B/symbol", name, n, kn.name, perSym)
				bound := kn.large
				if n < 1<<20 {
					bound = kn.small
				}
				if perSym > bound {
					t.Errorf("%s, %d symbols: Build + %s allocated %.2f B/symbol, want ≤ %g", name, n, kn.name, perSym, bound)
				}
			}
		}
	}
}

var sink []int32

// BenchmarkBuildLCP is the kernel as its callers run it: the suffix array
// and its LCP array in rank order (LCP: the in-memory builder, the live
// index's suffix order, the B²ST baseline) or in text order (PLCP: lcs).
func BenchmarkBuildLCP(b *testing.B) {
	for _, kn := range []struct {
		name string
		lcp  func(s []byte, sa []int32) []int32
	}{{"LCP", LCP}, {"PLCP", PLCP}} {
		for name, s := range benchTexts(1 << 20) {
			b.Run(kn.name+"/"+name, func(b *testing.B) {
				b.SetBytes(int64(len(s)))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					sa, err := Build(s)
					if err != nil {
						b.Fatal(err)
					}
					sink = kn.lcp(s, sa)
				}
			})
		}
	}
}
