package core

import (
	"bytes"
	"cmp"
	"fmt"
	"slices"
	"sort"
	"testing"

	"era/internal/alphabet"
	"era/internal/seq"
	"era/internal/sim"
	"era/internal/workload"
)

// TestPrefixWindowsTileTheSuffixOrder pins where ERA writes its sub-trees:
// every prefix's window [Rank, Rank+Freq) of the one suffix order, which
// every driver's groups fill in place (the SharedDisk workers and
// SharedNothing nodes concurrently — CI's -race step runs this). For each
// driver at a budget that splits the input into several groups, the windows
// must tile [0, n), each window must hold exactly the suffixes a sorted-
// suffix oracle puts under its label, and the LCP array — prepare's
// offsets inside the windows, the labels' common prefixes at the joins —
// must equal a naive oracle's.
func TestPrefixWindowsTileTheSuffixOrder(t *testing.T) {
	const n = 2500
	inputs := []struct {
		name string
		a    *alphabet.Alphabet
		data []byte
	}{
		{"dna", alphabet.DNA, workload.MustGenerate(workload.DNA, n, 3)},
		{"english", alphabet.English, workload.MustGenerate(workload.English, n, 9)},
		{"periodic", alphabet.DNA, append(bytes.Repeat([]byte("GATTACA"), n/7), alphabet.Terminator)},
	}
	const perCore = 24 * 1024
	type driver struct {
		name  string
		build func(f *seq.File) (suffixOrder, int, error)
	}
	drivers := []driver{{"serial", func(f *seq.File) (suffixOrder, int, error) {
		res, err := BuildSerial(f, testOptions(perCore))
		if err != nil {
			return suffixOrder{}, 0, err
		}
		return res.order, res.Stats.Groups, nil
	}}}
	for _, w := range []int{1, 2, 4, 8} {
		drivers = append(drivers, driver{fmt.Sprintf("shared-disk-%d", w), func(f *seq.File) (suffixOrder, int, error) {
			res, err := BuildParallel(f, ParallelOptions{Options: testOptions(perCore * int64(w)), Workers: w})
			if err != nil {
				return suffixOrder{}, 0, err
			}
			return res.order, res.Stats.Groups, nil
		}})
	}
	for _, nodes := range []int{2, 5} {
		drivers = append(drivers, driver{fmt.Sprintf("shared-nothing-%d", nodes), func(f *seq.File) (suffixOrder, int, error) {
			res, err := BuildDistributed(f, DistributedOptions{Options: testOptions(perCore), Nodes: nodes})
			if err != nil {
				return suffixOrder{}, 0, err
			}
			return res.order, res.Stats.Groups, nil
		}})
	}

	for _, in := range inputs {
		sa, lcp := naiveSuffixOrder(in.data)
		for _, d := range drivers {
			t.Run(in.name+"/"+d.name, func(t *testing.T) {
				ord, groups, err := d.build(publish(t, in.a, in.data))
				if err != nil {
					t.Fatal(err)
				}
				if groups < 3 {
					t.Fatalf("test setup: %d groups; the budget must force at least 3", groups)
				}
				ws := slices.SortedFunc(slices.Values(ord.windows), func(a, b Prefix) int { return cmp.Compare(a.Rank, b.Rank) })
				var next int64
				for _, p := range ws {
					if p.Rank != next {
						t.Fatalf("window of %q starts at %d, want %d: the windows overlap or leave a gap", p.Label, p.Rank, next)
					}
					next += p.Freq
					// The oracle's interval of the suffixes the label starts.
					lo := sort.Search(len(sa), func(i int) bool { return bytes.Compare(in.data[sa[i]:], p.Label) >= 0 })
					hi := sort.Search(len(sa), func(i int) bool {
						return !bytes.HasPrefix(in.data[sa[i]:], p.Label) && bytes.Compare(in.data[sa[i]:], p.Label) > 0
					})
					if int64(lo) != p.Rank || int64(hi-lo) != p.Freq {
						t.Fatalf("window of %q is [%d, %d), the oracle's interval [%d, %d)", p.Label, p.Rank, p.Rank+p.Freq, lo, hi)
					}
					if !slices.Equal(ord.sa[lo:hi], sa[lo:hi]) {
						t.Fatalf("window of %q holds %v, the oracle %v", p.Label, ord.sa[lo:hi], sa[lo:hi])
					}
				}
				if next != int64(len(in.data)) {
					t.Fatalf("the windows cover %d of %d suffixes", next, len(in.data))
				}
				for i := range lcp {
					if ord.lcp[i] != lcp[i] {
						t.Fatalf("LCP[%d] = %d, the oracle %d", i, ord.lcp[i], lcp[i])
					}
				}
			})
		}
	}
}

// naiveSuffixOrder is the oracle of the suffix order: every suffix sorted
// by bytes.Compare, and the LCP of each with its predecessor (LCP[0] = 0).
func naiveSuffixOrder(data []byte) (sa, lcp []int32) {
	sa = make([]int32, len(data))
	for i := range sa {
		sa[i] = int32(i)
	}
	sort.Slice(sa, func(a, b int) bool { return bytes.Compare(data[sa[a]:], data[sa[b]:]) < 0 })
	lcp = make([]int32, len(data))
	for i := 1; i < len(sa); i++ {
		lcp[i] = int32(commonPrefix(data[sa[i-1]:], data[sa[i]:]))
	}
	return sa, lcp
}

// TestPrepareWorkingSetPerLeaf pins the bytes one cold GroupPrepare of a
// flat build allocates per leaf beside R and the area-sort scratch, whose
// sizes the memory plan and the largest area set. L and LCP are the
// build's suffix order, allocated once before any group runs, so what is
// left is per leaf:
//
//   - P, I and the R slot, 4 B each;
//   - the area flag, 1 B;
//   - the fill schedule's position, 4 B per active leaf;
//
// 17 B, plus per-prefix and per-scan buffers (the collect matcher's root
// table, the scan window) that do not grow with the leaves: the bound adds
// 2 B per leaf for them; this build measures 14.4, the schedule holding
// only the second round's active leaves. With B as 8-byte triplets, its
// defined flags, the occurrence lists in a slab of their own and int32
// area ids, the same prepare measured 30.5 B per leaf.
func TestPrepareWorkingSetPerLeaf(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement is load-sensitive")
	}
	const n = 128 << 10
	model := sim.DefaultModel()
	data := workload.MustGenerate(workload.DNA, n, 42)
	f := publish(t, alphabet.DNA, data)
	sc, clock := matcherScanner(t, f)
	groups, _, err := VerticalPartition(f, sc, clock, model, 2*n, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 1 {
		t.Fatalf("test setup: %d groups, want one", len(groups))
	}
	g := groups[0]
	ord, err := newSuffixOrder(Options{AssembleFlat: true}, groups, len(data))
	if err != nil {
		t.Fatal(err)
	}
	layout, err := PlanMemory(64<<20, 0, f.Alphabet().Bits())
	if err != nil {
		t.Fatal(err)
	}

	var ctx *buildContext
	total := bytesPerRun(1, func() {
		ctx = &buildContext{order: ord}
		scR, clockR := matcherScanner(t, f)
		if _, _, err := GroupPrepare(ctx, f, scR, clockR, model, g, layout.RSize, 0); err != nil {
			t.Fatal(err)
		}
	})
	r := cap(ctx.chunks.buf)
	sorting := cap(ctx.sortScratch.recs)*16 + cap(ctx.sortScratch.perm)*4
	perLeaf := (total - float64(r+sorting)) / float64(g.Freq)
	t.Logf("%d leaves: %.0f B allocated, R %d B, sort scratch %d B, %.1f B per leaf beside them", g.Freq, total, r, sorting, perLeaf)
	if perLeaf > 17+2 {
		t.Errorf("a cold prepare holds %.1f B per leaf beside R and the sort scratch, want ≤ 19 (17 accounted + 2 margin)", perLeaf)
	}
}
