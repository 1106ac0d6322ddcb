package core

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"era/internal/alphabet"
	"era/internal/seq"
	"era/internal/sim"
	"era/internal/suffixtree"
	"era/internal/workload"
)

// writeLog records a stream and the length of every Write call made to it.
type writeLog struct {
	bytes.Buffer
	calls []int
}

func (w *writeLog) Write(p []byte) (int, error) {
	w.calls = append(w.calls, len(p))
	return w.Buffer.Write(p)
}

// requireCountMatchesBuild holds the one way a build finishes an ERa-str+mem
// sub-tree to the paper's: for every sub-tree prepared from data's vertical
// partition at frequency bound fm, countSubTreeNodes must give the node
// count of the tree BuildSubTree materializes and charge the same CPU, the
// sized write of that count must make the Write calls the built tree's
// WriteTo makes (same lengths, same header, zeroed records), and both must
// refuse the same malformed windows. It returns how many sub-trees it
// checked, and skips an fm too small to partition data (fuzz inputs ask
// for any).
func requireCountMatchesBuild(t *testing.T, data []byte, fm int64, rSize int64) int {
	t.Helper()
	model := sim.DefaultModel()
	f := publish(t, alphabet.DNA, data)
	sc, clock := matcherScanner(t, f)
	groups, _, err := VerticalPartition(f, sc, clock, model, fm, true)
	if err != nil {
		if strings.Contains(err.Error(), "too small") {
			t.Skip(err)
		}
		t.Fatal(err)
	}
	view, err := f.View()
	if err != nil {
		t.Fatal(err)
	}
	n := int32(len(data))
	var scratch []int32
	checked := 0
	for _, g := range groups {
		prepared, _, err := GroupPrepare(nil, f, sc, clock, model, g, rSize, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range prepared {
			builtClock, countClock := new(sim.Clock), new(sim.Clock)
			built, err := BuildSubTree(view, builtClock, model, p)
			if err != nil {
				t.Fatal(err)
			}
			nodes, err := countSubTreeNodes(countClock, model, n, p, &scratch)
			if err != nil {
				t.Fatal(err)
			}
			if want := int64(built.NumNodes() - 1); nodes != want {
				t.Fatalf("%q: counted %d nodes, BuildSubTree built %d", p.Prefix.Label, nodes, want)
			}
			if countClock.Now() != builtClock.Now() {
				t.Fatalf("%q: counting charged %v, BuildSubTree %v", p.Prefix.Label, countClock.Now(), builtClock.Now())
			}

			var tree, sized writeLog
			if _, err := built.WriteTo(&tree); err != nil {
				t.Fatal(err)
			}
			if _, err := suffixtree.WriteSized(&sized, len(data), int(nodes)+1); err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(sized.calls, tree.calls) {
				t.Fatalf("%q: the sized write made Write calls of %v bytes, WriteTo %v", p.Prefix.Label, sized.calls, tree.calls)
			}
			hdr, recs := sized.Bytes()[:16], sized.Bytes()[16:]
			if !bytes.Equal(hdr, tree.Bytes()[:16]) || !bytes.Equal(recs, make([]byte, len(recs))) {
				t.Fatalf("%q: the sized stream is not WriteTo's header and zeroed records", p.Prefix.Label)
			}

			requireSameRefusals(t, view, model, n, p)
			checked++
		}
	}
	return checked
}

// requireSameRefusals mutates p's window into each malformed shape — no
// suffix, an LCP at the suffix's length, an LCP below the prefix — and
// requires BuildSubTree and countSubTreeNodes both to refuse it.
func requireSameRefusals(t *testing.T, view seq.String, model sim.CostModel, n int32, p Prepared) {
	t.Helper()
	last := len(p.L) - 1
	var scratch []int32
	for _, m := range []struct {
		name      string
		needsPair bool
		mod       func(*Prepared)
	}{
		{"empty", false, func(q *Prepared) { q.L, q.LCP = nil, nil }},
		{"lcp-at-suffix-length", true, func(q *Prepared) { q.LCP[last] = n - q.L[last] }},
		{"lcp-below-label", true, func(q *Prepared) { q.LCP[last] = int32(len(q.Prefix.Label)) - 1 }},
	} {
		if m.needsPair && last < 1 {
			continue
		}
		bad := Prepared{Prefix: p.Prefix, L: slices.Clone(p.L), LCP: slices.Clone(p.LCP)}
		m.mod(&bad)
		_, errBuild := BuildSubTree(view, new(sim.Clock), model, bad)
		_, errCount := countSubTreeNodes(new(sim.Clock), model, n, bad, &scratch)
		if errBuild == nil || errCount == nil {
			t.Fatalf("%q %s: BuildSubTree refused: %v; countSubTreeNodes refused: %v", p.Prefix.Label, m.name, errBuild, errCount)
		}
	}
}

// TestCountMatchesBuild pins the counted sub-tree to the built one on every
// prepared sub-tree of random DNA, a GATTACA-periodic string and a document
// followed by its copy, at a budget that splits each into many sub-trees.
func TestCountMatchesBuild(t *testing.T) {
	layout, err := PlanMemory(24*1024, 0, alphabet.DNA.Bits())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		data []byte
	}{
		{"dna", workload.MustGenerate(workload.DNA, 3000, 7)},
		{"gattaca", gattaca(2500)},
		{"dup", dup(1200)},
	} {
		t.Run(c.name, func(t *testing.T) {
			if got := requireCountMatchesBuild(t, c.data, layout.FM, layout.RSize); got < 3 {
				t.Fatalf("test setup: %d sub-trees; the budget must split the input into at least 3", got)
			}
		})
	}
}

// FuzzCountMatchesBuild runs TestCountMatchesBuild's assertions over
// arbitrary DNA strings and frequency bounds.
func FuzzCountMatchesBuild(f *testing.F) {
	f.Add([]byte("TGGTGGTGGTGCGGTGATGGTGC"), uint16(4))
	f.Add([]byte("GATTACAGATTACAGATTACAGATTACA"), uint16(2))
	f.Add([]byte("AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA"), uint16(3))
	f.Add([]byte{0, 1, 2, 3, 0, 1, 2, 3}, uint16(1))
	f.Fuzz(func(t *testing.T, core []byte, fmRaw uint16) {
		if len(core) == 0 || len(core) > 2048 {
			t.Skip()
		}
		data := make([]byte, len(core)+1)
		for i, b := range core {
			data[i] = "ACGT"[int(b)%4]
		}
		data[len(core)] = alphabet.Terminator
		requireCountMatchesBuild(t, data, int64(1+fmRaw%64), 1<<16)
	})
}
