package suffixtree

import (
	"math/rand"
	"testing"
)

// TestFirstLeaf: FirstLeaf names every node's lexicographically first suffix
// on both layouts, and answers -1 for an id outside the tree.
func TestFirstLeaf(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	inputs := [][]byte{[]byte("A"), []byte("AAAAAAAA"), []byte("TGGTGGTGGTGCGGTGATGGTGC"), []byte("ACACACACACAC")}
	for i := 0; i < 6; i++ {
		d := make([]byte, 1+rng.Intn(300))
		for j := range d {
			d[j] = "ACGT"[rng.Intn(2+i%3)]
		}
		inputs = append(inputs, d)
	}
	for _, data := range inputs {
		heap, flat, _ := buildBoth(t, data)
		for name, v := range map[string]View{"heap": heap, "flat": flat} {
			for u := int32(0); int(u) < v.NumNodes(); u++ {
				if got, want := FirstLeaf(v, u), v.Leaves(u)[0]; got != want {
					t.Fatalf("%q %s: FirstLeaf(%d) = %d, want %d", data, name, u, got, want)
				}
			}
			for _, u := range []int32{-1, int32(v.NumNodes())} {
				if got := FirstLeaf(v, u); got != -1 {
					t.Fatalf("%q %s: FirstLeaf(%d) = %d outside the tree, want -1", data, name, u, got)
				}
			}
		}
	}
}

// TestWalkAllocsDoNotScaleWithNodes: Walk and LeafCounts hand ForEachChild
// one hoisted callback, not a closure per node.
func TestWalkAllocsDoNotScaleWithNodes(t *testing.T) {
	var allocs [2][2]float64
	for i, n := range []int{200, 3000} {
		data := make([]byte, n)
		rng := rand.New(rand.NewSource(9))
		for j := range data {
			data[j] = "ACGT"[rng.Intn(4)]
		}
		_, flat, _ := buildBoth(t, data)
		allocs[i][0] = testing.AllocsPerRun(3, func() { Walk(flat, flat.Root(), func(_, _, _ int32) bool { return true }) })
		allocs[i][1] = testing.AllocsPerRun(3, func() { LeafCounts(flat) })
	}
	for j, name := range []string{"Walk", "LeafCounts"} {
		if small, large := allocs[0][j], allocs[1][j]; large > small+8 {
			t.Errorf("%s: %.0f allocations over 200 symbols, %.0f over 3000", name, small, large)
		}
	}
}
