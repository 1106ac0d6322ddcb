package suffixtree

import (
	"math/rand"
	"testing"
)

// TestFirstLeaf: FirstLeaf names every node's lexicographically first suffix,
// and answers -1 for an id outside the tree.
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
		_, flat, _ := buildBoth(t, data)
		for u := int32(0); int(u) < flat.NumNodes(); u++ {
			if got, want := FirstLeaf(flat, u), flat.Leaves(u)[0]; got != want {
				t.Fatalf("%q: FirstLeaf(%d) = %d, want %d", data, u, got, want)
			}
		}
		for _, u := range []int32{-1, int32(flat.NumNodes())} {
			if got := FirstLeaf(flat, u); got != -1 {
				t.Fatalf("%q: FirstLeaf(%d) = %d outside the tree, want -1", data, u, got)
			}
		}
	}
}

// TestWalkAllocsDoNotScaleWithNodes: Walk hands ForEachChild one callback,
// not a closure per node.
func TestWalkAllocsDoNotScaleWithNodes(t *testing.T) {
	var allocs [2]float64
	for i, n := range []int{200, 3000} {
		data := make([]byte, n)
		rng := rand.New(rand.NewSource(9))
		for j := range data {
			data[j] = "ACGT"[rng.Intn(4)]
		}
		_, flat, _ := buildBoth(t, data)
		allocs[i] = testing.AllocsPerRun(3, func() { Walk(flat, flat.Root(), func(_, _, _ int32) bool { return true }) })
	}
	if small, large := allocs[0], allocs[1]; large > small+8 {
		t.Errorf("Walk: %.0f allocations over 200 symbols, %.0f over 3000", small, large)
	}
}
