// Quickstart: build a suffix tree index over a small DNA string — the
// running example of the ERA paper (Fig. 2) — and run the classic queries.
package main

import (
	"fmt"
	"log"

	"era"
)

func main() {
	// The paper's example string (Fig. 2); the terminator is appended by
	// Build.
	s := []byte("TGGTGGTGGTGCGGTGATGGTGC")

	idx, err := era.Build(s, nil)
	if err != nil {
		log.Fatal(err)
	}

	// O(|P|) substring search (§1 of the paper).
	fmt.Println("Contains GGTGATG:", idx.Contains([]byte("GGTGATG")))
	fmt.Println("Contains TGT:    ", idx.Contains([]byte("TGT"))) // fTGT = 0

	// All occurrences of the S-prefix TG — Table 1 of the paper lists the
	// seven suffixes sharing it.
	fmt.Println("Count(TG):       ", idx.Count([]byte("TG")))
	occ, err := idx.Occurrences([]byte("TG"))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Occurrences(TG): ", occ)

	// The longest repeated substring is the deepest internal node.
	lrs, occ := idx.LongestRepeatedSubstring()
	fmt.Printf("Longest repeat:   %q at offsets %v\n", lrs, occ)

	// 23 symbols fit any budget: the tree is built from a suffix array, and
	// ERA's partitioning (Config.MemoryBudget says when it runs) has nothing
	// to report.
	st := idx.Stats()
	if st.InMemory {
		fmt.Printf("Construction:     in-memory (suffix array), %d tree nodes\n", st.TreeNodes)
	} else {
		fmt.Printf("Construction:     %d prefixes, %d virtual trees, %d sub-trees, %d tree nodes\n",
			st.Prefixes, st.Groups, st.SubTrees, st.TreeNodes)
	}
}
