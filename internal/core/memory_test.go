package core

import (
	"testing"
	"testing/quick"

	"era/internal/alphabet"
)

func TestPlanMemoryLayout(t *testing.T) {
	l, err := PlanMemory(1<<20, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	// §4.4 proportions: R defaults to budget/32 for 2-bit alphabets; the
	// tree area is 60% of what remains after the buffers.
	if l.RSize != 1<<20/32 {
		t.Errorf("RSize = %d, want %d", l.RSize, 1<<20/32)
	}
	rest := l.Budget - l.RSize - l.InputBuf - l.TrieArea
	if l.TreeArea != rest*60/100 {
		t.Errorf("TreeArea = %d, want 60%% of %d", l.TreeArea, rest)
	}
	if l.FM != l.TreeArea/(2*AccountedNodeSize) {
		t.Errorf("FM = %d, want %d", l.FM, l.TreeArea/(2*AccountedNodeSize))
	}
	// 5-bit alphabets get the larger R (budget/4).
	l5, err := PlanMemory(1<<20, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	if l5.RSize != 1<<20/4 {
		t.Errorf("5-bit RSize = %d, want %d", l5.RSize, 1<<20/4)
	}
	// Explicit override wins.
	lo, err := PlanMemory(1<<20, 12345, 2)
	if err != nil {
		t.Fatal(err)
	}
	if lo.RSize != 12345 {
		t.Errorf("override RSize = %d", lo.RSize)
	}
}

// TestPlanMemoryPredefinedAlphabets pins the R every predefined alphabet gets
// by default: the budget/32 branch is for 2-bit codes, and DNA's four
// symbols plus the terminator take 3 bits, so DNA gets budget/4 like the
// 5-bit alphabets.
func TestPlanMemoryPredefinedAlphabets(t *testing.T) {
	for _, a := range []*alphabet.Alphabet{alphabet.DNA, alphabet.Protein, alphabet.English} {
		l, err := PlanMemory(1<<20, 0, a.Bits())
		if err != nil {
			t.Fatal(err)
		}
		if l.RSize != 1<<20/4 {
			t.Errorf("%s (%d bits): RSize = %d, want %d", a.Name(), a.Bits(), l.RSize, 1<<20/4)
		}
	}
}

func TestPlanMemoryRejectsImpossible(t *testing.T) {
	if _, err := PlanMemory(100, 0, 2); err == nil {
		t.Error("tiny budget accepted")
	}
	if _, err := PlanMemory(1<<20, 1<<20, 2); err == nil {
		t.Error("R consuming the whole budget accepted")
	}
}

func TestPlanMemoryQuick(t *testing.T) {
	f := func(rawBudget uint32, fiveBit bool) bool {
		budget := int64(rawBudget%(1<<26)) + 1024
		bits := uint(2)
		if fiveBit {
			bits = 5
		}
		l, err := PlanMemory(budget, 0, bits)
		if err != nil {
			// Small budgets may legitimately fail; that is not a violation.
			return budget < 64*1024
		}
		sum := l.RSize + l.InputBuf + l.TrieArea + l.TreeArea + l.ProcArea
		return sum <= l.Budget && l.FM >= 1 && l.TreeArea > 0 && l.ProcArea > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestGroupingRespectsFM(t *testing.T) {
	prefixes := []Prefix{
		{Label: []byte("AA"), Freq: 500},
		{Label: []byte("AC"), Freq: 300},
		{Label: []byte("AG"), Freq: 300},
		{Label: []byte("AT"), Freq: 200},
		{Label: []byte("CA"), Freq: 100},
		{Label: []byte("CC"), Freq: 90},
	}
	groups := groupPrefixes(prefixes, 600, true)
	total := 0
	for _, g := range groups {
		if g.Freq > 600 {
			t.Errorf("group frequency %d exceeds FM 600", g.Freq)
		}
		sum := int64(0)
		for _, p := range g.Prefixes {
			sum += p.Freq
		}
		if sum != g.Freq {
			t.Errorf("group frequency %d != member sum %d", g.Freq, sum)
		}
		total += int(g.Freq)
	}
	if total != 1490 {
		t.Errorf("grouping lost occurrences: total %d, want 1490", total)
	}
	// First-fit-decreasing: the head group starts with the largest prefix
	// and greedily packs (500+90 does not fit 300 but fits 100 ≤ 600).
	if string(groups[0].Prefixes[0].Label) != "AA" {
		t.Errorf("first group does not start with the most frequent prefix")
	}
	// Without grouping: one group per prefix.
	solo := groupPrefixes(prefixes, 600, false)
	if len(solo) != len(prefixes) {
		t.Errorf("no-grouping produced %d groups, want %d", len(solo), len(prefixes))
	}
}

func TestRoundRange(t *testing.T) {
	if got := roundRange(1000, 0, 10, 1<<20); got != 100 {
		t.Errorf("elastic = %d, want 100", got)
	}
	if got := roundRange(1000, 32, 10, 1<<20); got != 32 {
		t.Errorf("static = %d, want 32", got)
	}
	if got := roundRange(10, 0, 1000, 1<<20); got != 1 {
		t.Errorf("floor = %d, want 1", got)
	}
	if got := roundRange(1<<40, 0, 1, 500); got != 500 {
		t.Errorf("string cap = %d, want 500", got)
	}
}
