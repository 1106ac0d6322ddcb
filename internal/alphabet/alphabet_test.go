package alphabet

import "testing"

func TestPredefinedAlphabets(t *testing.T) {
	cases := []struct {
		a    *Alphabet
		size int
		bits uint
	}{
		{DNA, 4, 3},      // 4 symbols + terminator = 5 codes -> 3 bits
		{Protein, 20, 5}, // 21 codes -> 5 bits
		{English, 26, 5}, // 27 codes -> 5 bits
	}
	for _, c := range cases {
		if c.a.Size() != c.size {
			t.Errorf("%s: size %d, want %d", c.a.Name(), c.a.Size(), c.size)
		}
		if c.a.Bits() != c.bits {
			t.Errorf("%s: bits %d, want %d", c.a.Name(), c.a.Bits(), c.bits)
		}
	}
}

func TestRankAndContains(t *testing.T) {
	for i, s := range DNA.Symbols() {
		if DNA.Rank(s) != i {
			t.Errorf("Rank(%c) = %d, want %d", s, DNA.Rank(s), i)
		}
		if !DNA.Contains(s) {
			t.Errorf("Contains(%c) = false", s)
		}
	}
	if DNA.Contains('X') {
		t.Error("Contains(X) = true")
	}
	if DNA.Rank(Terminator) != -1 {
		t.Errorf("Rank($) = %d, want -1", DNA.Rank(Terminator))
	}
}

func TestNewRejectsBadSymbols(t *testing.T) {
	if _, err := New("bad", []byte{Terminator}); err == nil {
		t.Error("terminator accepted as symbol")
	}
	if _, err := New("bad", []byte{' '}); err == nil {
		t.Error("symbol below terminator accepted")
	}
	if _, err := New("bad", nil); err == nil {
		t.Error("empty alphabet accepted")
	}
}

func TestNewDeduplicatesAndSorts(t *testing.T) {
	a, err := New("x", []byte("CABAC"))
	if err != nil {
		t.Fatal(err)
	}
	if got := string(a.Symbols()); got != "ABC" {
		t.Errorf("symbols = %q, want ABC", got)
	}
}

func TestValidate(t *testing.T) {
	if err := DNA.Validate([]byte("ACGT$")); err != nil {
		t.Errorf("valid string rejected: %v", err)
	}
	if err := DNA.Validate([]byte("ACGT")); err == nil {
		t.Error("missing terminator accepted")
	}
	if err := DNA.Validate([]byte("ACXT$")); err == nil {
		t.Error("foreign symbol accepted")
	}
	if err := DNA.Validate(nil); err == nil {
		t.Error("empty string accepted")
	}
}
