// Package alphabet defines the symbol alphabets used by the suffix tree
// builders.
//
// The ERA paper (§6.1) encodes DNA at 2 bits per symbol and protein/English
// at 5 bits per symbol; the encoding density determines how much of the input
// string fits in a given memory budget, which in turn drives the number of
// vertical partitions and string scans. Each alphabet gives every symbol a
// code Bits wide (CodeTable): the memory plan sizes its buffers by the
// width, and the rolling-code scans of vertical partitioning read the codes.
package alphabet

import (
	"fmt"
	"sort"
)

// Terminator is the end-of-string symbol '$'. It is not a member of any
// alphabet; every input string handed to a builder must end with exactly one
// Terminator and contain no other occurrence of it.
const Terminator = byte('$')

// Alphabet is an ordered set of symbols (excluding the terminator).
// The zero value is not useful; construct with New or use a predefined
// alphabet (DNA, Protein, English).
type Alphabet struct {
	name    string
	symbols []byte
	rank    [256]int16 // symbol -> index, -1 if absent
	codes   [256]int16 // symbol -> packed code (terminator 0), -1 if absent
	bits    uint       // bits per symbol when packed
}

// New returns an alphabet over the given symbols. Symbols are sorted and
// deduplicated; the terminator may not be a member.
func New(name string, symbols []byte) (*Alphabet, error) {
	if len(symbols) == 0 {
		return nil, fmt.Errorf("alphabet %q: no symbols", name)
	}
	set := make(map[byte]bool, len(symbols))
	for _, s := range symbols {
		if s <= Terminator {
			// Symbols must rank above the terminator in raw byte order so
			// that plain bytes.Compare yields the canonical suffix order
			// (terminator smallest) everywhere in the repository.
			return nil, fmt.Errorf("alphabet %q: symbol %q does not rank above terminator %q", name, s, Terminator)
		}
		set[s] = true
	}
	uniq := make([]byte, 0, len(set))
	for s := range set {
		uniq = append(uniq, s)
	}
	sort.Slice(uniq, func(i, j int) bool { return uniq[i] < uniq[j] })

	a := &Alphabet{name: name, symbols: uniq}
	for i := range a.rank {
		a.rank[i] = -1
		a.codes[i] = -1
	}
	a.codes[Terminator] = 0
	for i, s := range uniq {
		a.rank[s] = int16(i)
		a.codes[s] = int16(i) + 1
	}
	a.bits = bitsFor(len(uniq))
	return a, nil
}

// bitsFor returns the number of bits needed to encode n distinct symbols
// plus the terminator.
func bitsFor(n int) uint {
	// +1 for the terminator code.
	need := n + 1
	bits := uint(1)
	for 1<<bits < need {
		bits++
	}
	return bits
}

// MustNew is New but panics on error; for package-level variables.
func MustNew(name string, symbols []byte) *Alphabet {
	a, err := New(name, symbols)
	if err != nil {
		panic(err)
	}
	return a
}

// Predefined alphabets matching the paper's datasets.
var (
	// DNA is the 4-symbol nucleotide alphabet. The paper packs it at 2 bits
	// per symbol; here the terminator takes a code of its own, so Bits is 3.
	DNA = MustNew("DNA", []byte("ACGT"))
	// Protein is the 20-symbol amino-acid alphabet (5 bits/symbol packed).
	Protein = MustNew("Protein", []byte("ACDEFGHIKLMNPQRSTVWY"))
	// English is the 26-letter lowercase alphabet (5 bits/symbol packed).
	English = MustNew("English", []byte("abcdefghijklmnopqrstuvwxyz"))
)

// Name returns the alphabet's name.
func (a *Alphabet) Name() string { return a.name }

// Size returns the number of symbols (excluding the terminator).
func (a *Alphabet) Size() int { return len(a.symbols) }

// Bits returns the number of bits used per symbol in packed form
// (terminator included in the code space).
func (a *Alphabet) Bits() uint { return a.bits }

// Symbols returns the symbols in sorted order. The returned slice must not
// be modified.
func (a *Alphabet) Symbols() []byte { return a.symbols }

// Rank returns the index of symbol s in sorted order, or -1 if s is not in
// the alphabet. The terminator has rank -1: it sorts before every symbol,
// which callers handle explicitly.
func (a *Alphabet) Rank(s byte) int { return int(a.rank[s]) }

// Contains reports whether s is a member of the alphabet.
func (a *Alphabet) Contains(s byte) bool { return a.rank[s] >= 0 }

// CodeTable returns the byte→packed-code mapping used by the bit-packed
// encoding and the construction hot-path matchers: the terminator maps to
// code 0, symbol i to code i+1, and bytes outside the alphabet to -1. Each
// code fits in Bits() bits, so a window of w symbols packs injectively into
// a w·Bits()-bit integer. The returned array must not be modified.
func (a *Alphabet) CodeTable() *[256]int16 { return &a.codes }

// Validate checks that the string s consists of alphabet symbols and ends
// with exactly one terminator.
func (a *Alphabet) Validate(s []byte) error {
	if len(s) == 0 {
		return fmt.Errorf("alphabet %s: empty string", a.name)
	}
	if s[len(s)-1] != Terminator {
		return fmt.Errorf("alphabet %s: string does not end with terminator %q", a.name, Terminator)
	}
	for i := 0; i < len(s)-1; i++ {
		if !a.Contains(s[i]) {
			return fmt.Errorf("alphabet %s: symbol %q at offset %d not in alphabet", a.name, s[i], i)
		}
	}
	return nil
}
