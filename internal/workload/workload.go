// Package workload generates the synthetic datasets used by the experiment
// harness.
//
// The paper evaluates on the human genome (HG18, ~2.6 Gsym, |Σ|=4), a 4 Gsym
// DNA concatenation, a 4 Gsym protein corpus (|Σ|=20) and 5 Gsym of English
// text (|Σ|=26). Those corpora are multi-gigabyte downloads that are not
// available offline, so this package synthesizes deterministic stand-ins
// with the properties the algorithms are sensitive to:
//
//   - matching alphabet sizes (4 / 20 / 26), which drive the tree branching
//     factor and the packed bits-per-symbol;
//   - long approximate repeats (segments copied from earlier in the string
//     with point mutations), which create the deep tree paths that determine
//     ERA's iteration counts and WaveFront's traversal depth;
//   - skewed symbol frequencies for protein and English, and a *longer*
//     longest-repeat for protein than English (the paper attributes the
//     English-vs-protein runtime difference to exactly this, §6.1).
//
// All generators are deterministic in (kind, n, seed).
package workload

import (
	"fmt"
	"math/rand"

	"era/internal/alphabet"
)

// Kind names a dataset family from the paper's evaluation.
type Kind string

// Dataset kinds. Genome and DNA share the 4-symbol alphabet; Genome uses the
// paper's "human genome" role (single long sequence), DNA the concatenated
// multi-species role.
const (
	Genome  Kind = "genome"
	DNA     Kind = "dna"
	Protein Kind = "protein"
	English Kind = "english"
)

// Kinds lists all dataset kinds in presentation order.
var Kinds = []Kind{Genome, DNA, Protein, English}

// AlphabetOf returns the alphabet for a dataset kind.
func AlphabetOf(k Kind) (*alphabet.Alphabet, error) {
	switch k {
	case Genome, DNA:
		return alphabet.DNA, nil
	case Protein:
		return alphabet.Protein, nil
	case English:
		return alphabet.English, nil
	}
	return nil, fmt.Errorf("workload: unknown kind %q", k)
}

// params controls the repeat structure of a generated string.
type params struct {
	repeatProb   float64   // probability of emitting a copied segment
	meanRepeat   int       // mean copied-segment length (geometric)
	mutationRate float64   // per-symbol mutation probability inside copies
	freqs        []float64 // symbol frequency weights (nil = uniform)
}

func paramsOf(k Kind) params {
	switch k {
	case Genome:
		// Genomes are repeat-rich (LINE/SINE elements): long, frequent,
		// moderately mutated copies.
		return params{repeatProb: 0.35, meanRepeat: 200, mutationRate: 0.05}
	case DNA:
		return params{repeatProb: 0.30, meanRepeat: 150, mutationRate: 0.08}
	case Protein:
		// Domain duplications: fewer but long low-mutation repeats, and a
		// skewed amino-acid composition.
		return params{repeatProb: 0.20, meanRepeat: 120, mutationRate: 0.04,
			freqs: proteinFreqs()}
	case English:
		// Natural text repeats are short (phrases); letter frequencies are
		// heavily skewed.
		return params{repeatProb: 0.25, meanRepeat: 30, mutationRate: 0.10,
			freqs: englishFreqs()}
	}
	panic("workload: unknown kind " + string(k))
}

// proteinFreqs approximates UniProt amino-acid composition over the sorted
// alphabet ACDEFGHIKLMNPQRSTVWY.
func proteinFreqs() []float64 {
	return []float64{
		8.3, 1.4, 5.5, 6.7, 3.9, 7.1, 2.3, 5.9, 5.8, 9.7,
		2.4, 4.1, 4.7, 3.9, 5.5, 6.6, 5.3, 6.9, 1.1, 2.9,
	}
}

// englishFreqs approximates English letter frequencies over a..z.
func englishFreqs() []float64 {
	return []float64{
		8.2, 1.5, 2.8, 4.3, 12.7, 2.2, 2.0, 6.1, 7.0, 0.15,
		0.77, 4.0, 2.4, 6.7, 7.5, 1.9, 0.095, 6.0, 6.3, 9.1,
		2.8, 0.98, 2.4, 0.15, 2.0, 0.074,
	}
}

// sampler draws symbols from a weighted distribution.
type sampler struct {
	symbols []byte
	cum     []float64
	total   float64
}

func newSampler(a *alphabet.Alphabet, freqs []float64) *sampler {
	syms := a.Symbols()
	s := &sampler{symbols: syms, cum: make([]float64, len(syms))}
	for i := range syms {
		w := 1.0
		if freqs != nil {
			w = freqs[i]
		}
		s.total += w
		s.cum[i] = s.total
	}
	return s
}

func (s *sampler) draw(rng *rand.Rand) byte {
	x := rng.Float64() * s.total
	lo, hi := 0, len(s.cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if s.cum[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return s.symbols[lo]
}

// Generate returns n symbols of the given kind followed by the terminator
// (total length n+1). It is deterministic in (k, n, seed).
func Generate(k Kind, n int, seed int64) ([]byte, error) {
	if n < 0 {
		return nil, fmt.Errorf("workload: negative length %d", n)
	}
	a, err := AlphabetOf(k)
	if err != nil {
		return nil, err
	}
	p := paramsOf(k)
	rng := rand.New(rand.NewSource(seed ^ int64(len(k))*7919))
	smp := newSampler(a, p.freqs)

	out := make([]byte, 0, n+1)
	// Seed material so early copies have something to copy from.
	warmup := 64
	if warmup > n {
		warmup = n
	}
	for len(out) < warmup {
		out = append(out, smp.draw(rng))
	}
	for len(out) < n {
		if rng.Float64() < p.repeatProb {
			// Copy a geometric-length segment from an earlier position,
			// with point mutations.
			segLen := 1 + geometric(rng, p.meanRepeat)
			if segLen > n-len(out) {
				segLen = n - len(out)
			}
			src := rng.Intn(len(out))
			for i := 0; i < segLen; i++ {
				var c byte
				if src+i < len(out) {
					c = out[src+i]
				} else {
					c = smp.draw(rng)
				}
				if rng.Float64() < p.mutationRate {
					c = smp.draw(rng)
				}
				out = append(out, c)
			}
		} else {
			out = append(out, smp.draw(rng))
		}
	}
	out = append(out, alphabet.Terminator)
	return out, nil
}

// geometric draws a geometric variate with the given mean (≥1).
func geometric(rng *rand.Rand, mean int) int {
	if mean <= 1 {
		return 1
	}
	p := 1.0 / float64(mean)
	n := 1
	for rng.Float64() > p && n < 64*mean {
		n++
	}
	return n
}

// MustGenerate is Generate but panics on error; for tests and benches.
func MustGenerate(k Kind, n int, seed int64) []byte {
	s, err := Generate(k, n, seed)
	if err != nil {
		panic(err)
	}
	return s
}

// SliceDocs cuts a generated string (terminator already stripped) into
// exactly nDocs contiguous, non-empty, near-equal documents — the
// synthetic stand-in for a document corpus. `era shard -gen` and the
// repository benchmark share it so their corpora cannot drift apart.
func SliceDocs(data []byte, nDocs int) ([][]byte, error) {
	if nDocs < 1 || nDocs > len(data) {
		return nil, fmt.Errorf("workload: %d documents outside [1, %d]", nDocs, len(data))
	}
	// Distribute the remainder over the first documents (ceil-dividing the
	// stride instead can quantize away whole documents at small sizes).
	base, rem := len(data)/nDocs, len(data)%nDocs
	docs := make([][]byte, 0, nDocs)
	off := 0
	for i := 0; i < nDocs; i++ {
		n := base
		if i < rem {
			n++
		}
		docs = append(docs, data[off:off+n])
		off += n
	}
	return docs, nil
}
