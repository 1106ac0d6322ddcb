package main

import (
	"math/rand"

	"era"
	"era/internal/workload"
)

// Every input the program under test sees is generated here from the run's
// seed: the corpus, the pattern universe, and the order operations arrive in.

// corpus is a generated document collection. data is the documents'
// concatenation without the terminator the builders append.
type corpus struct {
	kind workload.Kind
	data []byte
	docs [][]byte
}

func genCorpus(kind workload.Kind, symbols, nDocs int, seed int64) (*corpus, error) {
	data, err := workload.Generate(kind, symbols, seed)
	if err != nil {
		return nil, err
	}
	data = data[:len(data)-1] // builders append their own terminator
	docs, err := workload.SliceDocs(data, nDocs)
	if err != nil {
		return nil, err
	}
	return &corpus{kind: kind, data: data, docs: docs}, nil
}

// Membership traffic shape, shared by lookup, point, routed and the ladder.
const (
	universeSize  = 32768 // distinct patterns; far above the engine cache (4096)
	minPatternLen = 4
	maxPatternLen = 23
	maxOcc        = 16 // occurrences ops ask for at most this many offsets
	batchSize     = 32
	zipfS         = 1.1
	streamLen     = 24 << 13 // calls per client before the stream repeats: whole blocks
)

// genUniverse samples universeSize patterns of length 4–23 from data. Every
// fourth one has a symbol replaced by another symbol of the corpus, so it
// (almost always) misses; the oracle decides what actually occurs.
func genUniverse(data []byte, seed int64) [][]byte {
	r := rand.New(rand.NewSource(seed))
	pats := make([][]byte, universeSize)
	for i := range pats {
		l := minPatternLen + r.Intn(maxPatternLen-minPatternLen+1)
		off := r.Intn(len(data) - l)
		p := append([]byte(nil), data[off:off+l]...)
		if i%4 == 3 {
			p[r.Intn(l)] = data[r.Intn(len(data))]
		}
		pats[i] = p
	}
	return pats
}

// opKind is what one call of the membership stream does.
type opKind uint8

const (
	opContains opKind = iota
	opCount
	opOccurrences
	opBatch
)

var opKindNames = [...]string{"contains", "count", "occurrences", "batch32"}

func (k opKind) String() string { return opKindNames[k] }

// call is one element of a client's stream: a single op on pattern pat, or
// (kind opBatch) the batch stream.batches[pat].
type call struct {
	kind opKind
	pat  uint32
}

// stream is one closed-loop client's operation order.
type stream struct {
	calls   []call
	batches [][batchSize]call
}

// streamBlock is the mix of one block of calls: 1/8 batches, the rest split
// evenly over contains / count / occurrences. Every block holds exactly this
// mix in a shuffled order. A routed batch costs 25 single ops, so with the
// kind of each call drawn independently the batches in a 2 000-call trial
// would vary by 6 %, and per-operation cost with them, from trial to trial
// and from seed to seed.
var streamBlock = func() (b [24]opKind) {
	for i := range b {
		b[i] = [...]opKind{opContains, opCount, opOccurrences, opBatch}[min(i/7, 3)]
	}
	return b
}()

// genStream draws a client's stream of n calls (a multiple of the block
// size): the kinds block by block, the patterns Zipf(s=1.1) over the
// universe, the ops inside a batch with independent kinds.
func genStream(seed int64, n int) *stream {
	r := rand.New(rand.NewSource(seed))
	z := rand.NewZipf(r, zipfS, 1, universeSize-1)
	s := &stream{calls: make([]call, 0, n)}
	for len(s.calls) < n {
		block := streamBlock
		r.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		for _, kind := range block {
			if kind != opBatch {
				s.calls = append(s.calls, call{kind: kind, pat: uint32(z.Uint64())})
				continue
			}
			var b [batchSize]call
			for j := range b {
				b[j] = call{kind: opKind(r.Intn(3)), pat: uint32(z.Uint64())}
			}
			s.calls = append(s.calls, call{kind: opBatch, pat: uint32(len(s.batches))})
			s.batches = append(s.batches, b)
		}
	}
	return s
}

// op converts a single (non-batch) call to the library's query plan.
func (c call) op(universe [][]byte) era.Op {
	op := era.Op{Pattern: universe[c.pat]}
	switch c.kind {
	case opContains:
		op.Kind = era.OpContains
	case opCount:
		op.Kind = era.OpCount
	default:
		op.Kind = era.OpOccurrences
		op.MaxOccurrences = maxOcc
	}
	return op
}
