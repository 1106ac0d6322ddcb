package main

import (
	"bytes"
	"fmt"
	"slices"
	"sort"

	"era"
	"era/internal/suffixarray"
)

// oracle answers membership questions from a suffix array (SA-IS) and its
// LCP array. It shares no code with the ERA construction or the tree query
// paths under test.
type oracle struct {
	text []byte // corpus followed by the terminator
	sa   []int32
}

func newOracle(data []byte) (*oracle, error) {
	text := append(slices.Clip(data), '$')
	sa, err := suffixarray.Build(text)
	if err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	return &oracle{text: text, sa: sa}, nil
}

// saRange returns the half-open suffix-array interval of suffixes that start
// with p.
func (o *oracle) saRange(p []byte) (lo, hi int) {
	cmp := func(i int) int {
		suf := o.text[o.sa[i]:]
		if len(suf) > len(p) {
			suf = suf[:len(p)]
		}
		return bytes.Compare(suf, p)
	}
	lo = sort.Search(len(o.sa), func(i int) bool { return cmp(i) >= 0 })
	hi = lo + sort.Search(len(o.sa)-lo, func(i int) bool { return cmp(lo+i) > 0 })
	return lo, hi
}

func (o *oracle) count(p []byte) int {
	lo, hi := o.saRange(p)
	return hi - lo
}

// firstOccurrences returns the max smallest offsets p occurs at, ascending
// (all of them when max ≤ 0), which is what an occurrences op must answer.
func (o *oracle) firstOccurrences(p []byte, max int) []int {
	lo, hi := o.saRange(p)
	occ := make([]int, 0, hi-lo)
	for _, s := range o.sa[lo:hi] {
		occ = append(occ, int(s))
	}
	sort.Ints(occ)
	if max > 0 && len(occ) > max {
		occ = occ[:max]
	}
	return occ
}

// longestRepeat returns the length of the longest substring occurring at
// least twice: the maximum of the LCP array.
func (o *oracle) longestRepeat() int {
	return int(slices.Max(suffixarray.LCP(o.text, o.sa)))
}

// expect is the oracle's answer table for a pattern universe: counts[i] is
// the number of occurrences of universe[i].
type expect struct {
	o        *oracle
	universe [][]byte
	counts   []int32
}

func (o *oracle) expect(universe [][]byte) *expect {
	e := &expect{o: o, universe: universe, counts: make([]int32, len(universe))}
	for i, p := range universe {
		e.counts[i] = int32(o.count(p))
	}
	return e
}

// check reports whether res is a correct answer to single call c. The cheap
// form (strict false) runs inside timed trials: found and count against the
// table, and every returned offset verified against the text. The strict
// form, used on the warm-up trial, also requires the offsets to be exactly
// the smallest ones.
func (e *expect) check(c call, found bool, count int, occ []int, strict bool) bool {
	want := int(e.counts[c.pat])
	if found != (want > 0) {
		return false
	}
	if c.kind == opContains {
		return true
	}
	if count != want {
		return false
	}
	if c.kind == opCount {
		return true
	}
	p := e.universe[c.pat]
	if len(occ) != min(want, maxOcc) {
		return false
	}
	if strict {
		return slices.Equal(occ, e.o.firstOccurrences(p, maxOcc))
	}
	for i, off := range occ {
		if i > 0 && occ[i-1] >= off {
			return false
		}
		if off < 0 || off+len(p) > len(e.o.text) || !bytes.Equal(e.o.text[off:off+len(p)], p) {
			return false
		}
	}
	return true
}

// checkResult is check for a library-level era.Result.
func (e *expect) checkResult(c call, r era.Result, strict bool) bool {
	return e.check(c, r.Found, r.Count, r.Occurrences, strict)
}
