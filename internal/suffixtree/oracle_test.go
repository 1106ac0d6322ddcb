package suffixtree

import (
	"bytes"
	"slices"
	"strings"
)

// The tests' oracles: every answer comes from scanning the terminated string
// at each offset, so none shares code with either tree layout or a builder.

// scanOccurrences returns the offsets at which p occurs in text, in the
// lexicographic order of the suffixes starting there — the order a tree
// lists its leaves in.
func scanOccurrences(text, p []byte) []int32 {
	var occ []int32
	for i := range text {
		if bytes.HasPrefix(text[i:], p) {
			occ = append(occ, int32(i))
		}
	}
	slices.SortFunc(occ, func(a, b int32) int { return bytes.Compare(text[a:], text[b:]) })
	return occ
}

// sharedPrefix returns the length of the longest common prefix of a and b.
func sharedPrefix(a, b []byte) int {
	n := 0
	for n < len(a) && n < len(b) && a[n] == b[n] {
		n++
	}
	return n
}

// longestOccurringPrefix returns the length of the longest prefix of p that
// occurs in text: what a descent matches before it fails.
func longestOccurringPrefix(text, p []byte) int {
	best := 0
	for i := range text {
		best = max(best, sharedPrefix(text[i:], p))
	}
	return best
}

// branches reports whether w occurs in text followed by two different
// symbols: whether a suffix tree of text has a node at string depth len(w)
// on w's path. The empty string, the root's label, branches in any text of
// two or more symbols.
func branches(text, w []byte) bool {
	next := -1
	for i := 0; i+len(w) < len(text); i++ {
		if bytes.HasPrefix(text[i:], w) {
			if next >= 0 && int(text[i+len(w)]) != next {
				return true
			}
			next = int(text[i+len(w)])
		}
	}
	return false
}

// locusDepth returns how far into its edge the locus of p (which occurs in
// text) lies: the symbols of p past its longest proper prefix at which the
// tree branches, the root included.
func locusDepth(text, p []byte) int32 {
	l := len(p) - 1
	for l > 0 && !branches(text, p[:l]) {
		l--
	}
	return int32(len(p) - l)
}

// bruteLRS returns the longest substring of text that occurs at least
// twice, the lexicographically smallest of equal length, with its
// occurrences ascending; nil, nil when no symbol repeats.
func bruteLRS(text []byte) ([]byte, []int) {
	var best []byte
	for i := range text {
		for j := i + 1; j < len(text); j++ {
			l := sharedPrefix(text[i:], text[j:])
			if l > 0 && (l > len(best) || l == len(best) && bytes.Compare(text[i:i+l], best) < 0) {
				best = text[i : i+l]
			}
		}
	}
	if best == nil {
		return nil, nil
	}
	var occ []int
	for i := range text {
		if bytes.HasPrefix(text[i:], best) {
			occ = append(occ, i)
		}
	}
	return best, occ
}

// repeat is one internal node as a repeat walk reports it.
type repeat struct {
	depth int32
	occ   int
	label string
}

// bruteRepeats counts every distinct substring of text and returns those of
// length ≥ minLen occurring ≥ minOcc times and followed by two different
// symbols — the internal nodes of the tree below the root — in
// lexicographic order, which is a pre-order walk's.
func bruteRepeats(text []byte, minLen, minOcc int) []repeat {
	type tally struct {
		occ      int
		next     byte
		branches bool
	}
	subs := map[string]*tally{}
	for i := range text {
		for j := i + max(minLen, 1); j < len(text); j++ {
			w := string(text[i:j])
			s := subs[w]
			if s == nil {
				s = &tally{next: text[j]}
				subs[w] = s
			}
			s.occ++
			s.branches = s.branches || text[j] != s.next
		}
	}
	var out []repeat
	for w, s := range subs {
		if s.branches && s.occ >= minOcc {
			out = append(out, repeat{int32(len(w)), s.occ, w})
		}
	}
	slices.SortFunc(out, func(a, b repeat) int { return strings.Compare(a.label, b.label) })
	return out
}
