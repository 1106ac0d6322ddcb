package main

import "slices"

// percentile returns the p-th percentile (0 ≤ p ≤ 100) of sorted by linear
// interpolation between closest ranks (the "inclusive" method: p=0 is the
// minimum, p=100 the maximum). sorted must be ascending and non-empty.
func percentile[T int64 | float64](sorted []T, p float64) float64 {
	pos := p / 100 * float64(len(sorted)-1)
	i := int(pos)
	if i >= len(sorted)-1 {
		return float64(sorted[len(sorted)-1])
	}
	lo, hi := float64(sorted[i]), float64(sorted[i+1])
	return lo + (pos-float64(i))*(hi-lo)
}

// summary is one metric's value over the timed trials of a run.
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

// summarize reduces per-trial values to median and quartiles. It sorts a
// copy; an empty input yields the zero summary.
func summarize(vals []float64) summary {
	if len(vals) == 0 {
		return summary{}
	}
	s := slices.Clone(vals)
	slices.Sort(s)
	return summary{Median: percentile(s, 50), Q1: percentile(s, 25), Q3: percentile(s, 75), N: len(s)}
}

func median(v []float64) float64 { return summarize(v).Median }

// samples collects per-operation latencies in nanoseconds.
type samples []int64

// pctUS returns the requested percentiles in microseconds (zeros when there
// are no samples). It sorts a copy.
func (s samples) pctUS(ps ...float64) []float64 {
	out := make([]float64, len(ps))
	if len(s) == 0 {
		return out
	}
	sorted := slices.Clone(s)
	slices.Sort(sorted)
	for i, p := range ps {
		out[i] = percentile(sorted, p) / 1e3
	}
	return out
}
