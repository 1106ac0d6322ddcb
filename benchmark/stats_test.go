package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPercentile(t *testing.T) {
	s := []float64{10, 20, 30, 40, 50}
	for _, tc := range []struct{ p, want float64 }{
		{0, 10}, {25, 20}, {50, 30}, {75, 40}, {100, 50},
		{10, 14}, // 0.4 of the way from 10 to 20
		{99, 49.6},
	} {
		if got := percentile(s, tc.p); !near(got, tc.want) {
			t.Errorf("percentile(%v, %v) = %v, want %v", s, tc.p, got, tc.want)
		}
	}
	if got := percentile([]float64{7}, 99); got != 7 {
		t.Errorf("percentile of one sample = %v, want 7", got)
	}
	if got := percentile([]int64{1, 2}, 50); !near(got, 1.5) {
		t.Errorf("percentile([1 2], 50) = %v, want 1.5", got)
	}
}

func TestSummarize(t *testing.T) {
	in := []float64{5, 1, 4, 2, 3}
	got := summarize(in)
	if want := (summary{Median: 3, Q1: 2, Q3: 4, N: 5}); got != want {
		t.Errorf("summarize(%v) = %+v, want %+v", in, got, want)
	}
	if in[0] != 5 {
		t.Error("summarize sorted its argument in place")
	}
	// The quartiles agree with Python's statistics.quantiles(method="inclusive").
	got = summarize([]float64{1, 2, 3, 4})
	if want := (summary{Median: 2.5, Q1: 1.75, Q3: 3.25, N: 4}); got != want {
		t.Errorf("summarize(1..4) = %+v, want %+v", got, want)
	}
	if got := summarize(nil); got != (summary{}) {
		t.Errorf("summarize(nil) = %+v, want zero", got)
	}
}

func TestSamples(t *testing.T) {
	s := samples{3000, 1000, 2000}
	p := s.pctUS(50, 100)
	if !near(p[0], 2) || !near(p[1], 3) {
		t.Errorf("pctUS(50, 100) = %v, want [2 3] microseconds", p)
	}
	if s[0] != 3000 {
		t.Error("pctUS sorted the samples in place")
	}
	if p := (samples{}).pctUS(50); p[0] != 0 {
		t.Errorf("pctUS of no samples = %v, want 0", p)
	}
}
