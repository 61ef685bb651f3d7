package main

import (
	"math"
	"testing"
)

// The reference values come from Python's statistics.quantiles (default
// "exclusive" method), which the acceptance check uses.
func TestQuantilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want []float64
	}{
		{[]float64{1, 2}, []float64{0.75, 1.5, 2.25}},
		{[]float64{3, 1, 2}, []float64{1, 2, 3}},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, []float64{2.75, 5.5, 8.25}},
		{[]float64{0.5, 0.25, 4, 2, 1}, []float64{0.375, 1, 3}},
		{[]float64{7}, []float64{7, 7, 7}},
	} {
		got := quantiles(sorted(tc.in), 4)
		for i := range got {
			if math.Abs(got[i]-tc.want[i]) > 1e-12 {
				t.Errorf("quantiles(%v) = %v, want %v", tc.in, got, tc.want)
				break
			}
		}
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{5, 1, 3}); m != 3 {
		t.Errorf("odd median = %v, want 3", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even median = %v, want 2.5", m)
	}
	if m := median(nil); !math.IsNaN(m) {
		t.Errorf("empty median = %v, want NaN", m)
	}
	in := []float64{3, 1, 2}
	median(in)
	if in[0] != 3 {
		t.Error("median reordered its input")
	}
}

// A percentile is reported only with at least ten samples beyond it.
func TestPercentileNeedsTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i + 1)
		}
		return s
	}
	if _, ok := percentile(seq(99), 9, 10); ok {
		t.Error("p90 reported from 99 samples")
	}
	p, ok := percentile(seq(100), 9, 10)
	if !ok || math.Abs(p-90.9) > 1e-9 {
		t.Errorf("p90 of 1..100 = %v, %v; want 90.9, true", p, ok)
	}
	if _, ok := percentile(seq(19), 1, 2); ok {
		t.Error("median reported as a tail percentile from 19 samples")
	}
	if s := summarize(seq(50)); s.P90 != nil || s.N != 50 || s.Median != 25.5 {
		t.Errorf("summarize(1..50) = %+v", s)
	}
	if s := summarize(seq(100)); s.P90 == nil {
		t.Error("summarize(1..100) has no p90")
	}
}
