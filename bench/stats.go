package main

import (
	"math"
	"sort"
)

// summary is the noise record of one metric: the sample count, the median
// and the quartiles, and the 90th percentile only when at least ten samples
// lie beyond it.
type summary struct {
	N      int      `json:"n"`
	Median float64  `json:"median"`
	Q1     float64  `json:"q1"`
	Q3     float64  `json:"q3"`
	P90    *float64 `json:"p90,omitempty"`
}

// summarize computes the summary of xs (which it does not modify).
func summarize(xs []float64) summary {
	s := sorted(xs)
	q := quantiles(s, 4)
	out := summary{N: len(s), Median: q[1], Q1: q[0], Q3: q[2]}
	if p, ok := percentile(s, 9, 10); ok {
		out.P90 = &p
	}
	return out
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median of xs; NaN for an empty sample.
func median(xs []float64) float64 {
	return quantiles(sorted(xs), 4)[1]
}

// quantiles returns the n-1 cut points dividing the sorted sample s into n
// groups, by the same "exclusive" interpolation as Python's
// statistics.quantiles — the method the acceptance check applies to the
// per-run values, so the spreads printed here are the ones it will see.
func quantiles(s []float64, n int) []float64 {
	out := make([]float64, n-1)
	switch len(s) {
	case 0:
		for i := range out {
			out[i] = math.NaN()
		}
		return out
	case 1:
		for i := range out {
			out[i] = s[0]
		}
		return out
	}
	ld := len(s)
	m := ld + 1
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		out[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / float64(n)
	}
	return out
}

// percentile returns the i/n cut point of the sorted sample s and whether
// it may be reported: at least ten samples must lie beyond it, so a p90
// needs n >= 100.
func percentile(s []float64, i, n int) (float64, bool) {
	if len(s)*(n-i) < 10*n {
		return 0, false
	}
	return quantiles(s, n)[i-1], true
}
