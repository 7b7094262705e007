package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the p-quantile (0 <= p <= 1) of xs by linear
// interpolation between the closest ranks (the "type 7" estimator). xs
// need not be sorted; it is not modified. An empty input yields 0.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return sortedPercentile(s, p)
}

func sortedPercentile(s []float64, p float64) float64 {
	if len(s) == 0 {
		return 0
	}
	if p <= 0 {
		return s[0]
	}
	if p >= 1 {
		return s[len(s)-1]
	}
	h := p * float64(len(s)-1)
	lo := int(math.Floor(h))
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + (h-float64(lo))*(s[lo+1]-s[lo])
}

// median is percentile(xs, 0.5).
func median(xs []float64) float64 { return percentile(xs, 0.5) }

// quartiles returns Q1, median and Q3 exactly as Python's
// statistics.quantiles(xs, n=4) computes them (the default "exclusive"
// method), so spreads recorded here match the ones an external checker
// derives from the same values. Fewer than two values collapse to the
// single value (or zeros when empty).
func quartiles(xs []float64) (q1, q2, q3 float64) {
	n := len(xs)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return xs[0], xs[0], xs[0]
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := n + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// durationsMs converts durations to float milliseconds.
func durationsMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
