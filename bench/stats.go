package main

import (
	"math"
	"sort"
)

// fastQuartile picks the value a quarter of the way in from the fast end of
// vs: the ceil(n/4)-th best (3rd best of 12, 2nd best of 8). Interference on
// a shared machine only ever slows a window down, so the fast side of the
// distribution estimates the program and the slow side the neighbours.
func fastQuartile(vs []float64, higherIsBetter bool) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	k := (len(s) + 3) / 4
	if higherIsBetter {
		return s[len(s)-k]
	}
	return s[k-1]
}

// percentile is the nearest-rank p-quantile of an ascending sample.
func percentile(sorted []int64, p float64) int64 {
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// quartiles are Python's statistics.quantiles(vs, n=4), the cut points the
// contract's spread rule is written in. vs needs at least two values.
func quartiles(vs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	m := len(s)
	cut := func(i int) float64 {
		j := min(max(i*(m+1)/4, 1), m-1)
		delta := i*(m+1) - j*4 // outside 0..4 at the clamped ends: extrapolation, as Python does
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the quartile distance as a share of the median.
func spread(vs []float64) float64 {
	q1, q2, q3 := quartiles(vs)
	return (q3 - q1) / q2
}
