package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank pct-th percentile of sorted (which
// must be in ascending order): the smallest sample with at least pct % of
// all samples at or below it. Every reported value is a measured sample;
// nothing is interpolated. An empty input yields NaN.
func percentile(sorted []float64, pct int) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	rank := (pct*n + 99) / 100 // ceil(pct/100 · n) in integers
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

// quartiles returns the first quartile, median and third quartile of xs
// with the rule of Python's statistics.quantiles(xs, n=4) (the default
// "exclusive" method), so the spreads -compare reports are the ones any
// script using that function computes from the same values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	m := n + 1
	q := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// median is the middle quartile.
func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// blockMedian is the median of per-block values, leaving out the NaN of a
// block that had no sample. With no value left it is NaN.
func blockMedian(xs []float64) float64 {
	var kept []float64
	for _, x := range xs {
		if !math.IsNaN(x) {
			kept = append(kept, x)
		}
	}
	return median(kept)
}
