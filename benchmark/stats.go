package main

import (
	"math"
	"slices"
)

// percentile returns the exact p-th percentile (0 < p ≤ 100) of sorted by
// the nearest-rank rule: the smallest sample with at least p% of the
// samples at or below it. No interpolation and no buckets.
func percentile(sorted []uint32, p float64) uint32 {
	if len(sorted) == 0 {
		return 0
	}
	// The small slack keeps n·p/100 = 999.0000000000001 at rank 999.
	rank := int(math.Ceil(float64(len(sorted))*p/100 - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// tailPercentile returns the highest percentile of sorted that still has
// at least ten samples beyond it, and its level; ok is false with fewer
// than 11 samples.
func tailPercentile(sorted []uint32) (level float64, v uint32, ok bool) {
	n := len(sorted)
	if n < 11 {
		return 0, 0, false
	}
	return 100 * float64(n-10) / float64(n), sorted[n-11], true
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(v []uint32) float64 {
	if len(v) == 0 {
		return 0
	}
	var sum float64
	for _, x := range v {
		sum += float64(x)
	}
	return sum / float64(len(v))
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(v, n=4) does (the exclusive method), which is how
// the driver judges spread. Fewer than two values have no spread.
func quartiles(v []float64) (q1, q3 float64) {
	n := len(v)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		return v[0], v[0]
	}
	s := slices.Clone(v)
	slices.Sort(s)
	at := func(i int) float64 { // i-th of 3 cut points
		j := i * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median.
func spread(v []float64) float64 {
	m := median(v)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(v)
	s := (q3 - q1) / m
	if s < 0 {
		s = -s
	}
	return s
}
