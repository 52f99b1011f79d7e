package main

import (
	"math"
	"sort"
)

// sortedCopy returns xs in ascending order without touching the caller's slice.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the middle sample, or the mean of the middle two.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// percentile is the nearest-rank p-th percentile (0 < p <= 100): the
// smallest sample with at least p percent of the samples at or below it.
// With 40 samples p75 is the 30th value, leaving exactly ten beyond it.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// samplesBeyond counts the samples strictly above the nearest-rank p-th
// percentile position.
func samplesBeyond(n int, p float64) int {
	return n - int(math.Ceil(p/100*float64(n)))
}

// tailPercentile picks the highest percentile of the ladder that still
// has at least ten of the n samples beyond it — the highest tail the
// sample supports. Below twenty samples only the median qualifies.
func tailPercentile(n int) float64 {
	for _, p := range []float64{99, 95, 90, 75, 66} {
		if samplesBeyond(n, p) >= 10 {
			return p
		}
	}
	return 50
}

// quartiles reproduces Python's statistics.quantiles(xs, n=4) (the
// default "exclusive" method), so spreads computed here match the ones
// the A/A check computes.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	m := len(s)
	if m < 2 {
		if m == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ratio is a/b, 0 when b is 0, so an unused layer reads 0 instead of Inf.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
