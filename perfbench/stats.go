package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0 ≤ p ≤ 100) of xs by linear
// interpolation between the closest ranks (rank = p/100·(n−1), the
// definition numpy uses by default). +Inf values sort last, so failed
// requests recorded as +Inf count as over any limit. It returns NaN for an
// empty sample. xs is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	return percentileSorted(s, p)
}

func percentileSorted(s []float64, p float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	rank := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(rank))
	hi := lo + 1
	if hi >= len(s) {
		return s[lo]
	}
	if math.IsInf(s[hi], 1) {
		if rank > float64(lo) {
			return math.Inf(1)
		}
		return s[lo]
	}
	frac := rank - float64(lo)
	return s[lo] + frac*(s[hi]-s[lo])
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 { return percentile(xs, 50) }

func minOf(xs []float64) float64 {
	m := math.Inf(1)
	for _, x := range xs {
		m = math.Min(m, x)
	}
	return m
}

func maxOf(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// quartiles returns the first and third quartiles of xs exactly as Python's
// statistics.quantiles(xs, n=4) computes them (the default "exclusive"
// method), so the spread report's IQR matches one computed there from the
// same values; it is not the interpolation percentile uses.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	return exclusiveQuantile(s, 1, 4), exclusiveQuantile(s, 3, 4)
}

// exclusiveQuantile is the i-th of the n-quantiles of sorted s, a line-for-
// line port of CPython's "exclusive" branch: the 1-based position i·(m+1)/n
// is clamped to [1, m−1] before interpolating, so tiny samples extrapolate
// the way Python does.
func exclusiveQuantile(s []float64, i, n int) float64 {
	ld := len(s)
	if ld == 0 {
		return math.NaN()
	}
	if ld == 1 {
		return s[0]
	}
	m := ld + 1
	j := i * m / n
	if j < 1 {
		j = 1
	} else if j > ld-1 {
		j = ld - 1
	}
	delta := i*m - j*n
	return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / float64(n)
}
