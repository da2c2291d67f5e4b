package main

import (
	"math"
	"testing"
)

func TestPercentile(t *testing.T) {
	inf := math.Inf(1)
	for _, tc := range []struct {
		xs   []float64
		p    float64
		want float64
	}{
		{[]float64{5, 1, 4, 2, 3}, 50, 3},
		{[]float64{5, 1, 4, 2, 3}, 90, 4.6},
		{[]float64{5, 1, 4, 2, 3}, 0, 1},
		{[]float64{5, 1, 4, 2, 3}, 100, 5},
		{[]float64{7}, 90, 7},
		{[]float64{1, 2, 3, 4}, 50, 2.5},
		// A failed request (+Inf) counts as over any limit once the rank
		// reaches it, and never before.
		{[]float64{1, 2, inf}, 50, 2},
		{[]float64{1, 2, inf}, 90, inf},
		{[]float64{1, 2, 3, inf}, 50, 2.5},
	} {
		got := percentile(tc.xs, tc.p)
		if math.Abs(got-tc.want) > 1e-12 && !(math.IsInf(got, 1) && math.IsInf(tc.want, 1)) {
			t.Errorf("percentile(%v, %v) = %v, want %v", tc.xs, tc.p, got, tc.want)
		}
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of an empty sample should be NaN")
	}
	xs := []float64{3, 1, 2}
	percentile(xs, 50)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("percentile reordered its input: %v", xs)
	}
}

// TestQuartilesMatchPython pins quartiles to CPython's
// statistics.quantiles(xs, n=4); the expected values were printed by
// Python 3.11.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{1, 2, 3, 4}, 1.25, 3.75},
		{[]float64{3.1, 1.2, 9.9, 4.4, 5.0, 2.2, 8.1}, 2.2, 8.1},
		{[]float64{5, 1}, 0, 6}, // Python extrapolates on two points
	} {
		q1, q3 := quartiles(tc.xs)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
}

func TestMinMaxMean(t *testing.T) {
	xs := []float64{2, -1, 7}
	if minOf(xs) != -1 || maxOf(xs) != 7 || mean(xs) != 8.0/3 {
		t.Errorf("min/max/mean of %v = %v %v %v", xs, minOf(xs), maxOf(xs), mean(xs))
	}
}
