package dataset

import (
	"math"
	"testing"

	"github.com/spatialmf/smfl/internal/mat"
)

func smallDataset(t *testing.T) *Dataset {
	t.Helper()
	x := mat.FromRows([][]float64{
		{0, 0, 10, 100},
		{1, 0, 20, 200},
		{0, 1, 30, 300},
		{1, 1, 40, 400},
	})
	d, err := New("tiny", []string{"Lat", "Lon", "A", "B"}, 2, x)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestNewValidation(t *testing.T) {
	x := mat.NewDense(2, 3)
	if _, err := New("d", []string{"a", "b"}, 1, x); err == nil {
		t.Fatal("expected column-count mismatch error")
	}
	if _, err := New("d", []string{"a", "b", "c"}, 4, x); err == nil {
		t.Fatal("expected L out-of-range error")
	}
}

func TestCloneAndHead(t *testing.T) {
	d := smallDataset(t)
	c := d.Clone()
	c.X.Set(0, 0, -1)
	if d.X.At(0, 0) != 0 {
		t.Fatal("Clone shares storage")
	}
	h := d.Head(2)
	if n, _ := h.Dims(); n != 2 {
		t.Fatalf("Head rows = %d", n)
	}
	if h2 := d.Head(100); func() int { n, _ := h2.Dims(); return n }() != 4 {
		t.Fatal("Head should clamp")
	}
}

func TestNormalizeRoundTrip(t *testing.T) {
	d := smallDataset(t)
	orig := d.X.Clone()
	nz, err := d.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if mat.Min(d.X) < 0 || mat.Max(d.X) > 1 {
		t.Fatalf("normalized range [%v,%v]", mat.Min(d.X), mat.Max(d.X))
	}
	nz.Invert(d.X)
	if !mat.EqualApprox(d.X, orig, 1e-12) {
		t.Fatal("Invert(Apply(x)) != x")
	}
}

func TestNormalizeConstantColumn(t *testing.T) {
	x := mat.FromRows([][]float64{{0, 7}, {1, 7}})
	d, err := New("c", []string{"Lat", "K"}, 1, x)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Normalize(); err != nil {
		t.Fatal(err)
	}
	if d.X.At(0, 1) != 0.5 || d.X.At(1, 1) != 0.5 {
		t.Fatalf("constant column should map to 0.5: %v", d.X)
	}
}

func TestFitNormalizerRespectsMask(t *testing.T) {
	x := mat.FromRows([][]float64{{1}, {100}, {2}})
	mask := mat.FullMask(3, 1)
	mask.Hide(1, 0) // hide the outlier
	nz, err := FitNormalizer(x, mask)
	if err != nil {
		t.Fatal(err)
	}
	if nz.Maxs[0] != 2 {
		t.Fatalf("max = %v, want 2 (outlier hidden)", nz.Maxs[0])
	}
}

func TestFitNormalizerRejectsNaN(t *testing.T) {
	x := mat.NewDense(2, 1)
	x.Set(0, 0, math.NaN())
	if _, err := FitNormalizer(x, nil); err == nil {
		t.Fatal("expected error")
	}
}

func TestFillColumnMeans(t *testing.T) {
	x := mat.FromRows([][]float64{{1}, {0}, {3}})
	mask := mat.FullMask(3, 1)
	mask.Hide(1, 0)
	if err := FillColumnMeans(x, mask); err != nil {
		t.Fatal(err)
	}
	if x.At(1, 0) != 2 { // mean of 1 and 3
		t.Fatalf("filled = %v, want 2", x.At(1, 0))
	}
	// Observed entries untouched.
	if x.At(0, 0) != 1 || x.At(2, 0) != 3 {
		t.Fatal("observed entries modified")
	}
}

func TestFillColumnMeansAllMissing(t *testing.T) {
	x := mat.NewDense(2, 1)
	mask := mat.NewMask(2, 1)
	if err := FillColumnMeans(x, mask); err == nil {
		t.Fatal("expected error for all-missing column")
	}
}

func TestNewNormalizer(t *testing.T) {
	nz, err := NewNormalizer([]float64{0, 10}, []float64{1, 20})
	if err != nil {
		t.Fatal(err)
	}
	x := mat.FromRows([][]float64{{0.5, 15}})
	nz.Apply(x)
	if x.At(0, 0) != 0.5 || x.At(0, 1) != 0.5 {
		t.Fatalf("apply gave %v", x)
	}
	nz.Invert(x)
	if x.At(0, 0) != 0.5 || x.At(0, 1) != 15 {
		t.Fatalf("invert gave %v", x)
	}
	for _, tc := range []struct{ mins, maxs []float64 }{
		{[]float64{0}, []float64{1, 2}},        // length mismatch
		{nil, nil},                             // empty
		{[]float64{2}, []float64{1}},           // max < min
		{[]float64{math.NaN()}, []float64{1}},  // non-finite min
		{[]float64{0}, []float64{math.Inf(1)}}, // non-finite max
	} {
		if _, err := NewNormalizer(tc.mins, tc.maxs); err == nil {
			t.Fatalf("NewNormalizer(%v, %v) accepted", tc.mins, tc.maxs)
		}
	}
}
