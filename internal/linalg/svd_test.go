package linalg

import (
	"math"
	"math/rand"
	"testing"

	"github.com/spatialmf/smfl/internal/mat"
)

func reconstructErr(t *testing.T, a *mat.Dense) float64 {
	t.Helper()
	svd, err := ComputeSVD(a)
	if err != nil {
		t.Fatal(err)
	}
	return mat.FrobNorm(mat.Sub(nil, svd.Reconstruct(0), a))
}

func TestSVDReconstructsKnown(t *testing.T) {
	a := mat.FromRows([][]float64{{3, 0}, {0, 2}})
	svd, err := ComputeSVD(a)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(svd.S[0]-3) > 1e-10 || math.Abs(svd.S[1]-2) > 1e-10 {
		t.Fatalf("S = %v, want [3 2]", svd.S)
	}
	if e := mat.FrobNorm(mat.Sub(nil, svd.Reconstruct(0), a)); e > 1e-10 {
		t.Fatalf("reconstruction error %v", e)
	}
}

func TestSVDReconstructionProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	for trial := 0; trial < 30; trial++ {
		m, n := 1+rng.Intn(12), 1+rng.Intn(12)
		a := mat.RandomNormal(rng, m, n, 0, 1)
		if e := reconstructErr(t, a); e > 1e-8*(1+mat.FrobNorm(a)) {
			t.Fatalf("trial %d (%dx%d): reconstruction error %v", trial, m, n, e)
		}
	}
}

func TestSVDWideMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	a := mat.RandomNormal(rng, 3, 9, 0, 1)
	svd, err := ComputeSVD(a)
	if err != nil {
		t.Fatal(err)
	}
	if len(svd.S) != 3 {
		t.Fatalf("thin SVD of 3x9 should have 3 singular values, got %d", len(svd.S))
	}
	if e := mat.FrobNorm(mat.Sub(nil, svd.Reconstruct(0), a)); e > 1e-8 {
		t.Fatalf("reconstruction error %v", e)
	}
}

func TestSVDOrthonormalFactors(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	a := mat.RandomNormal(rng, 10, 6, 0, 1)
	svd, err := ComputeSVD(a)
	if err != nil {
		t.Fatal(err)
	}
	utu := mat.MulAT(nil, svd.U, svd.U)
	if !mat.EqualApprox(utu, mat.Identity(6), 1e-8) {
		t.Fatal("UᵀU != I")
	}
	vtv := mat.MulAT(nil, svd.V, svd.V)
	if !mat.EqualApprox(vtv, mat.Identity(6), 1e-8) {
		t.Fatal("VᵀV != I")
	}
}

func TestSVDSingularValuesDescending(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	a := mat.RandomNormal(rng, 8, 8, 0, 1)
	svd, err := ComputeSVD(a)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(svd.S); i++ {
		if svd.S[i] > svd.S[i-1]+1e-12 {
			t.Fatalf("S not descending: %v", svd.S)
		}
	}
}

func TestSVDLowRankTruncation(t *testing.T) {
	// Rank-2 matrix reconstructs exactly at rank 2.
	rng := rand.New(rand.NewSource(34))
	u := mat.RandomNormal(rng, 9, 2, 0, 1)
	v := mat.RandomNormal(rng, 2, 7, 0, 1)
	a := mat.Mul(nil, u, v)
	svd, err := ComputeSVD(a)
	if err != nil {
		t.Fatal(err)
	}
	if e := mat.FrobNorm(mat.Sub(nil, svd.Reconstruct(2), a)); e > 1e-8 {
		t.Fatalf("rank-2 truncation error %v", e)
	}
	// Numerical rank 2: exactly two singular values above 1e-9·σ₁.
	if cut := 1e-9 * svd.S[0]; svd.S[1] <= cut || svd.S[2] > cut {
		t.Fatalf("singular values %v, want numerical rank 2", svd.S)
	}
}

func TestSoftThreshold(t *testing.T) {
	a := mat.FromRows([][]float64{{5, 0}, {0, 1}})
	svd, err := ComputeSVD(a)
	if err != nil {
		t.Fatal(err)
	}
	got := svd.SoftThresholdReconstruct(2)
	want := mat.FromRows([][]float64{{3, 0}, {0, 0}})
	if !mat.EqualApprox(got, want, 1e-9) {
		t.Fatalf("soft threshold = %v", got)
	}
}

func TestSVDRejectsNaN(t *testing.T) {
	a := mat.NewDense(2, 2)
	a.Set(0, 0, math.NaN())
	if _, err := ComputeSVD(a); err != ErrNotFinite {
		t.Fatalf("err = %v, want ErrNotFinite", err)
	}
}

func TestSVDZeroMatrix(t *testing.T) {
	a := mat.NewDense(4, 3)
	svd, err := ComputeSVD(a)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range svd.S {
		if s != 0 {
			t.Fatalf("S = %v for zero matrix", svd.S)
		}
	}
}
