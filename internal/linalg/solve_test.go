package linalg

import (
	"math"
	"math/rand"
	"testing"

	"github.com/spatialmf/smfl/internal/mat"
)

func TestCholeskyKnown(t *testing.T) {
	a := mat.FromRows([][]float64{{4, 2}, {2, 3}})
	l, err := Cholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	// L Lᵀ must reproduce A.
	if got := mat.MulBT(nil, l, l); !mat.EqualApprox(got, a, 1e-12) {
		t.Fatalf("LLᵀ = %v", got)
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	a := mat.FromRows([][]float64{{1, 2}, {2, 1}}) // eigenvalues 3, -1
	if _, err := Cholesky(a); err != ErrSingular {
		t.Fatalf("err = %v, want ErrSingular", err)
	}
}

func TestCholeskySolveProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(10)
		b0 := mat.RandomNormal(rng, n, n, 0, 1)
		// SPD via BᵀB + I.
		a := mat.MulAT(nil, b0, b0)
		for i := 0; i < n; i++ {
			a.Set(i, i, a.At(i, i)+1)
		}
		xTrue := make([]float64, n)
		for i := range xTrue {
			xTrue[i] = rng.NormFloat64()
		}
		b := mat.MulVec(nil, a, xTrue)
		l, err := Cholesky(a)
		if err != nil {
			t.Fatal(err)
		}
		x := CholeskySolve(l, b)
		for i := range x {
			if math.Abs(x[i]-xTrue[i]) > 1e-8 {
				t.Fatalf("trial %d: x[%d] = %v want %v", trial, i, x[i], xTrue[i])
			}
		}
	}
}

func TestRidgeRecoversExactSolution(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	a := mat.RandomNormal(rng, 30, 4, 0, 1)
	xTrue := []float64{1, -2, 0.5, 3}
	b := make([]float64, 30)
	for i := 0; i < 30; i++ {
		for j := 0; j < 4; j++ {
			b[i] += a.At(i, j) * xTrue[j]
		}
	}
	x, err := Ridge(a, b, 1e-8)
	if err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if math.Abs(x[i]-xTrue[i]) > 1e-5 {
			t.Fatalf("x = %v", x)
		}
	}
}

func TestRidgeShrinksTowardZero(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	a := mat.RandomNormal(rng, 20, 3, 0, 1)
	b := make([]float64, 20)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	xSmall, err := Ridge(a, b, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	xBig, err := Ridge(a, b, 1000)
	if err != nil {
		t.Fatal(err)
	}
	normSmall, normBig := 0.0, 0.0
	for i := range xSmall {
		normSmall += xSmall[i] * xSmall[i]
		normBig += xBig[i] * xBig[i]
	}
	if normBig >= normSmall {
		t.Fatalf("larger alpha should shrink: %v vs %v", normBig, normSmall)
	}
}

func TestRidgeHandlesRankDeficient(t *testing.T) {
	// Duplicate column makes AᵀA singular; Ridge must still solve.
	a := mat.FromRows([][]float64{{1, 1}, {2, 2}, {3, 3}})
	x, err := Ridge(a, []float64{2, 4, 6}, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Prediction must still match even if x itself is non-unique.
	for i := 0; i < 3; i++ {
		pred := a.At(i, 0)*x[0] + a.At(i, 1)*x[1]
		if math.Abs(pred-float64(2*(i+1))) > 1e-4 {
			t.Fatalf("prediction %v at row %d", pred, i)
		}
	}
}

func TestPCAOnPlane(t *testing.T) {
	// Points on a line in 3D: one dominant component.
	rng := rand.New(rand.NewSource(46))
	n := 50
	x := mat.NewDense(n, 3)
	for i := 0; i < n; i++ {
		tv := rng.NormFloat64()
		x.Set(i, 0, tv)
		x.Set(i, 1, 2*tv)
		x.Set(i, 2, -tv)
	}
	scores, err := PCA(x, 2)
	if err != nil {
		t.Fatal(err)
	}
	var var1, var2 float64
	for i := 0; i < n; i++ {
		var1 += scores.At(i, 0) * scores.At(i, 0)
		var2 += scores.At(i, 1) * scores.At(i, 1)
	}
	if var2 > 1e-8*var1 {
		t.Fatalf("second component should be null: %v vs %v", var2, var1)
	}
}

func TestPCARejectsBadK(t *testing.T) {
	x := mat.NewDense(5, 3)
	if _, err := PCA(x, 0); err == nil {
		t.Fatal("expected error for k=0")
	}
	if _, err := PCA(x, 4); err == nil {
		t.Fatal("expected error for k>cols")
	}
}
