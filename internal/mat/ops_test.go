package mat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAddSub(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{10, 20}, {30, 40}})
	if got := Add(nil, a, b); !EqualApprox(got, FromRows([][]float64{{11, 22}, {33, 44}}), 0) {
		t.Fatalf("Add = %v", got)
	}
	if got := Sub(nil, b, a); !EqualApprox(got, FromRows([][]float64{{9, 18}, {27, 36}}), 0) {
		t.Fatalf("Sub = %v", got)
	}
}

func TestSubThenAddIsIdentityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n, m := 1+r.Intn(8), 1+r.Intn(8)
		a := RandomNormal(rng, n, m, 0, 1)
		b := RandomNormal(rng, n, m, 0, 1)
		return EqualApprox(Add(nil, Sub(nil, a, b), b), a, 1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestHadamardAndDiv(t *testing.T) {
	a := FromRows([][]float64{{2, 3}})
	b := FromRows([][]float64{{4, 5}})
	if got := Hadamard(nil, a, b); !EqualApprox(got, FromRows([][]float64{{8, 15}}), 0) {
		t.Fatalf("Hadamard = %v", got)
	}
}

func TestScaleAddScaled(t *testing.T) {
	a := FromRows([][]float64{{1, -2}})
	if got := Scale(nil, 3, a); !EqualApprox(got, FromRows([][]float64{{3, -6}}), 0) {
		t.Fatalf("Scale = %v", got)
	}
	b := FromRows([][]float64{{10, 10}})
	if got := AddScaled(nil, b, 0.5, a); !EqualApprox(got, FromRows([][]float64{{10.5, 9}}), 0) {
		t.Fatalf("AddScaled = %v", got)
	}
}

func TestFrobNorm(t *testing.T) {
	m := FromRows([][]float64{{3, 4}})
	if got := FrobNorm(m); math.Abs(got-5) > 1e-14 {
		t.Fatalf("FrobNorm = %v", got)
	}
	if got := FrobNorm2(m); math.Abs(got-25) > 1e-14 {
		t.Fatalf("FrobNorm2 = %v", got)
	}
}

func TestTraceAndDot(t *testing.T) {
	m := FromRows([][]float64{{1, 9}, {9, 2}})
	if Trace(m) != 3 {
		t.Fatalf("Trace = %v", Trace(m))
	}
}

func TestTraceCyclicProperty(t *testing.T) {
	// Tr(AB) == Tr(BA) for compatible square-product shapes.
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 30; trial++ {
		n, m := 1+rng.Intn(7), 1+rng.Intn(7)
		a := RandomNormal(rng, n, m, 0, 1)
		b := RandomNormal(rng, m, n, 0, 1)
		if math.Abs(Trace(Mul(nil, a, b))-Trace(Mul(nil, b, a))) > 1e-10 {
			t.Fatal("Tr(AB) != Tr(BA)")
		}
	}
}

func TestMinMaxSum(t *testing.T) {
	m := FromRows([][]float64{{-1, 5}, {2, 0}})
	if Min(m) != -1 || Max(m) != 5 || Sum(m) != 6 {
		t.Fatalf("Min/Max/Sum = %v/%v/%v", Min(m), Max(m), Sum(m))
	}
}

func TestClampMin(t *testing.T) {
	m := FromRows([][]float64{{-1, 0.5}})
	m.ClampMin(0)
	if m.At(0, 0) != 0 || m.At(0, 1) != 0.5 {
		t.Fatalf("ClampMin = %v", m)
	}
}

func TestApply(t *testing.T) {
	m := FromRows([][]float64{{1, 4, 9}})
	got := Apply(nil, math.Sqrt, m)
	if !EqualApprox(got, FromRows([][]float64{{1, 2, 3}}), 1e-14) {
		t.Fatalf("Apply = %v", got)
	}
}

func TestMaxAbsDiff(t *testing.T) {
	a := FromRows([][]float64{{1, 2}})
	b := FromRows([][]float64{{1.5, -2}})
	if got := MaxAbsDiff(a, b); got != 4 {
		t.Fatalf("MaxAbsDiff = %v", got)
	}
}

func TestOpsShapeMismatchPanics(t *testing.T) {
	defer expectPanic(t, "Add")
	Add(nil, NewDense(2, 2), NewDense(2, 3))
}

func TestFrobNormTriangleInequalityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n, m := 1+r.Intn(8), 1+r.Intn(8)
		a := RandomNormal(rng, n, m, 0, 1)
		b := RandomNormal(rng, n, m, 0, 1)
		return FrobNorm(Add(nil, a, b)) <= FrobNorm(a)+FrobNorm(b)+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
