package mat

import (
	"math"
	"math/rand"
	"testing"
)

// maskShapes covers odd, small, and larger-than-a-bitset-word operand
// shapes: n×k times k×m under an n×m mask.
var maskShapes = []struct{ n, k, m int }{
	{1, 1, 1},
	{3, 2, 5},
	{17, 4, 13},
	{33, 3, 1},
	{64, 8, 64},
	{70, 5, 129},
}

var maskDensities = []float64{0, 0.3, 0.7, 1.0}

// forEachMaskCase runs fn for every shape × density × pool-size combination,
// with the parallel threshold lowered so the pooled code paths execute even
// on tiny operands.
func forEachMaskCase(t *testing.T, fn func(t *testing.T, rng *rand.Rand, omega *Mask, u, v *Dense)) {
	t.Helper()
	oldThreshold := parallelThreshold
	t.Cleanup(func() { parallelThreshold = oldThreshold; SetWorkers(0) })
	for _, workers := range []int{1, 4} {
		SetWorkers(workers)
		if workers > 1 {
			parallelThreshold = 1
		} else {
			parallelThreshold = oldThreshold
		}
		for _, sh := range maskShapes {
			for _, density := range maskDensities {
				rng := rand.New(rand.NewSource(int64(sh.n*1000 + sh.m + int(density*10))))
				omega := randomMask(rng, sh.n, sh.m, density)
				u := RandomNormal(rng, sh.n, sh.k, 0, 1)
				v := RandomNormal(rng, sh.k, sh.m, 0, 1)
				fn(t, rng, omega, u, v)
			}
		}
	}
}

func TestProjectMulMatchesDense(t *testing.T) {
	forEachMaskCase(t, func(t *testing.T, rng *rand.Rand, omega *Mask, u, v *Dense) {
		want := omega.Project(nil, Mul(nil, u, v))
		got := omega.ProjectMul(nil, u, v)
		if !EqualApprox(got, want, 1e-12) {
			t.Fatalf("ProjectMul diverges from Mul+Project at density %.2f shape %dx%dx%d",
				omega.Density(), u.rows, u.cols, v.cols)
		}
		// Reused dst with stale contents must be fully overwritten.
		got.Fill(math.Pi)
		omega.ProjectMul(got, u, v)
		if !EqualApprox(got, want, 1e-12) {
			t.Fatal("ProjectMul into a dirty dst left stale entries")
		}
	})
}

func TestMulBTObservedMatchesDense(t *testing.T) {
	forEachMaskCase(t, func(t *testing.T, rng *rand.Rand, omega *Mask, u, v *Dense) {
		a := omega.Project(nil, RandomNormal(rng, u.rows, v.cols, 0, 1))
		want := MulBT(nil, a, v)
		got := omega.MulBTObserved(nil, a, v)
		if !EqualApprox(got, want, 1e-12) {
			t.Fatalf("MulBTObserved diverges from MulBT at density %.2f", omega.Density())
		}
	})
}

func TestMaskedFrob2MulMatchesDense(t *testing.T) {
	forEachMaskCase(t, func(t *testing.T, rng *rand.Rand, omega *Mask, u, v *Dense) {
		x := RandomNormal(rng, u.rows, v.cols, 0, 1)
		uv := Mul(nil, u, v)
		want := omega.MaskedFrob2(x, uv)
		got := omega.MaskedFrob2Mul(x, u, v)
		if math.Abs(got-want) > 1e-12*math.Max(want, 1) {
			t.Fatalf("MaskedFrob2Mul %v vs dense %v at density %.2f", got, want, omega.Density())
		}
	})
}

func TestProjectSerialPooledAgree(t *testing.T) {
	forEachMaskCase(t, func(t *testing.T, rng *rand.Rand, omega *Mask, u, v *Dense) {
		x := RandomNormal(rng, omega.rows, omega.cols, 0, 1)
		got := omega.Project(nil, x)
		for i := 0; i < omega.rows; i++ {
			for j := 0; j < omega.cols; j++ {
				want := 0.0
				if omega.Observed(i, j) {
					want = x.At(i, j)
				}
				if got.At(i, j) != want {
					t.Fatalf("Project(%d,%d) = %v, want %v", i, j, got.At(i, j), want)
				}
			}
		}
		// In-place projection must agree too.
		omega.Project(x, x)
		if !EqualApprox(got, x, 0) {
			t.Fatal("in-place Project differs from out-of-place")
		}
	})
}

func TestDensity(t *testing.T) {
	m := NewMask(4, 4)
	if d := m.Density(); d != 0 {
		t.Fatalf("empty mask density %v", d)
	}
	m.Observe(0, 0)
	m.Observe(3, 3)
	if d := m.Density(); d != 2.0/16 {
		t.Fatalf("density %v, want 0.125", d)
	}
	if d := FullMask(3, 5).Density(); d != 1 {
		t.Fatalf("full mask density %v", d)
	}
	if d := NewMask(0, 0).Density(); d != 1 {
		t.Fatalf("zero-size mask density %v", d)
	}
}
