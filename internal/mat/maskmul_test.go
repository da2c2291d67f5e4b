package mat

import (
	"fmt"
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

// observedSets returns the column lists the observed row kernels are pinned
// on for a row of width m: none, only the first column, only the last,
// every column, and a random ascending subset.
func observedSets(rng *rand.Rand, m int) [][]int32 {
	all := make([]int32, m)
	var some []int32
	for j := range all {
		all[j] = int32(j)
		if rng.Intn(2) == 0 {
			some = append(some, int32(j))
		}
	}
	return [][]int32{nil, {0}, {int32(m - 1)}, all, some}
}

// unobservedNaN is planted where the kernels must not read: in a and in V
// outside js. guard is planted where they must not write, in p outside js
// and in dst past its length; it is finite, so a write there shows even
// when it adds an unobservedNaN.
var (
	unobservedNaN = math.Float64frombits(0x7ff80000deadbeef)
	guard         = -7.25
)

// TestObservedRowKernelsMatchLoops pins RowMulAt and RowMulBTAt to plain
// loops written in another order: the gather with the column outermost and
// each p[j] summed in the same blocks of four coefficients, the dot as one
// running sum per coefficient row. The inputs hold zeros of both signs, and
// with special set NaN, infinities and subnormals. p starts as guard
// everywhere, so a cell in js that is not zeroed first, or a cell outside js
// that is written, shows. a and every row of V hold unobservedNaN outside
// js, so a read of an unobserved cell shows too, and dst has a guard past
// len(dst) that must stay untouched.
func TestObservedRowKernelsMatchLoops(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, special := range []bool{false, true} {
		for _, k := range kernelKs {
			for _, m := range kernelLens {
				for set, js := range observedSets(rng, m) {
					name := fmt.Sprintf("special=%v/K=%d/m=%d/set=%d", special, k, m, set)
					u := kernelCoefficients(rng, k, special)
					v := kernelValues(rng, k*m, special)
					v[rng.Intn(k*m)] = math.Copysign(0, -1)
					a := fill(m, unobservedNaN)
					inJS := make([]bool, m)
					for _, j := range js {
						a[j] = kernelValues(rng, 1, special)[0]
						inJS[j] = true
					}
					if len(js) > 0 {
						a[js[0]] = math.Copysign(0, -1)
					}
					for j, in := range inJS {
						if !in {
							for r := 0; r < k; r++ {
								v[r*m+j] = unobservedNaN
							}
						}
					}

					want := fill(m, guard)
					for _, j := range js {
						var s float64
						t := 0
						for ; t+4 <= k; t += 4 {
							s += u[t]*v[t*m+int(j)] + u[t+1]*v[(t+1)*m+int(j)] + u[t+2]*v[(t+2)*m+int(j)] + u[t+3]*v[(t+3)*m+int(j)]
						}
						for ; t < k; t++ {
							s += u[t] * v[t*m+int(j)]
						}
						want[j] = s
					}
					got := fill(m, guard)
					RowMulAt(got, u, v, m, js)
					if i, ok := sameBits(got, want); !ok {
						t.Fatalf("RowMulAt %s: p[%d] = %v (%#x), loop %v (%#x)", name, i,
							got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
					}

					wantDot := fill(k+4, guard)
					for r := 0; r < k; r++ {
						var s float64
						for _, j := range js {
							s += a[j] * v[r*m+int(j)]
						}
						wantDot[r] = s
					}
					gotDot := fill(k+4, guard)
					RowMulBTAt(gotDot[:k], a, v, m, js)
					if i, ok := sameBits(gotDot, wantDot); !ok {
						t.Fatalf("RowMulBTAt %s: dst[%d] = %v (%#x), loop %v (%#x)", name, i,
							gotDot[i], math.Float64bits(gotDot[i]), wantDot[i], math.Float64bits(wantDot[i]))
					}
				}
			}
		}
	}
}
