package mat

import (
	"math/rand"
	"sync/atomic"
	"testing"
)

// forcePool shrinks the parallel threshold so every kernel takes the pooled
// path, restoring defaults when the test ends.
func forcePool(t *testing.T, workers int) {
	t.Helper()
	oldThreshold := parallelThreshold
	t.Cleanup(func() { parallelThreshold = oldThreshold; SetWorkers(0) })
	parallelThreshold = 1
	SetWorkers(workers)
}

func TestParallelRangeCoversEachIndexOnce(t *testing.T) {
	forcePool(t, 4)
	for _, n := range []int{1, 7, 64, 1000} {
		hits := make([]int32, n)
		ParallelRange(n, n*1000, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				hits[i]++
			}
		})
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("n=%d index %d visited %d times", n, i, h)
			}
		}
	}
}

func TestParallelRangeSerialBelowThreshold(t *testing.T) {
	SetWorkers(4)
	t.Cleanup(func() { SetWorkers(0) })
	var calls int32
	ParallelRange(100, 10, func(lo, hi int) {
		atomic.AddInt32(&calls, 1)
		if lo != 0 || hi != 100 {
			t.Fatalf("expected one serial range, got [%d,%d)", lo, hi)
		}
	})
	if calls != 1 {
		t.Fatalf("expected 1 call, got %d", calls)
	}
}

func TestParallelReduceDeterministicAndAccurate(t *testing.T) {
	forcePool(t, 4)
	rng := rand.New(rand.NewSource(7))
	vals := make([]float64, 10007)
	var serial float64
	for i := range vals {
		vals[i] = rng.NormFloat64()
		serial += vals[i]
	}
	sum := func() float64 {
		return ParallelReduce(len(vals), len(vals)*1000, func(lo, hi int) float64 {
			var s float64
			for i := lo; i < hi; i++ {
				s += vals[i]
			}
			return s
		})
	}
	first := sum()
	for i := 0; i < 10; i++ {
		if got := sum(); got != first {
			t.Fatalf("pooled reduction not deterministic: %v vs %v", got, first)
		}
	}
	if diff := first - serial; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("pooled sum %v vs serial %v", first, serial)
	}
}

func TestNestedParallelRangeCompletes(t *testing.T) {
	// Nested pooled calls must not deadlock even with a tiny pool: waiters
	// help drain the shared queue.
	forcePool(t, 2)
	var total atomic.Int64
	ParallelRange(8, 1<<30, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			ParallelRange(64, 1<<30, func(ilo, ihi int) {
				total.Add(int64(ihi - ilo))
			})
		}
	})
	if total.Load() != 8*64 {
		t.Fatalf("nested ranges covered %d indices, want %d", total.Load(), 8*64)
	}
}

func TestSetWorkersAndEnvOverride(t *testing.T) {
	t.Cleanup(func() { SetWorkers(0) })
	t.Setenv("SMFL_WORKERS", "3")
	SetWorkers(0)
	if got := Workers(); got != 3 {
		t.Fatalf("SMFL_WORKERS=3 gave pool size %d", got)
	}
	if prev := SetWorkers(5); prev != 3 {
		t.Fatalf("SetWorkers returned previous size %d, want 3", prev)
	}
	if got := Workers(); got != 5 {
		t.Fatalf("pool size %d, want 5", got)
	}
}

func TestMulSerialPooledAgree(t *testing.T) {
	// The row/column partition must not change results: pooled runs of the
	// dense kernels agree with single-worker runs to the last bit for
	// row-partitioned kernels and to 1e-12 for reductions.
	rng := rand.New(rand.NewSource(11))
	a := RandomNormal(rng, 37, 29, 0, 1)
	b := RandomNormal(rng, 29, 41, 0, 1)
	bt := b.T()
	c := RandomNormal(rng, 37, 41, 0, 1)

	SetWorkers(1)
	t.Cleanup(func() { SetWorkers(0) })
	wantMul := Mul(nil, a, b)
	wantBT := MulBT(nil, a, bt) // bt is 41×29: a·btᵀ is 37×41
	wantAT := MulAT(nil, a, c)
	wantHad := Hadamard(nil, c, c)
	wantAdd := AddScaled(nil, c, 0.5, c)

	forcePool(t, 4)
	if !EqualApprox(Mul(nil, a, b), wantMul, 0) {
		t.Fatal("pooled Mul differs from serial")
	}
	if !EqualApprox(MulBT(nil, a, bt), wantBT, 0) {
		t.Fatal("pooled MulBT differs from serial")
	}
	if !EqualApprox(MulAT(nil, a, c), wantAT, 0) {
		t.Fatal("pooled MulAT differs from serial")
	}
	if !EqualApprox(Hadamard(nil, c, c), wantHad, 0) {
		t.Fatal("pooled Hadamard differs from serial")
	}
	if !EqualApprox(AddScaled(nil, c, 0.5, c), wantAdd, 0) {
		t.Fatal("pooled AddScaled differs from serial")
	}
}
