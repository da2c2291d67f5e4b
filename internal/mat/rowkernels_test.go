package mat

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// withAVX2 runs f with the row kernels' vector bodies switched on or off,
// restoring the host's choice afterwards.
func withAVX2(on bool, f func()) {
	old := useAVX2
	useAVX2 = on
	defer func() { useAVX2 = old }()
	f()
}

// defaultNaN is the NaN that x86 produces for an invalid operation such as
// 0·Inf. The kernel cases use it for their NaN inputs so that every NaN in a
// computation carries the same bits: when two NaNs of different payloads
// meet, which one survives depends on the operand order the Go compiler
// picks for each scalar add, which the portable bodies do not fix.
var defaultNaN = math.Float64frombits(0xfff8000000000000)

// kernelSpecials are the values the special cases mix in: zeros of both
// signs, NaN, infinities, subnormals and the largest finite value.
var kernelSpecials = []float64{
	0, math.Copysign(0, -1), defaultNaN, math.Inf(1), math.Inf(-1),
	5e-324, -2.5e-310, 1e-308, math.MaxFloat64,
}

// kernelValues returns n normal draws; with special set, about one in five
// is replaced by one of kernelSpecials.
func kernelValues(rng *rand.Rand, n int, special bool) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = rng.NormFloat64()
		if special && rng.Intn(5) == 0 {
			s[i] = kernelSpecials[rng.Intn(len(kernelSpecials))]
		}
	}
	return s
}

// kernelCoefficients returns a coefficient row holding a single zero, a
// whole zero block of four (when k ≥ 4) and a −0, so every zero skip runs.
func kernelCoefficients(rng *rand.Rand, k int, special bool) []float64 {
	u := kernelValues(rng, k, special)
	if k >= 4 {
		b := 4 * rng.Intn(k/4)
		clear(u[b : b+4])
	}
	u[rng.Intn(k)] = 0
	u[rng.Intn(k)] = math.Copysign(0, -1)
	return u
}

// sameBits reports the first index where a and b differ in their bits.
func sameBits(a, b []float64) (int, bool) {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i, false
		}
	}
	return -1, len(a) == len(b)
}

var (
	kernelKs   = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 16, 50}
	kernelLens = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 50}
)

// TestRowKernelsVectorMatchesPortable pins the lanes: each AVX2 body must
// give its portable body's bits for every coefficient count, row length and
// column offset, with exact zeros, −0, NaN, infinities and subnormals in
// the inputs.
func TestRowKernelsVectorMatchesPortable(t *testing.T) {
	if !useAVX2 {
		t.Skip("this CPU or OS offers no AVX2: only the portable bodies run here")
	}
	rng := rand.New(rand.NewSource(1))
	for _, special := range []bool{false, true} {
		for _, k := range kernelKs {
			for _, c := range kernelLens {
				for trial := 0; trial < 3; trial++ {
					name := fmt.Sprintf("special=%v/K=%d/len=%d/trial=%d", special, k, c, trial)
					checkRowMul(t, rng, name, k, c, special)
					checkDotPairs(t, rng, name, k, c, special)
					checkAccumPairs(t, rng, name, k, c, special)
				}
			}
		}
	}
}

func checkRowMul(t *testing.T, rng *rand.Rand, name string, k, c int, special bool) {
	t.Helper()
	for _, lo := range []int{0, 1 + rng.Intn(4)} {
		m := lo + c + rng.Intn(3)
		u := kernelCoefficients(rng, k, special)
		v := kernelValues(rng, k*m, special)
		var want, got []float64
		withAVX2(false, func() { want = fill(c+4, defaultNaN); RowMul(want[:c], u, v, m, lo) })
		withAVX2(true, func() { got = fill(c+4, defaultNaN); RowMul(got[:c], u, v, m, lo) })
		if i, ok := sameBits(got, want); !ok {
			t.Fatalf("RowMul %s lo=%d: p[%d] = %v (%#x), portable %v (%#x)", name, lo, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

func checkDotPairs(t *testing.T, rng *rand.Rand, name string, k, m int, special bool) {
	t.Helper()
	v := &Dense{rows: k, cols: m, data: kernelValues(rng, k*m, special)}
	x := kernelValues(rng, m, special)
	e := kernelValues(rng, m, special)
	run := func(on bool) (num, den []float64) {
		withAVX2(on, func() {
			var d DotPairs
			d.Reset(v)
			num, den = fill(k+4, defaultNaN), fill(k+4, defaultNaN)
			d.Row(num[:k], den[:k], x, e)
		})
		return num, den
	}
	wantNum, wantDen := run(false)
	gotNum, gotDen := run(true)
	if i, ok := sameBits(gotNum, wantNum); !ok {
		t.Fatalf("DotPairs %s: num[%d] = %v, portable %v", name, i, gotNum[i], wantNum[i])
	}
	if i, ok := sameBits(gotDen, wantDen); !ok {
		t.Fatalf("DotPairs %s: den[%d] = %v, portable %v", name, i, gotDen[i], wantDen[i])
	}
}

func checkAccumPairs(t *testing.T, rng *rand.Rand, name string, k, c int, special bool) {
	t.Helper()
	u := kernelCoefficients(rng, k, special)
	x := kernelValues(rng, c, special)
	e := kernelValues(rng, c, special)
	// Start from sums holding −0 and specials too, plus a guard the kernel
	// must not write.
	num0 := kernelValues(rng, c*k+4, true)
	den0 := kernelValues(rng, c*k+4, true)
	run := func(on bool) (num, den []float64) {
		num, den = append([]float64(nil), num0...), append([]float64(nil), den0...)
		withAVX2(on, func() { AccumPairs(num[:c*k], den[:c*k], u, x, e) })
		return num, den
	}
	wantNum, wantDen := run(false)
	gotNum, gotDen := run(true)
	if i, ok := sameBits(gotNum, wantNum); !ok {
		t.Fatalf("AccumPairs %s: num[%d] = %v, portable %v", name, i, gotNum[i], wantNum[i])
	}
	if i, ok := sameBits(gotDen, wantDen); !ok {
		t.Fatalf("AccumPairs %s: den[%d] = %v, portable %v", name, i, gotDen[i], wantDen[i])
	}
}

func fill(n int, x float64) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = x
	}
	return s
}

// BenchmarkRowKernels times each row kernel in both bodies at K = 10 over
// 1,000 rows, reporting ns per row, at the row lengths of the Vehicle fit's
// V pass (5 columns), its U and objective passes (7) and a wider table (50).
func BenchmarkRowKernels(b *testing.B) {
	const k, rows = 10, 1000
	rng := rand.New(rand.NewSource(3))
	for _, body := range []struct {
		name string
		on   bool
	}{{"portable", false}, {"avx2", true}} {
		for _, c := range []int{5, 7, 50} {
			u := RandomUniform(rng, rows, k, 1e-3, 1).Data()
			x := RandomUniform(rng, rows, c, 0, 1).Data()
			e := RandomUniform(rng, rows, c, 0, 1).Data()
			v := RandomUniform(rng, k, c, 1e-3, 1)
			p := make([]float64, c)
			num, den := make([]float64, c*k), make([]float64, c*k)
			var d DotPairs
			d.Reset(v)
			kernels := []struct {
				name string
				row  func(i int)
			}{
				{"RowMul", func(i int) { RowMul(p, u[i*k:i*k+k], v.Data(), c, 0) }},
				{"DotPairs", func(i int) { d.Row(num[:k], den[:k], x[i*c:i*c+c], e[i*c:i*c+c]) }},
				{"AccumPairs", func(i int) { AccumPairs(num, den, u[i*k:i*k+k], x[i*c:i*c+c], e[i*c:i*c+c]) }},
			}
			for _, kn := range kernels {
				b.Run(fmt.Sprintf("%s/%s/len=%d", kn.name, body.name, c), func(b *testing.B) {
					if body.on && !useAVX2 {
						b.Skip("this CPU or OS offers no AVX2")
					}
					withAVX2(body.on, func() {
						b.ResetTimer()
						for n := 0; n < b.N; n++ {
							for i := 0; i < rows; i++ {
								kn.row(i)
							}
						}
						b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows), "ns/row")
					})
				})
			}
		}
	}
}
