package mat

import "math"

// Add stores a+b into dst (allocated if nil) and returns dst.
func Add(dst, a, b *Dense) *Dense {
	dst = prep(dst, a, b, "Add")
	for i, v := range a.data {
		dst.data[i] = v + b.data[i]
	}
	return dst
}

// Sub stores a-b into dst (allocated if nil) and returns dst.
func Sub(dst, a, b *Dense) *Dense {
	dst = prep(dst, a, b, "Sub")
	for i, v := range a.data {
		dst.data[i] = v - b.data[i]
	}
	return dst
}

// Hadamard stores the element-wise product a⊙b into dst and returns dst.
func Hadamard(dst, a, b *Dense) *Dense {
	dst = prep(dst, a, b, "Hadamard")
	ad, bd, dd := a.data, b.data, dst.data
	ParallelRange(len(ad), len(ad), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			dd[i] = ad[i] * bd[i]
		}
	})
	return dst
}

// Scale stores s*a into dst and returns dst.
func Scale(dst *Dense, s float64, a *Dense) *Dense {
	dst = prep(dst, a, a, "Scale")
	for i, v := range a.data {
		dst.data[i] = s * v
	}
	return dst
}

// AddScaled stores a + s*b into dst and returns dst.
func AddScaled(dst, a *Dense, s float64, b *Dense) *Dense {
	dst = prep(dst, a, b, "AddScaled")
	ad, bd, dd := a.data, b.data, dst.data
	ParallelRange(len(ad), len(ad), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			dd[i] = ad[i] + s*bd[i]
		}
	})
	return dst
}

// Apply stores f(a_ij) into dst element-wise and returns dst.
func Apply(dst *Dense, f func(float64) float64, a *Dense) *Dense {
	dst = prep(dst, a, a, "Apply")
	for i, v := range a.data {
		dst.data[i] = f(v)
	}
	return dst
}

// ClampMin replaces every element of m below lo with lo, in place.
func (m *Dense) ClampMin(lo float64) {
	for i, v := range m.data {
		if v < lo {
			m.data[i] = lo
		}
	}
}

// FrobNorm returns the Frobenius norm ‖m‖_F.
func FrobNorm(m *Dense) float64 {
	var s float64
	for _, v := range m.data {
		s += v * v
	}
	return math.Sqrt(s)
}

// FrobNorm2 returns the squared Frobenius norm ‖m‖²_F.
func FrobNorm2(m *Dense) float64 {
	var s float64
	for _, v := range m.data {
		s += v * v
	}
	return s
}

// MaxAbsDiff returns max_ij |a_ij - b_ij|.
func MaxAbsDiff(a, b *Dense) float64 {
	if a.rows != b.rows || a.cols != b.cols {
		panic(dimErr("MaxAbsDiff", a, b))
	}
	var m float64
	for i, v := range a.data {
		if d := math.Abs(v - b.data[i]); d > m {
			m = d
		}
	}
	return m
}

// Sum returns the sum of all elements.
func Sum(m *Dense) float64 {
	var s float64
	for _, v := range m.data {
		s += v
	}
	return s
}

// Min returns the smallest element; NaN for an empty matrix.
func Min(m *Dense) float64 {
	if len(m.data) == 0 {
		return math.NaN()
	}
	lo := m.data[0]
	for _, v := range m.data[1:] {
		if v < lo {
			lo = v
		}
	}
	return lo
}

// Max returns the largest element; NaN for an empty matrix.
func Max(m *Dense) float64 {
	if len(m.data) == 0 {
		return math.NaN()
	}
	hi := m.data[0]
	for _, v := range m.data[1:] {
		if v > hi {
			hi = v
		}
	}
	return hi
}

// Trace returns the sum of diagonal elements of a square matrix.
func Trace(m *Dense) float64 {
	if m.rows != m.cols {
		panic(dimErr("Trace", m, m))
	}
	var s float64
	for i := 0; i < m.rows; i++ {
		s += m.data[i*m.cols+i]
	}
	return s
}

// EqualApprox reports whether a and b have the same shape and every pair of
// elements differs by at most tol.
func EqualApprox(a, b *Dense, tol float64) bool {
	if a.rows != b.rows || a.cols != b.cols {
		return false
	}
	for i, v := range a.data {
		if math.Abs(v-b.data[i]) > tol {
			return false
		}
	}
	return true
}

// prep validates that a and b share a shape and returns dst, allocating it
// with that shape when nil.
func prep(dst, a, b *Dense, op string) *Dense {
	if a.rows != b.rows || a.cols != b.cols {
		panic(dimErr(op, a, b))
	}
	if dst == nil {
		return NewDense(a.rows, a.cols)
	}
	if dst.rows != a.rows || dst.cols != a.cols {
		panic(dimErr(op+" dst", dst, a))
	}
	return dst
}
