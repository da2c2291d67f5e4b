package mat

// Mul stores a*b into dst (allocated if nil) and returns dst.
// dst must not alias a or b.
func Mul(dst, a, b *Dense) *Dense {
	if a.cols != b.rows {
		panic(dimErr("Mul", a, b))
	}
	dst = mulDst(dst, a.rows, b.cols)
	mulRange := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			rowMul(dst.data[i*dst.cols:(i+1)*dst.cols], a.data[i*a.cols:(i+1)*a.cols], b.data, b.cols, 0)
		}
	}
	parallelRows(a.rows, a.cols*b.cols, mulRange)
	return dst
}

// MulBT stores a*bᵀ into dst (allocated if nil) and returns dst, without
// materializing the transpose. dst must not alias a or b.
func MulBT(dst, a, b *Dense) *Dense {
	if a.cols != b.cols {
		panic(dimErr("MulBT", a, b))
	}
	dst = mulDst(dst, a.rows, b.rows)
	mulRange := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			ai := a.data[i*a.cols : (i+1)*a.cols]
			di := dst.data[i*dst.cols : (i+1)*dst.cols]
			for j := 0; j < b.rows; j++ {
				// Open-coded DotVec: the compiler does not inline it, and at
				// the small factor ranks used here the call overhead per dot
				// is comparable to the dot itself.
				bj := b.data[j*b.cols : (j+1)*b.cols]
				var s0, s1, s2, s3 float64
				k := 0
				for ; k+4 <= len(ai); k += 4 {
					s0 += ai[k] * bj[k]
					s1 += ai[k+1] * bj[k+1]
					s2 += ai[k+2] * bj[k+2]
					s3 += ai[k+3] * bj[k+3]
				}
				s := (s0 + s2) + (s1 + s3)
				for ; k < len(ai); k++ {
					s += ai[k] * bj[k]
				}
				di[j] = s
			}
		}
	}
	parallelRows(a.rows, a.cols*b.rows, mulRange)
	return dst
}

// MulAT stores aᵀ*b into dst (allocated if nil) and returns dst, without
// materializing the transpose. dst must not alias a or b.
func MulAT(dst, a, b *Dense) *Dense {
	if a.rows != b.rows {
		panic(dimErr("MulAT", a, b))
	}
	dst = mulDst(dst, a.cols, b.cols)
	// Accumulate row-by-row of a/b: dst += a_row ⊗ b_row. Each a row touches
	// the whole dst, so row-splitting would race; parallelize over dst rows
	// instead by partitioning columns of a.
	ParallelRange(a.cols, a.rows*a.cols*b.cols, func(lo, hi int) {
		for r := 0; r < a.rows; r++ {
			ar := a.data[r*a.cols : (r+1)*a.cols]
			br := b.data[r*b.cols : (r+1)*b.cols]
			for i := lo; i < hi; i++ {
				av := ar[i]
				if av == 0 {
					continue
				}
				AxpyVec(dst.data[i*dst.cols:(i+1)*dst.cols], av, br)
			}
		}
	})
	return dst
}

// MulVec computes m*x for a dense vector x, storing into dst (allocated if
// nil) and returning it.
func MulVec(dst []float64, m *Dense, x []float64) []float64 {
	if len(x) != m.cols {
		panic("mat: MulVec length mismatch")
	}
	if dst == nil {
		dst = make([]float64, m.rows)
	}
	if len(dst) != m.rows {
		panic("mat: MulVec dst length mismatch")
	}
	for i := 0; i < m.rows; i++ {
		dst[i] = DotVec(m.data[i*m.cols:(i+1)*m.cols], x)
	}
	return dst
}

// DotVec returns the dot product of equal-length slices a and b, accumulated
// in four independent partial sums so the multiply-adds pipeline.
func DotVec(a, b []float64) float64 {
	b = b[:len(a)]
	var s0, s1, s2, s3 float64
	k := 0
	for ; k+4 <= len(a); k += 4 {
		s0 += a[k] * b[k]
		s1 += a[k+1] * b[k+1]
		s2 += a[k+2] * b[k+2]
		s3 += a[k+3] * b[k+3]
	}
	s := (s0 + s2) + (s1 + s3)
	for ; k < len(a); k++ {
		s += a[k] * b[k]
	}
	return s
}

// AxpyVec computes dst += s*x element-wise, 4-wide unrolled. The slices must
// have equal length.
func AxpyVec(dst []float64, s float64, x []float64) {
	x = x[:len(dst)]
	k := 0
	for ; k+4 <= len(dst); k += 4 {
		dst[k] += s * x[k]
		dst[k+1] += s * x[k+1]
		dst[k+2] += s * x[k+2]
		dst[k+3] += s * x[k+3]
	}
	for ; k < len(dst); k++ {
		dst[k] += s * x[k]
	}
}

func mulDst(dst *Dense, r, c int) *Dense {
	if dst == nil {
		return NewDense(r, c)
	}
	if dst.rows != r || dst.cols != c {
		panic(dimErr("mul dst", dst, &Dense{rows: r, cols: c}))
	}
	dst.Zero()
	return dst
}
