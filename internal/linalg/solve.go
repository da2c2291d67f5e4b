package linalg

import (
	"errors"
	"math"

	"github.com/spatialmf/smfl/internal/mat"
)

// ErrSingular is returned when a factorization meets a non-positive pivot.
var ErrSingular = errors.New("linalg: matrix is singular or not positive definite")

// Cholesky computes the lower-triangular factor L with A = L Lᵀ for a
// symmetric positive-definite matrix.
func Cholesky(a *mat.Dense) (*mat.Dense, error) {
	n, c := a.Dims()
	if n != c {
		return nil, errors.New("linalg: Cholesky needs a square matrix")
	}
	l := mat.NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			s := a.At(i, j)
			for k := 0; k < j; k++ {
				s -= l.At(i, k) * l.At(j, k)
			}
			if i == j {
				if s <= 0 {
					return nil, ErrSingular
				}
				l.Set(i, i, math.Sqrt(s))
			} else {
				l.Set(i, j, s/l.At(j, j))
			}
		}
	}
	return l, nil
}

// CholeskySolve solves A x = b given the Cholesky factor L of A.
func CholeskySolve(l *mat.Dense, b []float64) []float64 {
	n, _ := l.Dims()
	// Forward substitution L y = b.
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		s := b[i]
		for k := 0; k < i; k++ {
			s -= l.At(i, k) * y[k]
		}
		y[i] = s / l.At(i, i)
	}
	// Back substitution Lᵀ x = y.
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for k := i + 1; k < n; k++ {
			s -= l.At(k, i) * x[k]
		}
		x[i] = s / l.At(i, i)
	}
	return x
}

// Ridge solves the regularized least-squares problem
// min_x ‖A x − b‖² + alpha ‖x‖² via the normal equations
// (AᵀA + alpha I) x = Aᵀ b. alpha must be > 0 for a guaranteed SPD system;
// alpha == 0 falls back to a tiny jitter when the Gram matrix is singular.
func Ridge(a *mat.Dense, b []float64, alpha float64) ([]float64, error) {
	m, n := a.Dims()
	if len(b) != m {
		return nil, errors.New("linalg: Ridge rhs length mismatch")
	}
	gram := mat.MulAT(nil, a, a)
	for i := 0; i < n; i++ {
		gram.Set(i, i, gram.At(i, i)+alpha)
	}
	atb := make([]float64, n)
	for i := 0; i < m; i++ {
		bi := b[i]
		if bi == 0 { //lint:ignore floatcmp exact-zero sparsity skip
			continue
		}
		ai := a.Row(i)
		for j := 0; j < n; j++ {
			atb[j] += ai[j] * bi
		}
	}
	l, err := Cholesky(gram)
	if err != nil {
		// Singular Gram matrix: retry with a jitter proportional to the trace.
		jitter := 1e-10 * (1 + mat.Trace(gram)/float64(n))
		for i := 0; i < n; i++ {
			gram.Set(i, i, gram.At(i, i)+jitter)
		}
		if l, err = Cholesky(gram); err != nil {
			return nil, err
		}
	}
	return CholeskySolve(l, atb), nil
}
