// Package linalg implements the numerical linear algebra needed by the
// baselines of the SMFL reproduction: a one-sided Jacobi SVD (behind MC,
// SoftImpute and the PCA of the clustering baselines) and a Cholesky-based
// ridge solver (behind the regression and repair baselines). Everything is
// written against internal/mat and the standard library only.
package linalg

import (
	"errors"
	"math"
	"sort"

	"github.com/spatialmf/smfl/internal/mat"
)

// SVD holds a thin singular value decomposition A = U Σ Vᵀ with U m×r,
// Σ = diag(S) r×r, V n×r, where r = min(m, n).
type SVD struct {
	U *mat.Dense
	S []float64
	V *mat.Dense
}

// ErrNotFinite is returned when an input matrix contains NaN or Inf.
var ErrNotFinite = errors.New("linalg: input matrix contains NaN or Inf")

// ComputeSVD computes a thin SVD of a using the one-sided Jacobi method.
// Singular values are returned in descending order. The method is slower
// than LAPACK-grade bidiagonalization but is simple, accurate, and entirely
// dependency-free, which suits the modest ranks used by SoftImpute/MC.
func ComputeSVD(a *mat.Dense) (*SVD, error) {
	if !a.IsFinite() {
		return nil, ErrNotFinite
	}
	m, n := a.Dims()
	if m == 0 || n == 0 {
		return &SVD{U: mat.NewDense(m, 0), S: nil, V: mat.NewDense(n, 0)}, nil
	}
	if m < n {
		// SVD(Aᵀ) = V Σ Uᵀ; swap factors back.
		st, err := ComputeSVD(a.T())
		if err != nil {
			return nil, err
		}
		return &SVD{U: st.V, S: st.S, V: st.U}, nil
	}

	// Work on a copy W = A; rotate columns until pairwise orthogonal:
	// W = U Σ, accumulated rotations give V.
	w := a.Clone()
	v := mat.Identity(n)
	const (
		maxSweeps = 60
		tol       = 1e-12
	)
	scale := mat.FrobNorm(a)
	if scale == 0 { //lint:ignore floatcmp exact-zero norm guard before division
		scale = 1
	}
	for sweep := 0; sweep < maxSweeps; sweep++ {
		off := 0.0
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				var alpha, beta, gamma float64
				for i := 0; i < m; i++ {
					wp := w.At(i, p)
					wq := w.At(i, q)
					alpha += wp * wp
					beta += wq * wq
					gamma += wp * wq
				}
				if math.Abs(gamma) <= tol*scale*scale {
					continue
				}
				off += math.Abs(gamma)
				// Jacobi rotation zeroing the (p,q) inner product.
				zeta := (beta - alpha) / (2 * gamma)
				t := sign(zeta) / (math.Abs(zeta) + math.Sqrt(1+zeta*zeta))
				c := 1 / math.Sqrt(1+t*t)
				s := c * t
				for i := 0; i < m; i++ {
					wp := w.At(i, p)
					wq := w.At(i, q)
					w.Set(i, p, c*wp-s*wq)
					w.Set(i, q, s*wp+c*wq)
				}
				for i := 0; i < n; i++ {
					vp := v.At(i, p)
					vq := v.At(i, q)
					v.Set(i, p, c*vp-s*vq)
					v.Set(i, q, s*vp+c*vq)
				}
			}
		}
		if off < tol*scale*scale {
			break
		}
	}

	// Column norms of W are the singular values.
	type sv struct {
		val float64
		idx int
	}
	svs := make([]sv, n)
	for j := 0; j < n; j++ {
		var norm float64
		for i := 0; i < m; i++ {
			norm += w.At(i, j) * w.At(i, j)
		}
		svs[j] = sv{math.Sqrt(norm), j}
	}
	sort.Slice(svs, func(i, j int) bool { return svs[i].val > svs[j].val })

	u := mat.NewDense(m, n)
	vOut := mat.NewDense(n, n)
	s := make([]float64, n)
	for k, e := range svs {
		s[k] = e.val
		if e.val > 0 {
			inv := 1 / e.val
			for i := 0; i < m; i++ {
				u.Set(i, k, w.At(i, e.idx)*inv)
			}
		}
		for i := 0; i < n; i++ {
			vOut.Set(i, k, v.At(i, e.idx))
		}
	}
	return &SVD{U: u, S: s, V: vOut}, nil
}

// Reconstruct returns U Σ Vᵀ, optionally truncated to the top rank singular
// values (rank <= 0 means full).
func (d *SVD) Reconstruct(rank int) *mat.Dense {
	r := len(d.S)
	if rank > 0 && rank < r {
		r = rank
	}
	m, _ := d.U.Dims()
	n, _ := d.V.Dims()
	out := mat.NewDense(m, n)
	for k := 0; k < r; k++ {
		sk := d.S[k]
		if sk == 0 { //lint:ignore floatcmp exact-zero sparsity skip
			continue
		}
		for i := 0; i < m; i++ {
			uik := d.U.At(i, k) * sk
			if uik == 0 { //lint:ignore floatcmp exact-zero sparsity skip
				continue
			}
			oi := out.Row(i)
			for j := 0; j < n; j++ {
				oi[j] += uik * d.V.At(j, k)
			}
		}
	}
	return out
}

// SoftThresholdReconstruct returns U shrink(Σ, tau) Vᵀ where
// shrink(σ) = max(σ−tau, 0) — the proximal operator of the nuclear norm,
// the core step of SoftImpute and SVT.
func (d *SVD) SoftThresholdReconstruct(tau float64) *mat.Dense {
	shr := &SVD{U: d.U, V: d.V, S: make([]float64, len(d.S))}
	for i, s := range d.S {
		if s > tau {
			shr.S[i] = s - tau
		}
	}
	return shr.Reconstruct(0)
}

// PCA projects the rows of x onto its top-k principal components.
// Returns the n×k score matrix. Columns of x are centered first.
func PCA(x *mat.Dense, k int) (*mat.Dense, error) {
	n, m := x.Dims()
	if k <= 0 || k > m {
		return nil, errors.New("linalg: PCA component count out of range")
	}
	centered := x.Clone()
	for j := 0; j < m; j++ {
		var mean float64
		for i := 0; i < n; i++ {
			mean += centered.At(i, j)
		}
		mean /= float64(n)
		for i := 0; i < n; i++ {
			centered.Set(i, j, centered.At(i, j)-mean)
		}
	}
	svd, err := ComputeSVD(centered)
	if err != nil {
		return nil, err
	}
	scores := mat.NewDense(n, k)
	for i := 0; i < n; i++ {
		for j := 0; j < k; j++ {
			scores.Set(i, j, svd.U.At(i, j)*svd.S[j])
		}
	}
	return scores, nil
}

func sign(x float64) float64 {
	if x < 0 {
		return -1
	}
	return 1
}
