package impute

import (
	"math"

	"github.com/spatialmf/smfl/internal/linalg"
	"github.com/spatialmf/smfl/internal/mat"
)

// ERACER is the relational-dependency imputer of Mayfield et al. [34]
// (Section V-B3 of the paper's related work): each attribute is modeled by a
// local linear dependency on the other attributes AND on the same attribute
// of the tuple's neighbors, and the models are applied iteratively until the
// imputed values stabilize — belief-propagation-style relaxation with linear
// conditionals.
type ERACER struct{}

const (
	eracerK      = 5 // neighbors contributing the relational term
	eracerSweeps = 8 // relaxation sweeps
)

// Name implements Imputer.
func (e *ERACER) Name() string { return "ERACER" }

// Impute implements Imputer.
func (e *ERACER) Impute(x *mat.Dense, omega *mat.Mask, _ int) (*mat.Dense, error) {
	if err := checkInput(x, omega); err != nil {
		return nil, err
	}
	n, m := x.Dims()

	// Precompute each row's k nearest neighbors once (shared observed
	// attributes), the relational structure of the model.
	nbrs := make([][]int, n)
	for i := 0; i < n; i++ {
		nbrs[i] = neighborsFor(x, omega, i, eracerK, -1)
	}

	cur, err := meanFilled(x, omega)
	if err != nil {
		return nil, err
	}
	// Feature vector for predicting column j of row i:
	// [other attributes of row i..., mean of column j over neighbors, 1].
	feature := func(i, j int, buf []float64) []float64 {
		buf = buf[:0]
		ci := cur.Row(i)
		for c := 0; c < m; c++ {
			if c != j {
				buf = append(buf, ci[c])
			}
		}
		var nm float64
		if len(nbrs[i]) > 0 {
			for _, r := range nbrs[i] {
				nm += cur.At(r, j)
			}
			nm /= float64(len(nbrs[i]))
		} else {
			nm = ci[j]
		}
		buf = append(buf, nm, 1)
		return buf
	}

	dim := m + 1 // (m-1 attributes) + neighbor mean + intercept
	buf := make([]float64, 0, dim)
	for sweep := 0; sweep < eracerSweeps; sweep++ {
		var maxChange float64
		for j := 0; j < m; j++ {
			if omega.ColObservedCount(j) == n {
				continue
			}
			var rows []int
			for i := 0; i < n; i++ {
				if omega.Observed(i, j) {
					rows = append(rows, i)
				}
			}
			if len(rows) < dim {
				continue
			}
			a := mat.NewDense(len(rows), dim)
			b := make([]float64, len(rows))
			for t, i := range rows {
				copy(a.Row(t), feature(i, j, buf))
				b[t] = cur.At(i, j)
			}
			w, err := linalg.Ridge(a, b, ridgeAlpha)
			if err != nil {
				continue
			}
			for i := 0; i < n; i++ {
				if omega.Observed(i, j) {
					continue
				}
				f := feature(i, j, buf)
				var pred float64
				for c, v := range f {
					pred += w[c] * v
				}
				if d := math.Abs(pred - cur.At(i, j)); d > maxChange {
					maxChange = d
				}
				cur.Set(i, j, pred)
			}
		}
		if maxChange < stopTol {
			break
		}
	}
	return omega.Recover(x, cur), nil
}
