package serve

import (
	"github.com/spatialmf/smfl/internal/core"
	"github.com/spatialmf/smfl/internal/landmark"
	"github.com/spatialmf/smfl/internal/mat"
)

// Fallback mode names accepted by Config.DegradedFallback.
const (
	// FallbackAuto answers degraded requests from the landmark placer's
	// Shepard warm start when the model carries one and the row's SI cells
	// are observed, column means otherwise.
	FallbackAuto = "auto"
	// FallbackMeans always answers from column means.
	FallbackMeans = "means"
	// FallbackOff disables degraded serving: while the breaker is open,
	// impute requests get 503s instead of fallback answers.
	FallbackOff = "off"
)

// fallback is the O(rows·K·M) degraded-mode answer path for one model
// version: no admission, no coalescing, no iterative fold-in. Hidden cells
// take either the column means of the training reconstruction (mean U row
// times V, normalized units; the Norm midpoint 0.5 when the model carries no
// U) or, when the model has a landmark placer and the row's SI cells are all
// observed, the prediction from the placer's Shepard warm-start coefficients.
// It is immutable and safe for concurrent use.
type fallback struct {
	v        *mat.Dense // K×M feature matrix (shared with the model, immutable)
	colMeans []float64  // length M, normalized units
	placer   *landmark.Placer
	k        int
}

// newFallback precomputes the degraded-mode state for model. Cost is one
// O(N·K + K·M) pass at registration time.
func newFallback(m *core.Model) *fallback {
	k, cols := m.V.Dims()
	f := &fallback{v: m.V, colMeans: make([]float64, cols), placer: m.Placer, k: k}
	if m.U != nil && m.U.Rows() > 0 {
		n, _ := m.U.Dims()
		mu := make([]float64, k)
		for i := 0; i < n; i++ {
			row := m.U.Row(i)
			for t, v := range row {
				mu[t] += v
			}
		}
		for t := range mu {
			mu[t] /= float64(n)
		}
		for j := 0; j < cols; j++ {
			var s float64
			for t := 0; t < k; t++ {
				s += mu[t] * m.V.At(t, j)
			}
			f.colMeans[j] = s
		}
	} else {
		// No coefficient matrix to average: the midpoint of the normalized
		// [0,1] range, which Norm.Invert maps to (min+max)/2 per column.
		for j := range f.colMeans {
			f.colMeans[j] = 0.5
		}
	}
	return f
}

// complete fills the hidden cells of rows (normalized units) in place on a
// fresh copy and reports how it answered: "placer" if every row with hidden
// cells was warm-start predicted, "means" otherwise. usePlacer=false forces
// column means (Config.DegradedFallback == "means").
func (f *fallback) complete(rows *mat.Dense, mask *mat.Mask, usePlacer bool) (*mat.Dense, string) {
	r, cols := rows.Dims()
	out := rows.Clone()
	source := "placer"
	u := make([]float64, f.k)
	for i := 0; i < r; i++ {
		if usePlacer && f.placer != nil && f.placer.WarmStart(u, rows, mask, i) {
			for j := 0; j < cols; j++ {
				if mask.Observed(i, j) {
					continue
				}
				var p float64
				for t := 0; t < f.k; t++ {
					p += u[t] * f.v.At(t, j)
				}
				out.Set(i, j, p)
			}
		} else {
			source = "means"
			for j := 0; j < cols; j++ {
				if !mask.Observed(i, j) {
					out.Set(i, j, f.colMeans[j])
				}
			}
		}
	}
	return out, source
}
