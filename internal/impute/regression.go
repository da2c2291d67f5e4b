package impute

import (
	"sort"

	"github.com/spatialmf/smfl/internal/linalg"
	"github.com/spatialmf/smfl/internal/mat"
)

// Settings shared by the baseline imputers.
const (
	ridgeAlpha = 1e-3 // ridge strength of every regression model
	// stopTol stops the iterative imputers: the largest change of a sweep
	// (ERACER, Iterative), or the relative residual (MC) or relative change
	// (SoftImpute) of an iteration.
	stopTol = 1e-4
)

// LOESS is local regression imputation [13]: for each incomplete tuple, a
// ridge-regularized linear model of the missing attribute on the tuple's
// observed attributes is fitted over its loessK nearest neighbors.
type LOESS struct{}

// loessK is LOESS's neighborhood size.
const loessK = 20

// Name implements Imputer.
func (l *LOESS) Name() string { return "LOESS" }

// Impute implements Imputer.
func (l *LOESS) Impute(x *mat.Dense, omega *mat.Mask, _ int) (*mat.Dense, error) {
	if err := checkInput(x, omega); err != nil {
		return nil, err
	}
	return regressionImpute(x, omega, func(i, j int, dets []int) (float64, bool) {
		return localFit(x, omega, i, j, dets, loessK)
	})
}

// IIM learns an individual model per tuple [47]: the neighborhood size ℓ is
// selected per tuple from {5, 10, 20} by holdout validation on extra
// neighbors, then a local model is fitted as in LOESS. Its per-tuple model
// search makes it the slowest baseline; iimMaxTuples mirrors the paper's
// OOT on the 100k-row Vehicle dataset.
type IIM struct{}

// iimMaxTuples is the largest input IIM accepts; above it IIM reports OOT.
const iimMaxTuples = 20000

// Name implements Imputer.
func (m *IIM) Name() string { return "IIM" }

// Impute implements Imputer.
func (m *IIM) Impute(x *mat.Dense, omega *mat.Mask, _ int) (*mat.Dense, error) {
	if err := checkInput(x, omega); err != nil {
		return nil, err
	}
	n, _ := x.Dims()
	if n > iimMaxTuples {
		return nil, &ResourceLimitError{Method: "IIM", Kind: "OOT", N: n, Limit: iimMaxTuples}
	}
	cands := [...]int{5, 10, 20} // ascending
	const holdout = 5
	return regressionImpute(x, omega, func(i, j int, dets []int) (float64, bool) {
		nbrs := usableNeighbors(x, omega, i, j, dets, cands[len(cands)-1]+holdout)
		if len(nbrs) < 3 {
			return 0, false
		}
		// Pick ℓ minimizing squared error on the held-out tail.
		bestL, bestErr := cands[0], 0.0
		first := true
		for _, l := range cands {
			if l >= len(nbrs) {
				continue
			}
			w, ok := fitRidgeOn(x, nbrs[:l], j, dets)
			if !ok {
				continue
			}
			var e float64
			var cnt int
			for _, r := range nbrs[l:] {
				pred := predictRow(x, r, w, dets)
				d := pred - x.At(r, j)
				e += d * d
				cnt++
			}
			if cnt == 0 {
				continue
			}
			e /= float64(cnt)
			if first || e < bestErr {
				bestL, bestErr, first = l, e, false
			}
		}
		if bestL >= len(nbrs) {
			bestL = len(nbrs)
		}
		w, ok := fitRidgeOn(x, nbrs[:bestL], j, dets)
		if !ok {
			return 0, false
		}
		return predictRow(x, i, w, dets), true
	})
}

// Iterative is MICE-style chained-equation imputation with a ridge base
// estimator — our stand-in for scikit-learn's IterativeImputer [4].
type Iterative struct{}

// iterativeSweeps caps Iterative's round-robin passes.
const iterativeSweeps = 10

// Name implements Imputer.
func (it *Iterative) Name() string { return "Iterative" }

// Impute implements Imputer.
func (it *Iterative) Impute(x *mat.Dense, omega *mat.Mask, _ int) (*mat.Dense, error) {
	if err := checkInput(x, omega); err != nil {
		return nil, err
	}
	cur, err := meanFilled(x, omega)
	if err != nil {
		return nil, err
	}
	n, m := x.Dims()
	for sweep := 0; sweep < iterativeSweeps; sweep++ {
		var maxChange float64
		for j := 0; j < m; j++ {
			if omega.ColObservedCount(j) == n {
				continue // nothing to impute in this column
			}
			// Design matrix: all other columns (current values), intercept.
			var trainRows []int
			for i := 0; i < n; i++ {
				if omega.Observed(i, j) {
					trainRows = append(trainRows, i)
				}
			}
			if len(trainRows) == 0 {
				continue
			}
			a := mat.NewDense(len(trainRows), m) // col j slot becomes intercept
			b := make([]float64, len(trainRows))
			for t, i := range trainRows {
				ar := a.Row(t)
				ci := cur.Row(i)
				for c := 0; c < m; c++ {
					if c == j {
						ar[c] = 1 // intercept
					} else {
						ar[c] = ci[c]
					}
				}
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
				var pred float64
				ci := cur.Row(i)
				for c := 0; c < m; c++ {
					if c == j {
						pred += w[c]
					} else {
						pred += w[c] * ci[c]
					}
				}
				if d := pred - cur.At(i, j); d > maxChange {
					maxChange = d
				} else if -d > maxChange {
					maxChange = -d
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

// regressionImpute drives the per-cell local-model loop shared by LOESS and
// IIM. fit(i, j, dets) predicts cell (i,j) from determinant columns dets
// (the observed columns of row i); ok=false falls back to the column mean.
func regressionImpute(x *mat.Dense, omega *mat.Mask, fit func(i, j int, dets []int) (float64, bool)) (*mat.Dense, error) {
	means, err := columnMeans(x, omega)
	if err != nil {
		return nil, err
	}
	out := x.Clone()
	n, m := x.Dims()
	for i := 0; i < n; i++ {
		miss := missingCells(omega, i, m)
		if len(miss) == 0 {
			continue
		}
		var dets []int
		for j := 0; j < m; j++ {
			if omega.Observed(i, j) {
				dets = append(dets, j)
			}
		}
		for _, j := range miss {
			if len(dets) == 0 {
				out.Set(i, j, means[j])
				continue
			}
			if v, ok := fit(i, j, dets); ok {
				out.Set(i, j, v)
			} else {
				out.Set(i, j, means[j])
			}
		}
	}
	return out, nil
}

// usableNeighbors lists up to k rows nearest to row i in which the target j
// and every determinant column are observed.
func usableNeighbors(x *mat.Dense, omega *mat.Mask, i, j int, dets []int, k int) []int {
	n, _ := x.Dims()
	type cand struct {
		d   float64
		idx int
	}
	var cands []cand
	for r := 0; r < n; r++ {
		if r == i || !omega.Observed(r, j) {
			continue
		}
		usable := true
		var dist float64
		for _, c := range dets {
			if !omega.Observed(r, c) {
				usable = false
				break
			}
			d := x.At(i, c) - x.At(r, c)
			dist += d * d
		}
		if !usable {
			continue
		}
		cands = append(cands, cand{dist, r})
	}
	sort.Slice(cands, func(a, b int) bool {
		if cands[a].d != cands[b].d { //lint:ignore floatcmp deterministic tie-break needs exact equality
			return cands[a].d < cands[b].d
		}
		return cands[a].idx < cands[b].idx
	})
	if k > len(cands) {
		k = len(cands)
	}
	out := make([]int, k)
	for t := 0; t < k; t++ {
		out[t] = cands[t].idx
	}
	return out
}

// localFit fits a ridge model of column j on dets over the k nearest usable
// neighbors of row i and predicts row i.
func localFit(x *mat.Dense, omega *mat.Mask, i, j int, dets []int, k int) (float64, bool) {
	nbrs := usableNeighbors(x, omega, i, j, dets, k)
	if len(nbrs) < 2 {
		return 0, false
	}
	w, ok := fitRidgeOn(x, nbrs, j, dets)
	if !ok {
		return 0, false
	}
	return predictRow(x, i, w, dets), true
}

// fitRidgeOn fits target column j on determinant columns dets (plus an
// intercept) over the given rows. Returns weights [dets..., intercept].
func fitRidgeOn(x *mat.Dense, rows []int, j int, dets []int) ([]float64, bool) {
	a := mat.NewDense(len(rows), len(dets)+1)
	b := make([]float64, len(rows))
	for t, r := range rows {
		ar := a.Row(t)
		for c, d := range dets {
			ar[c] = x.At(r, d)
		}
		ar[len(dets)] = 1
		b[t] = x.At(r, j)
	}
	w, err := linalg.Ridge(a, b, ridgeAlpha)
	if err != nil {
		return nil, false
	}
	return w, true
}

func predictRow(x *mat.Dense, i int, w []float64, dets []int) float64 {
	var pred float64
	for c, d := range dets {
		pred += w[c] * x.At(i, d)
	}
	pred += w[len(dets)]
	return pred
}
