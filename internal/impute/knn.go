package impute

import (
	"github.com/spatialmf/smfl/internal/mat"
)

// Mean fills hidden cells with the observed column mean — the floor any
// serious method must beat.
type Mean struct{}

// Name implements Imputer.
func (Mean) Name() string { return "Mean" }

// Impute implements Imputer.
func (Mean) Impute(x *mat.Dense, omega *mat.Mask, _ int) (*mat.Dense, error) {
	if err := checkInput(x, omega); err != nil {
		return nil, err
	}
	return meanFilled(x, omega)
}

// knnK is the neighbor count of KNN and of each KNNE member.
const knnK = 5

// KNN is the classical k-nearest-neighbor imputer [6]: each hidden cell is
// the average of that column over the knnK rows nearest in the shared
// observed attributes.
type KNN struct{}

// Name implements Imputer.
func (k *KNN) Name() string { return "kNN" }

// Impute implements Imputer.
func (k *KNN) Impute(x *mat.Dense, omega *mat.Mask, _ int) (*mat.Dense, error) {
	if err := checkInput(x, omega); err != nil {
		return nil, err
	}
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
		for _, j := range miss {
			nbrs := neighborsFor(x, omega, i, knnK, j)
			if len(nbrs) == 0 {
				out.Set(i, j, means[j])
				continue
			}
			var s float64
			for _, r := range nbrs {
				s += x.At(r, j)
			}
			out.Set(i, j, s/float64(len(nbrs)))
		}
	}
	return out, nil
}

// KNNE is the kNN-Ensemble of Domeniconi & Yan [16]: one kNN learner per
// single-attribute subset of the tuple's observed columns, combined by
// averaging. Using size-1 subsets keeps the ensemble count linear in M
// while preserving the method's defining diversity.
type KNNE struct{}

// Name implements Imputer.
func (k *KNNE) Name() string { return "kNNE" }

// Impute implements Imputer.
func (k *KNNE) Impute(x *mat.Dense, omega *mat.Mask, _ int) (*mat.Dense, error) {
	if err := checkInput(x, omega); err != nil {
		return nil, err
	}
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
		for _, j := range miss {
			var ensembleSum float64
			var members int
			for a := 0; a < m; a++ {
				if a == j || !omega.Observed(i, a) {
					continue
				}
				est, ok := knnOnAttribute(x, omega, i, j, a, knnK)
				if !ok {
					continue
				}
				ensembleSum += est
				members++
			}
			if members == 0 {
				out.Set(i, j, means[j])
				continue
			}
			out.Set(i, j, ensembleSum/float64(members))
		}
	}
	return out, nil
}

// knnOnAttribute finds the kk rows closest to row i on attribute a alone
// (both a and target j observed) and averages their j values.
func knnOnAttribute(x *mat.Dense, omega *mat.Mask, i, j, a, kk int) (float64, bool) {
	n, _ := x.Dims()
	type cand struct {
		d float64
		v float64
	}
	xa := x.At(i, a)
	var cands []cand
	for r := 0; r < n; r++ {
		if r == i || !omega.Observed(r, a) || !omega.Observed(r, j) {
			continue
		}
		d := x.At(r, a) - xa
		if d < 0 {
			d = -d
		}
		cands = append(cands, cand{d, x.At(r, j)})
	}
	if len(cands) == 0 {
		return 0, false
	}
	// Partial selection of the kk smallest; kk is tiny (≈5), n can be large.
	if kk > len(cands) {
		kk = len(cands)
	}
	for t := 0; t < kk; t++ {
		minIdx := t
		for r := t + 1; r < len(cands); r++ {
			if cands[r].d < cands[minIdx].d {
				minIdx = r
			}
		}
		cands[t], cands[minIdx] = cands[minIdx], cands[t]
	}
	var s float64
	for t := 0; t < kk; t++ {
		s += cands[t].v
	}
	return s / float64(kk), true
}
