// Package metrics implements the evaluation criteria of Section IV-A2.
package metrics

import (
	"errors"
	"math"

	"github.com/spatialmf/smfl/internal/mat"
)

// RMSOverHidden computes the paper's criterion
//
//	RMS = sqrt(‖R_Ψ(X* − X#)‖²_F / |Ψ|)
//
// where Ψ is the complement of omega: the error is measured only on the
// entries that were hidden (or dirty) and later filled in.
func RMSOverHidden(pred, truth *mat.Dense, omega *mat.Mask) (float64, error) {
	psi := omega.Complement()
	return RMSOverSet(pred, truth, psi)
}

// RMSOverSet computes the RMS error over the cells marked observed in set.
func RMSOverSet(pred, truth *mat.Dense, set *mat.Mask) (float64, error) {
	n := set.Count()
	if n == 0 {
		return 0, errors.New("metrics: empty evaluation set")
	}
	return math.Sqrt(set.MaskedFrob2(pred, truth) / float64(n)), nil
}
