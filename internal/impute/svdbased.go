package impute

import (
	"math"

	"github.com/spatialmf/smfl/internal/linalg"
	"github.com/spatialmf/smfl/internal/mat"
)

// MC is nuclear-norm matrix completion [10], solved by singular-value
// thresholding (SVT) — the standard first-order method for the convex
// program of Candès & Recht: at most mcMaxIter steps of size 1.2·N·M/|Ω|
// with shrinkage threshold 5·sqrt(N·M)·meanScale.
type MC struct{}

// mcMaxIter caps MC's SVT iterations.
const mcMaxIter = 100

// Name implements Imputer.
func (m *MC) Name() string { return "MC" }

// Impute implements Imputer.
func (m *MC) Impute(x *mat.Dense, omega *mat.Mask, _ int) (*mat.Dense, error) {
	if err := checkInput(x, omega); err != nil {
		return nil, err
	}
	n, mm := x.Dims()
	rx := omega.Project(nil, x)
	normRX := mat.FrobNorm(rx)
	if normRX == 0 { //lint:ignore floatcmp exact-zero matrix guard
		return x.Clone(), nil
	}
	tau := 5 * math.Sqrt(float64(n*mm)) * mat.Sum(rx) / float64(max(1, omega.Count()))
	delta := 1.2 * float64(n*mm) / float64(max(1, omega.Count()))
	y := mat.NewDense(n, mm)
	var z *mat.Dense
	for it := 0; it < mcMaxIter; it++ {
		svd, err := linalg.ComputeSVD(y)
		if err != nil {
			return nil, err
		}
		z = svd.SoftThresholdReconstruct(tau)
		// Residual on observed entries.
		res := omega.Project(nil, mat.Sub(nil, x, z))
		if mat.FrobNorm(res)/normRX < stopTol {
			break
		}
		mat.AddScaled(y, y, delta, res)
	}
	return omega.Recover(x, z), nil
}

// SoftImpute is iterative soft-thresholded SVD [35]: repeatedly replace the
// hidden entries with the current low-rank estimate and shrink by
// 0.1·σ₁(R_Ω(X)), for at most softImputeMaxIter iterations.
type SoftImpute struct{}

// softImputeMaxIter caps SoftImpute's iterations.
const softImputeMaxIter = 50

// Name implements Imputer.
func (s *SoftImpute) Name() string { return "SoftImpute" }

// Impute implements Imputer.
func (s *SoftImpute) Impute(x *mat.Dense, omega *mat.Mask, _ int) (*mat.Dense, error) {
	if err := checkInput(x, omega); err != nil {
		return nil, err
	}
	rx := omega.Project(nil, x)
	svd0, err := linalg.ComputeSVD(rx)
	if err != nil {
		return nil, err
	}
	lambda := 0.1
	if len(svd0.S) > 0 {
		lambda = 0.1 * svd0.S[0]
	}
	n, mm := x.Dims()
	z := mat.NewDense(n, mm)
	filled := mat.NewDense(n, mm)
	for it := 0; it < softImputeMaxIter; it++ {
		// filled = R_Ω(X) + R_Ψ(Z)
		copyRecover(filled, x, z, omega)
		svd, err := linalg.ComputeSVD(filled)
		if err != nil {
			return nil, err
		}
		zNew := svd.SoftThresholdReconstruct(lambda)
		diff := mat.FrobNorm(mat.Sub(nil, zNew, z))
		denom := math.Max(mat.FrobNorm(z), 1e-12)
		z = zNew
		if diff/denom < stopTol {
			break
		}
	}
	return omega.Recover(x, z), nil
}

// copyRecover stores R_Ω(x) + R_Ψ(z) into dst without allocating.
func copyRecover(dst, x, z *mat.Dense, omega *mat.Mask) {
	n, m := x.Dims()
	for i := 0; i < n; i++ {
		di, xi, zi := dst.Row(i), x.Row(i), z.Row(i)
		for j := 0; j < m; j++ {
			if omega.Observed(i, j) {
				di[j] = xi[j]
			} else {
				di[j] = zi[j]
			}
		}
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
