package core

import (
	"errors"
	"fmt"

	"github.com/spatialmf/smfl/internal/mat"
)

// DataSource is what a fit needs from out-of-core storage: row-wise access
// to (X, Ω) through the mat.RowSource seam plus a stable content
// fingerprint for checkpoint binding. *store.Store implements it; core
// deliberately depends only on this interface, never on the store package.
type DataSource interface {
	mat.RowSource
	// ContentHash is a stable fingerprint of the stored data and mask.
	// Checkpoints written by FitSource embed it (via fitHash), so
	// ResumeFitSource refuses a source whose contents changed.
	ContentHash() uint64
}

// FitSource is Fit over an out-of-core DataSource instead of a resident
// (x, omega) pair. Only the stochastic updaters (SGD, SVRG) are supported:
// they are the ones whose kernels read rows through the RowSource seam; the
// full-sweep multiplicative and gradient-descent updaters need resident
// N×M intermediates and should fit from memory. Given identical data, a
// FitSource trajectory is Float64bits-identical to the Fit trajectory —
// same seed, same chunk partition, same arithmetic order.
//
// Input validation (finite, nonnegative observed entries) happened when the
// store was written and is re-verified shard-by-shard at store.Open, so the
// full data is never materialized here: transient memory is O(N) for the
// row pointer and SI block, plus the factors.
func FitSource(src DataSource, l int, method Method, cfg Config) (*Model, error) {
	n, m := src.Dims()
	if n == 0 || m == 0 {
		return nil, errors.New("core: empty input matrix")
	}
	cfg = cfg.withDefaults()
	if err := cfg.validate(n, m, l, method); err != nil {
		return nil, err
	}
	if !cfg.Updater.Stochastic() {
		return nil, fmt.Errorf("core: source-backed fits support the stochastic updaters only (sgd, svrg), got %s — fit from memory for %s", cfg.Updater, cfg.Updater)
	}
	return fit(&input{src: src}, l, method, cfg)
}

// ResumeFitSource continues a checkpointed FitSource run, with the same
// bit-identical-trajectory contract as ResumeFit: src must be the exact
// training source (verified against the checkpoint's source hash — a
// checkpoint written by a dense Fit is refused, and vice versa).
func ResumeFitSource(path string, src DataSource, opts *ResumeOptions) (*Model, error) {
	return resume(path, &input{src: src}, opts)
}
