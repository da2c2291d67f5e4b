package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"

	"github.com/spatialmf/smfl/internal/faultinject"
	"github.com/spatialmf/smfl/internal/mat"
)

// FoldIn computes coefficient rows for out-of-sample tuples against the
// fitted feature matrix V, without refitting the whole model — the streaming
// complement to Fit for deployments where new sensor rows arrive after
// training. Each new row's u is obtained by the masked multiplicative rule
// with V held fixed:
//
//	u ← u ⊙ (R_Ω(x)Vᵀ) ⊘ (R_Ω(uV)Vᵀ)
//
// which is Formula 13 restricted to the reconstruction term (a new row has
// no edges in the training graph, so the Laplacian terms vanish).
// rows is R×M in the same normalized units as the training matrix; omega
// marks its observed entries (nil = fully observed); every row needs at
// least one observed cell. It returns the R×K coefficient block after iters
// updates of every row (100 when iters is 0; a negative count is refused, as
// Fit refuses a negative MaxIter). Config.Ctx, when set, cancels
// the batch at an iteration boundary, returning the coefficients computed
// so far with an error wrapping ErrInterrupted.
//
// FoldIn only reads the receiver (V, Config) and allocates all scratch
// locally, so concurrent calls against one Model are safe — audited together
// with internal/mat, whose operations share no package-level mutable state
// and only fan goroutines out over disjoint destination rows. The serving
// layer's micro-batcher (internal/serve) depends on this.
func (m *Model) FoldIn(rows *mat.Dense, omega *mat.Mask, iters int) (*mat.Dense, error) {
	r, cols := rows.Dims()
	_, vm := m.V.Dims()
	if cols != vm {
		return nil, fmt.Errorf("core: FoldIn rows have %d columns, model has %d", cols, vm)
	}
	if r == 0 {
		return nil, errors.New("core: FoldIn needs at least one row")
	}
	if err := negativeIters(iters); err != nil {
		return nil, err
	}
	if omega == nil {
		omega = mat.FullMask(r, cols)
	}
	if or, oc := omega.Dims(); or != r || oc != cols {
		return nil, errors.New("core: FoldIn mask shape mismatch")
	}
	// A row with nothing observed has no data to fit: its coefficients would
	// go to zero, answering every column's training minimum as an imputation.
	ptr, obs := omega.RowIndex()
	for i := 0; i < r; i++ {
		if ptr[i] == ptr[i+1] {
			return nil, fmt.Errorf("core: FoldIn row %d has no observed cell", i)
		}
	}
	rx := omega.Project(nil, rows)
	if !rx.IsFinite() || mat.Min(rx) < 0 {
		return nil, errors.New("core: FoldIn rows must be finite and nonnegative over Ω")
	}
	if iters == 0 {
		iters = 100
	}
	k := m.Config.K
	rng := rand.New(rand.NewSource(m.Config.Seed + 1))
	u := mat.RandomUniform(rng, r, k, 1e-3, 1)
	// Landmark warm start: rows whose SI cells are all observed start from
	// a Shepard blend of their nearest landmarks' trained coefficients
	// instead of noise. The blend is deterministic and per-row, so
	// single-row and batched fold-ins still agree; rows the placer refuses
	// (hidden SI, or SI too far from every landmark) keep the random
	// initialization.
	if m.Placer != nil {
		for i := 0; i < r; i++ {
			m.Placer.WarmStart(u.Row(i), rows, omega, i)
		}
	}
	// Each row's trajectory is independent of the rest of the batch: the
	// update touches only u_i, so a single-row FoldIn reproduces row i of a
	// batched call exactly. The masked update is fused: only observed dot
	// products against Vᵀ are evaluated, never the dense u·V product.
	vt := m.V.T() // cols×k: contiguous rows for the per-entry dot products
	vtd := vt.Data()
	for it := 0; it < iters; it++ {
		if ctx := m.Config.Ctx; ctx != nil {
			if err := ctx.Err(); err != nil {
				return u, fmt.Errorf("%w after %d fold-in iterations: %w", ErrInterrupted, it, err)
			}
		}
		if faultinject.Enabled() {
			if err := faultinject.Fire(faultinject.FoldInIter, &FoldInFault{Iter: it, U: u}); err != nil {
				return u, fmt.Errorf("core: fold-in iteration %d: %w", it, err)
			}
		}
		mat.ParallelRange(r, 3*r*cols*k, func(lo, hi int) {
			num := make([]float64, k)
			den := make([]float64, k)
			for i := lo; i < hi; i++ {
				ui := u.Row(i)
				xi := rx.Row(i)
				for t := 0; t < k; t++ {
					num[t], den[t] = 0, 0
				}
				for _, j := range obs[ptr[i]:ptr[i+1]] {
					vtj := vtd[int(j)*k : int(j)*k+k]
					// Open-coded dot (same accumulation order as mat.DotVec,
					// which the compiler does not inline): p = (uV)_ij.
					var p0, p1, p2, p3 float64
					t := 0
					for ; t+4 <= k; t += 4 {
						p0 += ui[t] * vtj[t]
						p1 += ui[t+1] * vtj[t+1]
						p2 += ui[t+2] * vtj[t+2]
						p3 += ui[t+3] * vtj[t+3]
					}
					p := (p0 + p2) + (p1 + p3)
					for ; t < k; t++ {
						p += ui[t] * vtj[t]
					}
					xv := xi[j]
					for t, vv := range vtj {
						num[t] += xv * vv
						den[t] += p * vv
					}
				}
				for t, uval := range ui {
					ui[t] = uval * num[t] / (den[t] + eps)
				}
			}
		})
	}
	return u, nil
}

// FoldInCtx is FoldIn under an explicit context: ctx, when non-nil,
// overrides Config.Ctx for this call only, cancelling the batch at an
// iteration boundary with an error wrapping ErrInterrupted. The receiver is
// not mutated (the override rides a shallow copy), so concurrent FoldInCtx
// calls against one shared Model — the serving tier's per-batch deadlines —
// remain safe.
func (m *Model) FoldInCtx(ctx context.Context, rows *mat.Dense, omega *mat.Mask, iters int) (*mat.Dense, error) {
	if ctx == nil {
		return m.FoldIn(rows, omega, iters)
	}
	mc := *m
	mc.Config.Ctx = ctx
	return mc.FoldIn(rows, omega, iters)
}

// CompleteRows imputes out-of-sample rows with the fitted model: hidden
// cells take the fold-in reconstruction, observed cells are kept.
func (m *Model) CompleteRows(rows *mat.Dense, omega *mat.Mask, iters int) (*mat.Dense, error) {
	r, cols := rows.Dims()
	if omega == nil {
		omega = mat.FullMask(r, cols)
	}
	u, err := m.FoldIn(rows, omega, iters)
	if err != nil {
		return nil, err
	}
	return omega.RecoverInto(mat.Mul(nil, u, m.V), rows), nil
}
