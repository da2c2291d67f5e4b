package core

import (
	"errors"
	"fmt"
	"math/rand"

	"github.com/spatialmf/smfl/internal/landmark"
	"github.com/spatialmf/smfl/internal/mat"
	"github.com/spatialmf/smfl/internal/spatial"
)

// Fit factorizes x ≈ U·V under the given method. omega marks the observed
// entries Ω (nil means fully observed); l is the number of leading SI
// columns. The input must be nonnegative over Ω — normalize to [0,1] first
// (Section IV-A1).
//
// The SMFL pipeline follows Algorithm 1: build D and W from SI (filling
// missing SI cells with column means for graph purposes only, Section II-C),
// run K-means on SI for the landmark matrix C, inject C into V, then iterate
// the multiplicative rules until convergence.
func Fit(x *mat.Dense, omega *mat.Mask, l int, method Method, cfg Config) (*Model, error) {
	n, m := x.Dims()
	if n == 0 || m == 0 {
		return nil, errors.New("core: empty input matrix")
	}
	if omega == nil {
		omega = mat.FullMask(n, m)
	}
	if or, oc := omega.Dims(); or != n || oc != m {
		return nil, fmt.Errorf("core: mask shape %dx%d vs data %dx%d", or, oc, n, m)
	}
	cfg = cfg.withDefaults()
	if err := cfg.validate(n, m, l, method); err != nil {
		return nil, err
	}
	rx := omega.Project(nil, x)
	if !rx.IsFinite() {
		return nil, errors.New("core: observed entries contain NaN or Inf")
	}
	if mat.Min(rx) < 0 {
		return nil, errors.New("core: observed entries must be nonnegative (min-max normalize first)")
	}
	if w := cfg.Weights; w != nil {
		if wr, wc := w.Dims(); wr != n || wc != m {
			return nil, fmt.Errorf("core: weights shape %dx%d vs data %dx%d", wr, wc, n, m)
		}
		if !w.IsFinite() || mat.Min(w) < 0 {
			return nil, errors.New("core: weights must be finite and nonnegative")
		}
	}
	return fit(&input{src: mat.NewDenseSource(x, omega), x: x, rx: rx, omega: omega}, l, method, cfg)
}

// input is the training data of one fit. Every fit reads X and Ω through
// src. Dense fits also carry the resident x, R_Ω(x) and mask that the
// full-sweep updaters, the weighted objective and the dense fitHash stream
// need; source-backed fits leave them nil, and their src is the DataSource
// passed to FitSource or ResumeFitSource.
type input struct {
	src   mat.RowSource
	x, rx *mat.Dense
	omega *mat.Mask
}

// fit runs Algorithm 1 on a validated input: fill SI and build the p-NN
// graph (SMF, SMFL), derive the landmark matrix C (SMFL), inject C into V,
// then train. Under the landmark index with the paper's K-means source, C
// comes from weighted K-means over the index's landmark coreset (landmark
// coordinates weighted by bucket population) instead of a second full pass
// over N — one landmark set serves both the spatial index and the landmark
// columns of V.
func fit(in *input, l int, method Method, cfg Config) (*Model, error) {
	si, graph, ix, err := buildSpatial(in.src, l, method, cfg)
	if err != nil {
		return nil, err
	}
	c, err := landmarksFor(si, ix, method, cfg)
	if err != nil {
		return nil, err
	}

	model := &Model{Method: method, Config: cfg, L: l, C: c}
	n, m := in.src.Dims()
	initFactors(model, n, m)
	if c != nil {
		injectLandmarks(model.V, c)
	}

	tr := newTrainer(method, cfg)
	if tr.ckptPath != "" {
		tr.hash = fitHash(in, method, l, cfg)
	}
	return train(model, tr, in, graph, ix)
}

// landmarksFor generates the landmark matrix C (SMFL only; nil otherwise),
// preferring the landmark index's K-means coreset when one is available.
func landmarksFor(si *mat.Dense, ix *landmark.Index, method Method, cfg Config) (*mat.Dense, error) {
	if method != SMFL {
		return nil, nil
	}
	if ix != nil && cfg.LandmarkSource == KMeansCenters {
		return ix.KCenters(cfg.K, kmeansMaxIter, cfg.Seed)
	}
	return generateLandmarks(si, cfg)
}

// buildSpatial fills the SI block of src (see siFilled) and constructs the
// p-NN graph over it behind the SpatialIndex seam; NMF needs neither and
// gets nils. Exact mode delegates to spatial.BuildGraph under cfg.GraphMode;
// landmark mode builds the sub-quadratic landmark-bucket index and derives
// the graph from it. The returned index is nil in exact mode; callers use it
// to reuse the landmark selection for C and to attach a Placer to the fitted
// model.
func buildSpatial(src mat.RowSource, l int, method Method, cfg Config) (*mat.Dense, *spatial.Graph, *landmark.Index, error) {
	if method == NMF {
		return nil, nil, nil, nil
	}
	si := siFilled(src, l)
	switch cfg.SpatialIndex {
	case SpatialExact:
		g, err := spatial.BuildGraph(si, cfg.P, cfg.GraphMode)
		return si, g, nil, err
	case SpatialLandmark:
		lcfg := landmark.Config{Seed: cfg.Seed}
		if method == SMFL && cfg.LandmarkSource == KMeansCenters {
			// The coreset K-means that derives C needs at least K landmarks.
			lcfg.MinLandmarks = cfg.K
		}
		ix, err := landmark.Build(si, lcfg)
		if err != nil {
			return nil, nil, nil, err
		}
		g, err := ix.PNNGraph(cfg.P)
		if err != nil {
			return nil, nil, nil, err
		}
		return si, g, ix, nil
	}
	return nil, nil, nil, fmt.Errorf("core: unknown spatial index %d", cfg.SpatialIndex)
}

// train runs the configured updater from the model's current position (a
// fresh start or a restored checkpoint). On interruption, divergence
// exhaustion, or an injected fault it returns the best-so-far model (tagged
// Partial) together with the classified error, so a cancelled run never
// vanishes. A successful fit run under the landmark index also captures the
// O(L) Placer from the trained coefficients.
func train(model *Model, tr *trainer, in *input, graph *spatial.Graph, ix *landmark.Index) (*Model, error) {
	tr.begin(model)
	var err error
	switch model.Config.Updater {
	case Multiplicative:
		err = runMultiplicative(model, in, graph, tr)
	case GradientDescent:
		err = runGradientDescent(model, in, graph, tr)
	case SGD, SVRG:
		err = runStochastic(model, in.src, graph, tr)
	default:
		return nil, fmt.Errorf("core: unknown updater %d", model.Config.Updater)
	}
	if err != nil {
		return model, err
	}
	if ix != nil {
		model.Placer = ix.NewPlacer(model.U)
	}
	return model, nil
}

// siFilled copies the SI block (the first l columns) out of src in one
// streaming pass and replaces hidden cells with their column's observed
// mean, used only for D construction and K-means (the values themselves are
// still imputed by the factorization, per Section II-C). Column sums
// accumulate in ascending row order, so a dense input and a shard store
// holding the same data yield bit-identical blocks — and bit-identical
// spatial structures downstream.
func siFilled(src mat.RowSource, l int) *mat.Dense {
	n, _ := src.Dims()
	si := mat.NewDense(n, l)
	sums := make([]float64, l)
	cnts := make([]int, l)
	observed := make([]bool, n*l)
	rd := src.Reader()
	for i := 0; i < n; i++ {
		xi, cols := rd.Row(i)
		copy(si.Row(i), xi[:l])
		for _, j := range cols {
			if int(j) >= l {
				break // cols is sorted; the SI prefix is done
			}
			observed[i*l+int(j)] = true
			sums[j] += xi[j]
			cnts[j]++
		}
	}
	rd.Release()
	for j := 0; j < l; j++ {
		mean := 0.0
		if cnts[j] > 0 {
			mean = sums[j] / float64(cnts[j])
		}
		for i := 0; i < n; i++ {
			if !observed[i*l+j] {
				si.Set(i, j, mean)
			}
		}
	}
	return si
}

// initFactors fills U and V with standard uniform positives — the paper's
// "randomly initialized" starting point for the multiplicative updates.
func initFactors(model *Model, n, m int) {
	cfg := model.Config
	rng := rand.New(rand.NewSource(cfg.Seed))
	model.U = mat.RandomUniform(rng, n, cfg.K, 1e-3, 1)
	model.V = mat.RandomUniform(rng, cfg.K, m, 1e-3, 1)
}

// runMultiplicative iterates Formulas 13/14 inside the trainer's loop, which
// threads in cancellation, the divergence watchdog (a failed health check
// restores the last good factors, re-jitters the offender, and retries the
// same iteration), and periodic atomic checkpoints. When resuming,
// model.Iters/Objective carry the restored position and the loop continues
// from there.
func runMultiplicative(model *Model, in *input, graph *spatial.Graph, tr *trainer) error {
	cfg := model.Config
	u, v := model.U, model.V
	x, rx, omega := in.x, in.rx, in.omega
	n, m := x.Dims()
	k := cfg.K
	lam := cfg.Lambda
	startCol := model.startCol() // landmark columns are frozen

	uv := mat.NewDense(n, m)
	numU := mat.NewDense(n, k)
	denU := mat.NewDense(n, k)
	du := mat.NewDense(n, k)
	wu := mat.NewDense(n, k)
	numV := mat.NewDense(k, m)
	denV := mat.NewDense(k, m)

	// Confidence weighting (extension): fold W into R_Ω(X) once and into
	// R_Ω(UV) each iteration; with W = 1 this is a no-op.
	weights := cfg.Weights
	if weights != nil {
		rx = mat.Hadamard(nil, rx, weights) // local weighted copy
	}

	// Hoisted out of the iteration loop: the factor backing slices are
	// stable, so one fetch serves every element update.
	ud := u.Data()
	numUD, denUD := numU.Data(), denU.Data()

	return tr.loop(model, func() float64 {
		// ---- U step: U ⊙ (R_Ω(X)Vᵀ + λDU) ⊘ (R_Ω(UV)Vᵀ + λWU) ----
		omega.ProjectMul(uv, u, v)
		if weights != nil {
			mat.Hadamard(uv, uv, weights)
		}
		omega.MulBTObserved(numU, rx, v)
		omega.MulBTObserved(denU, uv, v)
		if graph != nil && lam > 0 {
			graph.MulD(du, u)
			graph.MulW(wu, u)
			mat.AddScaled(numU, numU, lam, du)
			mat.AddScaled(denU, denU, lam, wu)
		}
		mat.ParallelRange(len(ud), 2*len(ud), func(lo, hi int) {
			for i := lo; i < hi; i++ {
				ud[i] *= numUD[i] / (denUD[i] + eps)
			}
		})

		// ---- V step: V ⊙ (UᵀR_Ω(X)) ⊘ (UᵀR_Ω(UV)), landmark columns fixed ----
		omega.ProjectMul(uv, u, v)
		if weights != nil {
			mat.Hadamard(uv, uv, weights)
		}
		atMulCols(numV, u, rx, startCol, omega)
		atMulCols(denV, u, uv, startCol, omega)
		mat.ParallelRange(m-startCol, 2*k*(m-startCol), func(lo, hi int) {
			for r := 0; r < k; r++ {
				vr := v.Row(r)
				nr := numV.Row(r)
				dr := denV.Row(r)
				for j := startCol + lo; j < startCol+hi; j++ {
					vr[j] *= nr[j] / (dr[j] + eps)
				}
			}
		})

		// ---- objective (fused: no third N×M matmul) ----
		var obj float64
		if weights != nil {
			obj = omega.MaskedWeightedFrob2Mul(x, u, v, weights)
		} else {
			obj = omega.MaskedFrob2Mul(x, u, v)
		}
		if graph != nil && lam > 0 {
			obj += lam * graph.QuadForm(u)
		}
		return obj
	}, nil, nil)
}

// atMulCols stores (aᵀb)[:, c0:] into dst[:, c0:] (columns below c0 are left
// untouched). Skipping the frozen landmark columns is exactly the reduced
// computation the paper credits to landmarks (Section IV-E). The work is
// column-partitioned across the worker pool (like mat.MulAT) so chunks write
// disjoint dst columns. When omega is sparse and b is supported on Ω (true
// for both call sites: R_Ω(X) and R_Ω(UV)), only the observed entries of b
// are visited; both paths accumulate in the same i-ascending order, so they
// agree bit-for-bit on Ω-supported inputs.
func atMulCols(dst, a, b *mat.Dense, c0 int, omega *mat.Mask) {
	n, k := a.Dims()
	_, m := b.Dims()
	if m == c0 {
		return
	}
	fused := omega != nil && omega.Density() < mat.DenseCutover
	ad, bd, dd := a.Data(), b.Data(), dst.Data()
	mat.ParallelRange(m-c0, n*k*(m-c0), func(lo, hi int) {
		jlo, jhi := c0+lo, c0+hi
		for r := 0; r < k; r++ {
			dr := dd[r*m : (r+1)*m]
			for j := jlo; j < jhi; j++ {
				dr[j] = 0
			}
		}
		for i := 0; i < n; i++ {
			ai := ad[i*k : (i+1)*k]
			bi := bd[i*m : (i+1)*m]
			if fused {
				// Every fused caller passes an Ω-supported b (rx or the
				// output of ProjectMul), so unobserved entries are exact
				// zeros and a value test replaces the mask bit test. The
				// r-outer 4-wide blocks keep the dst writes streaming.
				r := 0
				for ; r+4 <= k; r += 4 {
					a0, a1, a2, a3 := ai[r], ai[r+1], ai[r+2], ai[r+3]
					d0 := dd[r*m : (r+1)*m]
					d1 := dd[(r+1)*m : (r+2)*m]
					d2 := dd[(r+2)*m : (r+3)*m]
					d3 := dd[(r+3)*m : (r+4)*m]
					for j := jlo; j < jhi; j++ {
						bv := bi[j]
						if bv == 0 { //lint:ignore floatcmp exact-zero sparsity skip
							continue
						}
						d0[j] += a0 * bv
						d1[j] += a1 * bv
						d2[j] += a2 * bv
						d3[j] += a3 * bv
					}
				}
				for ; r < k; r++ {
					av := ai[r]
					dr := dd[r*m : (r+1)*m]
					for j := jlo; j < jhi; j++ {
						if bv := bi[j]; bv != 0 { //lint:ignore floatcmp exact-zero sparsity skip
							dr[j] += av * bv
						}
					}
				}
				continue
			}
			for r := 0; r < k; r++ {
				av := ai[r]
				if av == 0 { //lint:ignore floatcmp exact-zero sparsity skip
					continue
				}
				dr := dd[r*m : (r+1)*m]
				for j := jlo; j < jhi; j++ {
					dr[j] += av * bi[j]
				}
			}
		}
	})
}

// runGradientDescent iterates the plain projected gradient scheme of
// Section III-B1 (used by the SMF-GD ablation) inside the trainer's loop,
// which threads in cancellation, checkpoints, and the divergence watchdog;
// its stepScale shrinks the learning rate on every rollback, so a diverging
// rate self-heals instead of blowing up to Inf (Zhao et al. observe such
// divergence is expected behavior for stochastic MF, arXiv:1705.06884).
func runGradientDescent(model *Model, in *input, graph *spatial.Graph, tr *trainer) error {
	cfg := model.Config
	u, v := model.U, model.V
	x, rx, omega := in.x, in.rx, in.omega
	n, m := x.Dims()
	k := cfg.K
	lam := cfg.Lambda
	startCol := model.startCol()

	uv := mat.NewDense(n, m)
	gradU := mat.NewDense(n, k)
	tmpU := mat.NewDense(n, k)
	lu := mat.NewDense(n, k)
	gradV := mat.NewDense(k, m)
	tmpV := mat.NewDense(k, m)

	return tr.loop(model, func() float64 {
		lr := cfg.LearningRate * tr.stepScale

		omega.ProjectMul(uv, u, v)

		// ∂O/∂U = −2 R_Ω(X)Vᵀ + 2 R_Ω(UV)Vᵀ + 2λLU
		omega.MulBTObserved(gradU, uv, v)
		omega.MulBTObserved(tmpU, rx, v)
		mat.Sub(gradU, gradU, tmpU)
		if graph != nil && lam > 0 {
			graph.MulL(lu, u)
			mat.AddScaled(gradU, gradU, lam, lu)
		}
		mat.AddScaled(u, u, -2*lr, gradU)
		u.ClampMin(0)

		// ∂O/∂V = −2 UᵀR_Ω(X) + 2 UᵀR_Ω(UV); landmark columns frozen.
		omega.ProjectMul(uv, u, v)
		atMulCols(gradV, u, uv, startCol, omega)
		atMulCols(tmpV, u, rx, startCol, omega)
		mat.ParallelRange(m-startCol, 4*k*(m-startCol), func(lo, hi int) {
			for r := 0; r < k; r++ {
				vr := v.Row(r)
				gr := gradV.Row(r)
				tr := tmpV.Row(r)
				for j := startCol + lo; j < startCol+hi; j++ {
					vr[j] -= 2 * lr * (gr[j] - tr[j])
					if vr[j] < 0 {
						vr[j] = 0
					}
				}
			}
		})

		// Fused objective: no third N×M matmul per iteration.
		obj := omega.MaskedFrob2Mul(x, u, v)
		if graph != nil && lam > 0 {
			obj += lam * graph.QuadForm(u)
		}
		return obj
	}, nil, nil)
}
