package core

import (
	"errors"
	"fmt"
	"math/rand"

	"github.com/spatialmf/smfl/internal/faultinject"
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
		ix, err := landmark.Build(si, landmarkConfig(method, cfg))
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

// landmarkConfig is the landmark index's configuration for a fit of method
// under cfg.
func landmarkConfig(method Method, cfg Config) landmark.Config {
	lcfg := landmark.Config{Seed: cfg.Seed}
	if method == SMFL && cfg.LandmarkSource == KMeansCenters {
		// The coreset K-means that derives C needs at least K landmarks.
		lcfg.MinLandmarks = cfg.K
	}
	return lcfg
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
// from there. An iteration is the three passes of sweep.
func runMultiplicative(model *Model, in *input, graph *spatial.Graph, tr *trainer) error {
	cfg := model.Config
	lam := cfg.Lambda
	u, v := model.U, model.V
	_, k := u.Dims()
	_, m := v.Dims()
	ud, vd := u.Data(), v.Data()
	// Confidence weighting (extension): W rides on R_Ω(X) and on the carried
	// R_Ω(UV); with W = 1 this is a no-op.
	s := newSweep(model, in, cfg.Weights, newGraphTerm(graph, lam, u, false))
	var dud []float64 // DU of the U before the pass, when the spatial term is on
	if s.term != nil {
		dud = s.term.gu.Data()
	}

	return tr.loop(model, func() float64 {
		s.carry()

		// ---- U step: U ⊙ (R_Ω(X)Vᵀ + λDU) ⊘ (R_Ω(UV)Vᵀ + λWU) ----
		s.uPass(func(i int, num, den []float64) {
			ui := ud[i*k : (i+1)*k]
			if dud == nil {
				for r, ur := range ui {
					ui[r] = ur * (num[r] / (den[r] + eps))
				}
				return
			}
			dui := dud[i*k : i*k+k]
			deg := float64(len(graph.Neighbors(i))) // (WU)_ir = deg_i·U_ir
			for r, ur := range ui {
				ui[r] = ur * ((num[r] + lam*dui[r]) / (den[r] + lam*(deg*ur) + eps))
			}
		})
		quad := s.term.walk(u) // this objective's Tr(UᵀLU), the next U step's DU

		// ---- V step: V ⊙ (UᵀR_Ω(X)) ⊘ (UᵀR_Ω(UV)), landmark columns fixed ----
		s.vPass(func(lo, hi int, num, den []float64) {
			for r := 0; r < k; r++ {
				vr := vd[r*m+lo : r*m+hi]
				for t := range vr {
					vr[t] *= num[t*k+r] / (den[t*k+r] + eps)
				}
			}
		})

		obj := s.objective()
		if s.term != nil {
			obj += lam * quad
		}
		return obj
	}, s.markStale, nil)
}

// runGradientDescent iterates the plain projected gradient scheme of
// Section III-B1 (used by the SMF-GD ablation) inside the trainer's loop,
// which threads in cancellation, checkpoints, and the divergence watchdog;
// its stepScale shrinks the learning rate on every rollback, so a diverging
// rate self-heals instead of blowing up to Inf (Zhao et al. observe such
// divergence is expected behavior for stochastic MF, arXiv:1705.06884). It
// runs on the same three passes as runMultiplicative, unweighted.
func runGradientDescent(model *Model, in *input, graph *spatial.Graph, tr *trainer) error {
	cfg := model.Config
	lam := cfg.Lambda
	u, v := model.U, model.V
	_, k := u.Dims()
	_, m := v.Dims()
	ud, vd := u.Data(), v.Data()
	s := newSweep(model, in, nil, newGraphTerm(graph, lam, u, true))
	var lud []float64 // LU of the U before the pass, when the spatial term is on
	if s.term != nil {
		lud = s.term.gu.Data()
	}

	return tr.loop(model, func() float64 {
		lr := cfg.LearningRate * tr.stepScale
		s.carry()

		// ∂O/∂U = −2 R_Ω(X)Vᵀ + 2 R_Ω(UV)Vᵀ + 2λLU
		step := -2 * lr
		s.uPass(func(i int, num, den []float64) {
			ui := ud[i*k : (i+1)*k]
			var lui []float64
			if lud != nil {
				lui = lud[i*k : i*k+k]
			}
			for r, ur := range ui {
				g := den[r] - num[r]
				if lui != nil {
					g += lam * lui[r]
				}
				ur += step * g
				if ur < 0 {
					ur = 0
				}
				ui[r] = ur
			}
		})
		quad := s.term.walk(u) // this objective's Tr(UᵀLU), the next U step's LU

		// ∂O/∂V = −2 UᵀR_Ω(X) + 2 UᵀR_Ω(UV); landmark columns frozen.
		s.vPass(func(lo, hi int, num, den []float64) {
			for r := 0; r < k; r++ {
				vr := vd[r*m+lo : r*m+hi]
				for t := range vr {
					vr[t] -= 2 * lr * (den[t*k+r] - num[t*k+r])
					if vr[t] < 0 {
						vr[t] = 0
					}
				}
			}
		})

		obj := s.objective()
		if s.term != nil {
			obj += lam * quad
		}
		return obj
	}, s.markStale, nil)
}

// sweep runs one iteration of a full-sweep updater (multiplicative or gd)
// as three fused passes over the resident data:
//
//   - the U pass, row by row: the data terms (R_Ω(X)·Vᵀ)_i and (E·Vᵀ)_i,
//     then the updater's rule for row i;
//   - the V pass, column by column: UᵀR_Ω(X) and UᵀR_Ω(UV) from one
//     product U·V over each chunk's own columns, then the updater's rule;
//   - the objective pass, row by row: Σ_Ω w·(x − UV)², storing
//     E = R_Ω(UV)⊙W on the way.
//
// The objective's U·V is the product the next U pass needs, so E carries it
// there and an iteration forms U·V twice, not three times. Every sum runs in
// the order of the standalone kernels (Mul, MulBT, MulBTObserved,
// ProjectMul, MaskedFrob2Mul), so the factors and objectives are those
// kernels' bits at any pool width.
type sweep struct {
	u, v  *mat.Dense
	x     *mat.Dense // the data; the objective reads it over Ω
	rx    *mat.Dense // R_Ω(X)⊙W, the data term of both steps
	w     *mat.Dense // confidence weights, nil when unweighted
	e     *mat.Dense // R_Ω(UV)⊙W as of the last objective pass
	stale bool       // e does not hold the current factors' product

	omega *mat.Mask // Ω; the dense V pass reads its bits
	ptr   []int     // Ω in CSR form: row i observes the columns
	cols  []int32   // cols[ptr[i]:ptr[i+1]], ascending
	// dense selects the loop form at or above mat.DenseCutover: full rows
	// in Mul's and MulBT's order, exact zeros included. Below it the passes
	// visit observed cells only, in ProjectMul's and MulBTObserved's order.
	dense    bool
	startCol int          // landmark columns of V below it stay frozen
	dots     mat.DotPairs // the dense U pass's dots, rebound to V every pass
	term     *graphTerm   // the spatial term, nil without one; carried as e is
}

// newSweep binds a sweep to the model's live factors. w weights the data
// term and the carried product; nil fits the unweighted objective.
func newSweep(model *Model, in *input, w *mat.Dense, term *graphTerm) *sweep {
	rx := in.rx
	if w != nil {
		rx = mat.Hadamard(nil, rx, w) // local weighted copy
	}
	n, m := in.x.Dims()
	ptr, cols := in.omega.RowIndex()
	return &sweep{
		u: model.U, v: model.V, x: in.x, rx: rx, w: w,
		e: mat.NewDense(n, m), stale: true,
		omega: in.omega, ptr: ptr, cols: cols,
		dense:    in.omega.Density() >= mat.DenseCutover,
		startCol: model.startCol(),
		term:     term,
	}
}

// markStale is the watchdog's rewind: a rollback (and the re-jitter after
// it) changes the factors behind e and the graph term.
func (s *sweep) markStale() { s.stale = true }

// carry makes e hold R_Ω(UV)⊙W, and the graph term G·U, for the current
// factors before a U pass. A fresh sweep, a resumed one and one after a
// rollback recompute them, and so does every iteration while fault
// injection is armed, since a FitIter hook may have changed U or V in
// place; that objective pass's sum and that walk's Tr(UᵀLU) are discarded.
func (s *sweep) carry() {
	if s.stale || faultinject.Enabled() {
		s.objective()
		s.term.walk(s.u)
	}
	s.stale = false
}

// graphTerm is the spatial term λ·Tr(UᵀLU) between iterations. gu holds
// G·U for the U that the last walk read: G is D for the multiplicative
// rule (Formula 13's λDU) and L = W − D for the gradient updaters. A U step
// reads gu; the walk after it refreshes gu for the next U step and sums
// Tr(UᵀLU) for the iteration's objective, since nothing between the two
// changes U. A nil *graphTerm is a fit without the term (NMF, or λ = 0).
type graphTerm struct {
	g         *spatial.Graph
	gu        *mat.Dense
	laplacian bool
}

// newGraphTerm returns the spatial term of a fit of u over graph with
// weight lam, or nil when the fit has none.
func newGraphTerm(graph *spatial.Graph, lam float64, u *mat.Dense, laplacian bool) *graphTerm {
	if graph == nil || !(lam > 0) {
		return nil
	}
	n, k := u.Dims()
	return &graphTerm{g: graph, gu: mat.NewDense(n, k), laplacian: laplacian}
}

// walk stores G·u into gu and returns Tr(UᵀLU), from one serial pass over
// the graph's edges. A nil term does nothing and returns 0.
func (t *graphTerm) walk(u *mat.Dense) float64 {
	if t == nil {
		return 0
	}
	if t.laplacian {
		return t.g.WalkL(t.gu, u)
	}
	return t.g.WalkD(t.gu, u)
}

// uPass computes, for every row i, num_r = (R_Ω(X)·V_rᵀ)_i and
// den_r = (E·V_rᵀ)_i, and hands them to update, which rewrites row i of U.
// Rows are independent, so the pass is row-partitioned; update may read
// other rows only through state computed before the pass.
func (s *sweep) uPass(update func(i int, num, den []float64)) {
	n, m := s.x.Dims()
	_, k := s.u.Dims()
	rx, e, vd := s.rx.Data(), s.e.Data(), s.v.Data()
	work := 2 * len(s.cols) * k
	if s.dense {
		work = 2 * n * m * k
		s.dots.Reset(s.v)
	}
	mat.ParallelRange(n, work, func(lo, hi int) {
		num := make([]float64, k)
		den := make([]float64, k)
		for i := lo; i < hi; i++ {
			xi := rx[i*m : i*m+m]
			ei := e[i*m : i*m+m]
			if s.dense {
				// MulBT's dot: four partial sums over the full row.
				s.dots.Row(num, den, xi, ei)
			} else {
				// MulBTObserved's dot: one sum over the observed columns.
				js := s.cols[s.ptr[i]:s.ptr[i+1]]
				mat.RowMulBTAt(num, xi, vd, m, js)
				mat.RowMulBTAt(den, ei, vd, m, js)
			}
			update(i, num, den)
		}
	})
}

// vPass computes UᵀR_Ω(X) and UᵀR_Ω(UV)⊙W over the columns from startCol
// on (skipping the frozen landmark columns is the reduced computation the
// paper credits to landmarks, Section IV-E) and hands them to update. The
// pass is column-partitioned: each chunk walks the rows in ascending order,
// forms (UV)_ij for its own columns only, and keeps its sums local, so no
// two workers write neighbouring cells. update(lo, hi, num, den) receives
// the chunk's columns [lo, hi), the sums of column j at num[(j−lo)·K:] and
// den[(j−lo)·K:], one per coefficient.
func (s *sweep) vPass(update func(lo, hi int, num, den []float64)) {
	n, m := s.x.Dims()
	_, k := s.u.Dims()
	c0 := s.startCol
	if m == c0 {
		return
	}
	ud, vd, rx := s.u.Data(), s.v.Data(), s.rx.Data()
	var wd []float64
	if s.w != nil {
		wd = s.w.Data()
	}
	mat.ParallelRange(m-c0, 3*n*k*(m-c0), func(lo, hi int) {
		lo, hi = c0+lo, c0+hi
		num := make([]float64, (hi-lo)*k)
		den := make([]float64, (hi-lo)*k)
		p := make([]float64, m)
		for i := 0; i < n; i++ {
			ui := ud[i*k : i*k+k]
			xi := rx[i*m+lo : i*m+hi]
			if s.dense {
				// Mul's product, weighted and projected onto Ω by the
				// mask's bits; the sums run over every column and skip
				// zero coefficients, as the full-row UᵀB does.
				ei := p[lo:hi]
				mat.RowMul(ei, ui, vd, m, lo)
				if wd != nil {
					for t, w := range wd[i*m+lo : i*m+hi] {
						ei[t] *= w
					}
				}
				s.omega.KeepObserved(ei, i, lo)
				mat.AccumPairs(num, den, ui, xi, ei)
				continue
			}
			js := s.cols[s.ptr[i]:s.ptr[i+1]]
			for len(js) > 0 && int(js[0]) < lo {
				js = js[1:]
			}
			c := 0
			for c < len(js) && int(js[c]) < hi {
				c++
			}
			js = js[:c]
			// ProjectMul's product on the observed columns, weighted; the
			// sums skip exact-zero data and products, as a walk over the
			// nonzero entries of an Ω-supported matrix does.
			mat.RowMulAt(p, ui, vd, m, js)
			for _, j := range js {
				t := int(j) - lo
				xv, ev := xi[t], p[j]
				if wd != nil {
					ev *= wd[i*m+int(j)]
				}
				if xv != 0 { //lint:ignore floatcmp exact-zero sparsity skip
					nt := num[t*k : t*k+k][:len(ui)]
					for r, a := range ui {
						nt[r] += a * xv
					}
				}
				if ev != 0 { //lint:ignore floatcmp exact-zero sparsity skip
					dt := den[t*k : t*k+k][:len(ui)]
					for r, a := range ui {
						dt[r] += a * ev
					}
				}
			}
		}
		update(lo, hi, num, den)
	})
}

// objective returns Σ_Ω w·(x − UV)² for the current factors and stores
// E = R_Ω(UV)⊙W for the next U pass. It reduces over MaskedFrob2Mul's chunk
// partition (rows, |Ω|·K work), so its bits match that kernel's at every
// pool width. Unobserved cells of e are never written and stay zero.
func (s *sweep) objective() float64 {
	n, m := s.x.Dims()
	_, k := s.u.Dims()
	xd, ud, vd, ed := s.x.Data(), s.u.Data(), s.v.Data(), s.e.Data()
	var wd []float64
	if s.w != nil {
		wd = s.w.Data()
	}
	return mat.ParallelReduce(n, len(s.cols)*k, func(lo, hi int) float64 {
		p := make([]float64, m)
		var sum float64
		for i := lo; i < hi; i++ {
			js := s.cols[s.ptr[i]:s.ptr[i+1]]
			if len(js) == 0 {
				continue
			}
			ui := ud[i*k : (i+1)*k]
			if s.dense {
				mat.RowMul(p, ui, vd, m, 0)
			} else {
				mat.RowMulAt(p, ui, vd, m, js)
			}
			xi, ei := xd[i*m:(i+1)*m], ed[i*m:(i+1)*m]
			if wd != nil {
				wi := wd[i*m : (i+1)*m]
				for _, j := range js {
					d := xi[j] - p[j]
					sum += wi[j] * d * d
					ei[j] = p[j] * wi[j]
				}
				continue
			}
			for _, j := range js {
				d := xi[j] - p[j]
				sum += d * d
				ei[j] = p[j]
			}
		}
		return sum
	})
}
