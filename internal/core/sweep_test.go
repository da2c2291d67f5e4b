package core

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"github.com/spatialmf/smfl/internal/dataset"
	"github.com/spatialmf/smfl/internal/faultinject"
	"github.com/spatialmf/smfl/internal/mat"
	"github.com/spatialmf/smfl/internal/spatial"
)

// refRunMultiplicative is the multiplicative iteration as a sequence of
// standalone kernels: R_Ω(UV) formed three times (U step, V step,
// objective), ProjectMul and MulBTObserved for the U step, MulD/MulW and
// AddScaled for the spatial term, a column-restricted UᵀB for the V step and
// MaskedFrob2Mul for the objective. The fused passes of sweep must reproduce
// it bit for bit.
func refRunMultiplicative(model *Model, in *input, graph *spatial.Graph, tr *trainer) error {
	cfg := model.Config
	u, v := model.U, model.V
	x, rx, omega := in.x, in.rx, in.omega
	n, m := x.Dims()
	k := cfg.K
	lam := cfg.Lambda
	startCol := model.startCol()

	uv := mat.NewDense(n, m)
	numU := mat.NewDense(n, k)
	denU := mat.NewDense(n, k)
	du := mat.NewDense(n, k)
	wu := mat.NewDense(n, k)
	numV := mat.NewDense(k, m)
	denV := mat.NewDense(k, m)
	weights := cfg.Weights
	if weights != nil {
		rx = mat.Hadamard(nil, rx, weights)
	}
	ud := u.Data()
	numUD, denUD := numU.Data(), denU.Data()

	return tr.loop(model, func() float64 {
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
		for i := range ud {
			ud[i] *= numUD[i] / (denUD[i] + eps)
		}

		omega.ProjectMul(uv, u, v)
		if weights != nil {
			mat.Hadamard(uv, uv, weights)
		}
		refAtMulCols(numV, u, rx, startCol, omega)
		refAtMulCols(denV, u, uv, startCol, omega)
		for r := 0; r < k; r++ {
			vr, nr, dr := v.Row(r), numV.Row(r), denV.Row(r)
			for j := startCol; j < m; j++ {
				vr[j] *= nr[j] / (dr[j] + eps)
			}
		}

		var obj float64
		if weights != nil {
			obj = refMaskedWeightedFrob2Mul(omega, x, u, v, weights)
		} else {
			obj = omega.MaskedFrob2Mul(x, u, v)
		}
		if graph != nil && lam > 0 {
			obj += lam * graph.QuadForm(u)
		}
		return obj
	}, nil, nil)
}

// refRunGradientDescent is the gradient-descent iteration as standalone
// kernels, the reference for runGradientDescent. It ignores Weights, as the
// runner does (Fit refuses them under gd).
func refRunGradientDescent(model *Model, in *input, graph *spatial.Graph, tr *trainer) error {
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
		omega.MulBTObserved(gradU, uv, v)
		omega.MulBTObserved(tmpU, rx, v)
		mat.Sub(gradU, gradU, tmpU)
		if graph != nil && lam > 0 {
			graph.MulL(lu, u)
			mat.AddScaled(gradU, gradU, lam, lu)
		}
		mat.AddScaled(u, u, -2*lr, gradU)
		u.ClampMin(0)

		omega.ProjectMul(uv, u, v)
		refAtMulCols(gradV, u, uv, startCol, omega)
		refAtMulCols(tmpV, u, rx, startCol, omega)
		for r := 0; r < k; r++ {
			vr, gr, tr := v.Row(r), gradV.Row(r), tmpV.Row(r)
			for j := startCol; j < m; j++ {
				vr[j] -= 2 * lr * (gr[j] - tr[j])
				if vr[j] < 0 {
					vr[j] = 0
				}
			}
		}

		obj := omega.MaskedFrob2Mul(x, u, v)
		if graph != nil && lam > 0 {
			obj += lam * graph.QuadForm(u)
		}
		return obj
	}, nil, nil)
}

// refAtMulCols stores (aᵀb)[:, c0:] into dst[:, c0:], summing each cell over
// the rows in ascending order. Below mat.DenseCutover it visits only the
// nonzero entries of b (supported on Ω); at or above it every entry of b,
// skipping zero entries of a.
func refAtMulCols(dst, a, b *mat.Dense, c0 int, omega *mat.Mask) {
	n, k := a.Dims()
	_, m := b.Dims()
	fused := omega.Density() < mat.DenseCutover
	for r := 0; r < k; r++ {
		for j := c0; j < m; j++ {
			dst.Set(r, j, 0)
		}
	}
	for i := 0; i < n; i++ {
		ai, bi := a.Row(i), b.Row(i)
		for r := 0; r < k; r++ {
			if !fused && ai[r] == 0 {
				continue
			}
			dr := dst.Row(r)
			for j := c0; j < m; j++ {
				if fused && bi[j] == 0 {
					continue
				}
				dr[j] += ai[r] * bi[j]
			}
		}
	}
}

// refMaskedWeightedFrob2Mul returns Σ_Ω w·(x − uv)², forming each (uv)_ij in
// MaskedFrob2Mul's order and reducing over its chunk partition.
func refMaskedWeightedFrob2Mul(omega *mat.Mask, x, u, v, w *mat.Dense) float64 {
	n, _ := x.Dims()
	_, k := u.Dims()
	ptr, cols := omega.RowIndex()
	return mat.ParallelReduce(n, len(cols)*k, func(lo, hi int) float64 {
		var s float64
		for i := lo; i < hi; i++ {
			for _, j := range cols[ptr[i]:ptr[i+1]] {
				var p float64
				t := 0
				for ; t+4 <= k; t += 4 {
					p += u.At(i, t)*v.At(t, int(j)) + u.At(i, t+1)*v.At(t+1, int(j)) +
						u.At(i, t+2)*v.At(t+2, int(j)) + u.At(i, t+3)*v.At(t+3, int(j))
				}
				for ; t < k; t++ {
					p += u.At(i, t) * v.At(t, int(j))
				}
				d := x.At(i, int(j)) - p
				s += w.At(i, int(j)) * d * d
			}
		}
		return s
	})
}

// sweepInput builds a dense fit input over testProblem's table with a mask
// of the given density (the SI columns included).
func sweepInput(t *testing.T, n int, density float64, seed int64) (*input, int) {
	t.Helper()
	x, _, l := testProblem(t, n, seed)
	return maskedInput(x, density, seed), l
}

// maskedInput builds a dense fit input over x with a mask of the given
// density, drawn from seed.
func maskedInput(x *mat.Dense, density float64, seed int64) *input {
	rows, cols := x.Dims()
	rng := rand.New(rand.NewSource(seed))
	omega := mat.NewMask(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if rng.Float64() < density {
				omega.Observe(i, j)
			}
		}
	}
	return &input{src: mat.NewDenseSource(x, omega), x: x, rx: omega.Project(nil, x), omega: omega}
}

// sweepStart builds the model and graph fit() would start training from.
func sweepStart(t *testing.T, in *input, l int, method Method, cfg Config) (*Model, *spatial.Graph) {
	t.Helper()
	si, graph, ix, err := buildSpatial(in.src, l, method, cfg)
	if err != nil {
		t.Fatal(err)
	}
	c, err := landmarksFor(si, ix, method, cfg)
	if err != nil {
		t.Fatal(err)
	}
	model := &Model{Method: method, Config: cfg, L: l, C: c}
	n, m := in.src.Dims()
	initFactors(model, n, m)
	if c != nil {
		injectLandmarks(model.V, c)
	}
	return model, graph
}

// runBoth trains one start with the fused runner and with the reference and
// fails unless the factors, the objective history and the watchdog's
// bookkeeping are Float64bits-equal. arm, when non-nil, runs before each of
// the two fits (to arm fault hooks afresh).
func runBoth(t *testing.T, in *input, l int, method Method, cfg Config, arm func()) *Model {
	t.Helper()
	model, graph := sweepStart(t, in, l, method, cfg)
	ref := &Model{Method: method, Config: cfg, L: l, C: model.C, U: model.U.Clone(), V: model.V.Clone()}
	run, refRun := runMultiplicative, refRunMultiplicative
	if cfg.Updater == GradientDescent {
		run, refRun = runGradientDescent, refRunGradientDescent
	}
	if arm != nil {
		arm()
	}
	errRef := refRun(ref, in, graph, beginTrainer(ref, method, cfg))
	if arm != nil {
		arm()
	}
	err := run(model, in, graph, beginTrainer(model, method, cfg))
	if fmt.Sprint(err) != fmt.Sprint(errRef) {
		t.Fatalf("error %v, reference %v", err, errRef)
	}
	if model.Iters != ref.Iters || model.Recoveries != ref.Recoveries || len(model.Objective) != len(ref.Objective) {
		t.Fatalf("iters/recoveries/history %d/%d/%d, reference %d/%d/%d", model.Iters, model.Recoveries,
			len(model.Objective), ref.Iters, ref.Recoveries, len(ref.Objective))
	}
	for it, o := range model.Objective {
		if math.Float64bits(o) != math.Float64bits(ref.Objective[it]) {
			t.Fatalf("objective %d: %v, reference %v", it, o, ref.Objective[it])
		}
	}
	for name, pair := range map[string][2]*mat.Dense{"U": {model.U, ref.U}, "V": {model.V, ref.V}} {
		got, want := pair[0].Data(), pair[1].Data()
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s[%d] = %v, reference %v", name, i, got[i], want[i])
			}
		}
	}
	return model
}

func beginTrainer(model *Model, method Method, cfg Config) *trainer {
	tr := newTrainer(method, cfg)
	tr.begin(model)
	return tr
}

// forEachWidth runs fn at one worker and at two workers with the pooled
// paths forced on (SetThreshold(1)), the two partitions every reduction
// must agree with its reference at.
func forEachWidth(t *testing.T, fn func(t *testing.T)) {
	t.Helper()
	defer mat.SetWorkers(mat.SetWorkers(1))
	t.Run("w1", fn)
	mat.SetWorkers(2)
	defer mat.SetThreshold(mat.SetThreshold(1))
	t.Run("w2", fn)
}

// TestSweepBitIdentical runs the fused three-pass updaters against the
// standalone-kernel reference from the same start for 15 iterations over
// methods, mask densities on both sides of DenseCutover, weights and both
// full-sweep updaters. gd with weights is a runner-level case only (Fit
// refuses it): both sides ignore the weights. A 70-column table puts the
// dense V pass's chunks across more than one 64-bit word of the mask.
func TestSweepBitIdentical(t *testing.T) {
	wide, err := dataset.Generate(dataset.Spec{
		Name: "wide", N: 70, M: 70, L: 2, Latents: 3, Bumps: 4, Clusters: 4, Noise: 0.02, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wide.Data.Normalize(); err != nil {
		t.Fatal(err)
	}
	type table struct {
		prefix string
		in     *input
		l      int
	}
	var tables []table
	for _, density := range []float64{0.93, 0.5, 0.1} {
		in, l := sweepInput(t, 70, density, 4)
		tables = append(tables, table{"", in, l})
	}
	tables = append(tables, table{"70cols/", maskedInput(wide.Data.X, 0.93, 4), wide.Data.L})
	forEachWidth(t, func(t *testing.T) {
		for _, tb := range tables {
			in, l := tb.in, tb.l
			n, m := in.x.Dims()
			weights := mat.RandomUniform(rand.New(rand.NewSource(5)), n, m, 0.5, 1.5)
			for _, method := range []Method{NMF, SMF, SMFL} {
				for _, up := range []Updater{Multiplicative, GradientDescent} {
					for _, w := range []*mat.Dense{nil, weights} {
						cfg := Config{K: 5, Lambda: 0.1, P: 3, MaxIter: 15, Tol: 1e-300, Seed: 3,
							Updater: up, LearningRate: 0.02, Weights: w}.withDefaults()
						name := fmt.Sprintf("%s%.2f/%s/%s/weighted=%v", tb.prefix, in.omega.Density(), method, up, w != nil)
						t.Run(name, func(t *testing.T) { runBoth(t, in, l, method, cfg, nil) })
					}
				}
			}
		}
	})
}

// TestSweepBitsPinned pins the bits of full-sweep fits and of folding rows
// into them, which TestSweepBitIdentical cannot: that test compares the
// fused passes with standalone kernels that share the masked row kernels
// with them. Each case fits sweepInput's table at a density on each side of
// DenseCutover, at one worker and at two with the pooled paths forced on,
// and hashes (FNV-64a over Float64bits) U, V and every objective, then the
// coefficients of a 16-row FoldIn against the fitted model. NMF builds no
// spatial index, so it runs once. The hashes are amd64 bits: the arm64
// compiler fuses multiply-adds.
func TestSweepBitsPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("the pinned hashes are amd64 bits; arm64 fuses multiply-adds")
	}
	want := map[string][2]uint64{ // fit, fold-in
		"w1/0.9/NMF/exact/multiplicative":     {0x0e6a578d1419fb15, 0x1f5ff07336a24c38},
		"w1/0.9/NMF/exact/gd":                 {0xe4976bf5f4fe0539, 0x0b81611fc522c1cc},
		"w1/0.9/SMF/exact/multiplicative":     {0x1cdb45dd88c026eb, 0x386b897e306d3939},
		"w1/0.9/SMF/exact/gd":                 {0xc7257223ab50a288, 0x779cd7fc8478b07c},
		"w1/0.9/SMF/landmark/multiplicative":  {0x1cdb45dd88c026eb, 0xca4cc9230cafc196},
		"w1/0.9/SMF/landmark/gd":              {0xc7257223ab50a288, 0x713443415fc4bf2e},
		"w1/0.9/SMFL/exact/multiplicative":    {0x94ecd282baa32452, 0xa137009cd98e6d03},
		"w1/0.9/SMFL/exact/gd":                {0x51dc4dd7ff954f11, 0xa02ecf682f684301},
		"w1/0.9/SMFL/landmark/multiplicative": {0x57995ff82fda0207, 0x1f5decf6733b2bb9},
		"w1/0.9/SMFL/landmark/gd":             {0xeefc9ccf3a6a0208, 0xa2817a971ea9ba9e},
		"w1/0.5/NMF/exact/multiplicative":     {0x589d1dcbf66ce1c1, 0xc0f794fd04de5888},
		"w1/0.5/NMF/exact/gd":                 {0x97c1348e52332ecb, 0x6957c9e449245951},
		"w1/0.5/SMF/exact/multiplicative":     {0xe1d09bbb5dfd0177, 0x4731c47e5eabc560},
		"w1/0.5/SMF/exact/gd":                 {0xbd6b312e619457f4, 0x1b6eddb467ae2ef7},
		"w1/0.5/SMF/landmark/multiplicative":  {0x37304a108d75023f, 0x87d671ed2611ecbf},
		"w1/0.5/SMF/landmark/gd":              {0xe3ef73c2828c7ac4, 0x65be955839422a99},
		"w1/0.5/SMFL/exact/multiplicative":    {0x248b3bfae78f0ee6, 0x4b0eae95e371770d},
		"w1/0.5/SMFL/exact/gd":                {0xca83458ace8f69bf, 0x0863f9a86a3f8b24},
		"w1/0.5/SMFL/landmark/multiplicative": {0xd9789ed51c55895f, 0x10e831f9111fa7ee},
		"w1/0.5/SMFL/landmark/gd":             {0x8f934b3f07158d25, 0xaafaa6c6160090c3},
		"w2/0.9/NMF/exact/multiplicative":     {0xb8734ff60d0c7742, 0x1f5ff07336a24c38},
		"w2/0.9/NMF/exact/gd":                 {0x36090a2aa107b212, 0x0b81611fc522c1cc},
		"w2/0.9/SMF/exact/multiplicative":     {0x9226501f03920a8e, 0x386b897e306d3939},
		"w2/0.9/SMF/exact/gd":                 {0xcf029706c52ea031, 0x779cd7fc8478b07c},
		"w2/0.9/SMF/landmark/multiplicative":  {0x9226501f03920a8e, 0xca4cc9230cafc196},
		"w2/0.9/SMF/landmark/gd":              {0xcf029706c52ea031, 0x713443415fc4bf2e},
		"w2/0.9/SMFL/exact/multiplicative":    {0xc0b0b244d79f9266, 0xa137009cd98e6d03},
		"w2/0.9/SMFL/exact/gd":                {0x7256f62d6e24e60e, 0xa02ecf682f684301},
		"w2/0.9/SMFL/landmark/multiplicative": {0x26494ec0ceb2bc69, 0x1f5decf6733b2bb9},
		"w2/0.9/SMFL/landmark/gd":             {0x852e32bbae15fea8, 0xa2817a971ea9ba9e},
		"w2/0.5/NMF/exact/multiplicative":     {0x01f14c0e934eaa27, 0xc0f794fd04de5888},
		"w2/0.5/NMF/exact/gd":                 {0x2b70e289c05100be, 0x6957c9e449245951},
		"w2/0.5/SMF/exact/multiplicative":     {0x6f14186b9d49962a, 0x4731c47e5eabc560},
		"w2/0.5/SMF/exact/gd":                 {0x40fd03a60e6cc80a, 0x1b6eddb467ae2ef7},
		"w2/0.5/SMF/landmark/multiplicative":  {0x10cea8231c1159af, 0x87d671ed2611ecbf},
		"w2/0.5/SMF/landmark/gd":              {0xcd9bfefe2a885b57, 0x65be955839422a99},
		"w2/0.5/SMFL/exact/multiplicative":    {0xf5b43ccb7094aa86, 0x4b0eae95e371770d},
		"w2/0.5/SMFL/exact/gd":                {0xd974ae462314c2ec, 0x0863f9a86a3f8b24},
		"w2/0.5/SMFL/landmark/multiplicative": {0x8418b864ba2bd461, 0x10e831f9111fa7ee},
		"w2/0.5/SMFL/landmark/gd":             {0x649c3df4d2a71f6c, 0xaafaa6c6160090c3},
	}
	type pair struct {
		method Method
		ix     SpatialIndex
	}
	pairs := []pair{{NMF, SpatialExact}, {SMF, SpatialExact}, {SMF, SpatialLandmark}, {SMFL, SpatialExact}, {SMFL, SpatialLandmark}}
	forEachWidth(t, func(t *testing.T) {
		for _, density := range []float64{0.9, 0.5} {
			in, l := sweepInput(t, 70, density, 9)
			if (in.omega.Density() >= mat.DenseCutover) != (density > mat.DenseCutover) {
				t.Fatalf("density %.1f drew a mask of density %.3f, across DenseCutover", density, in.omega.Density())
			}
			rows, omega := foldInRows(in.x, 16)
			for _, pr := range pairs {
				for _, up := range []Updater{Multiplicative, GradientDescent} {
					name := fmt.Sprintf("%.1f/%s/%s/%s", density, pr.method, pr.ix, up)
					key := fmt.Sprintf("w%d/%s", mat.Workers(), name)
					t.Run(name, func(t *testing.T) {
						cfg := Config{K: 5, Lambda: 0.1, P: 3, MaxIter: 15, Tol: 1e-300, Seed: 3,
							Updater: up, LearningRate: 0.02, SpatialIndex: pr.ix}
						model, err := Fit(in.x, in.omega, l, pr.method, cfg)
						if err != nil {
							t.Fatal(err)
						}
						u, err := model.FoldIn(rows, omega, 0)
						if err != nil {
							t.Fatal(err)
						}
						got := [2]uint64{bitsHash(model.U.Data(), model.V.Data(), model.Objective), bitsHash(u.Data())}
						if got != want[key] {
							t.Errorf("%q: {%#016x, %#016x}, want {%#016x, %#016x}", key, got[0], got[1], want[key][0], want[key][1])
						}
					})
				}
			}
		}
	})
}

// foldInRows returns the first r rows of x with about a quarter of their
// cells hidden, SI included, and at least four observed in every row.
func foldInRows(x *mat.Dense, r int) (*mat.Dense, *mat.Mask) {
	_, m := x.Dims()
	rows := mat.NewDense(r, m)
	omega := mat.NewMask(r, m)
	for i := 0; i < r; i++ {
		copy(rows.Row(i), x.Row(i))
		for j := 0; j < m; j++ {
			if (7*i+j)%4 != 0 {
				omega.Observe(i, j)
			}
		}
	}
	return rows, omega
}

// bitsHash is the FNV-64a hash of the Float64bits of every value of ds, in
// order.
func bitsHash(ds ...[]float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, d := range ds {
		for _, f := range d {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(f))
			h.Write(b[:])
		}
	}
	return h.Sum64()
}

// TestSweepRollbackRefreshesCarry drives gd at a learning rate that
// diverges: the watchdog rolls the factors back and halves the step, and
// the carried product must be recomputed for the restored factors.
func TestSweepRollbackRefreshesCarry(t *testing.T) {
	forEachWidth(t, func(t *testing.T) {
		for _, density := range []float64{0.93, 0.5} {
			in, l := sweepInput(t, 70, density, 6)
			cfg := Config{K: 5, Lambda: 0.1, P: 3, MaxIter: 15, Tol: 1e-300, Seed: 3,
				Updater: GradientDescent, LearningRate: 40}.withDefaults()
			if model := runBoth(t, in, l, SMFL, cfg, nil); model.Recoveries == 0 {
				t.Fatalf("density %.2f: no rollback at learning rate %v", in.omega.Density(), cfg.LearningRate)
			}
		}
	})
}

// iterHooks change the factors between iterations at the FitIter point:
// scaling V or U by 1.01 (finite, so the watchdog stays quiet) and a NaN in
// U (a rollback and re-jitter). Anything a runner carries from one
// iteration into the next must follow them.
var iterHooks = map[string]func(*FitFault){
	"scaleV": func(f *FitFault) { scaleBy(f.V, 1.01) },
	"scaleU": func(f *FitFault) { scaleBy(f.U, 1.01) },
	"nanU":   func(f *FitFault) { f.U.Set(3, 1, math.NaN()) },
}

func scaleBy(a *mat.Dense, s float64) {
	d := a.Data()
	for i := range d {
		d[i] *= s
	}
}

// armAt5 returns a function that arms hook to fire on the first visit of
// iteration 5 only; each run of a fit needs its own arming.
func armAt5(hook func(*FitFault)) func() {
	return func() {
		fired := false
		faultinject.Enable(faultinject.FitIter, func(p any) error {
			if f := p.(*FitFault); f.Iter == 5 && !fired {
				fired = true
				hook(f)
			}
			return nil
		})
	}
}

// TestSweepStaleCarryRefreshed arms each of iterHooks at iteration 5. The
// carried product and the carried graph term (D·U or L·U) must follow the
// hook's factors, or the fused runner leaves the reference; only scaleU
// sees a stale graph term.
func TestSweepStaleCarryRefreshed(t *testing.T) {
	defer faultinject.Reset()
	forEachWidth(t, func(t *testing.T) {
		for _, density := range []float64{0.93, 0.5} {
			in, l := sweepInput(t, 70, density, 8)
			for _, up := range []Updater{Multiplicative, GradientDescent} {
				for name, hook := range iterHooks {
					cfg := Config{K: 5, Lambda: 0.1, P: 3, MaxIter: 15, Tol: 1e-300, Seed: 3,
						Updater: up, LearningRate: 0.02}.withDefaults()
					t.Run(fmt.Sprintf("%.2f/%s/%s", in.omega.Density(), up, name), func(t *testing.T) {
						defer faultinject.Reset()
						model := runBoth(t, in, l, SMFL, cfg, armAt5(hook))
						if name == "nanU" && model.Recoveries == 0 {
							t.Fatal("the NaN caused no rollback")
						}
					})
				}
			}
		}
	})
}

// sweepFor binds a sweep to explicit factors and data, with the loop form
// chosen by dense rather than by the mask's density.
func sweepFor(u, v, x, w *mat.Dense, omega *mat.Mask, c0 int, dense bool) *sweep {
	n, m := x.Dims()
	rx := omega.Project(nil, x)
	if w != nil {
		rx = mat.Hadamard(nil, rx, w)
	}
	ptr, cols := omega.RowIndex()
	return &sweep{u: u, v: v, x: x, rx: rx, w: w, e: mat.NewDense(n, m), omega: omega, ptr: ptr, cols: cols, dense: dense, startCol: c0}
}

// TestVPassMaskedMatchesDense checks both loop forms of the V pass against
// UᵀR_Ω(X) and UᵀR_Ω(UV) from dense products, across mask densities, with
// and without a frozen-column offset, at one worker and with the column
// partition split over four.
func TestVPassMaskedMatchesDense(t *testing.T) {
	defer mat.SetWorkers(mat.SetWorkers(1))
	defer mat.SetThreshold(mat.SetThreshold(0))
	rng := rand.New(rand.NewSource(21))
	for _, workers := range []int{1, 4} {
		mat.SetWorkers(workers)
		poolAll(workers > 1)
		for _, density := range []float64{0, 0.3, 0.7, 1.0} {
			for _, c0 := range []int{0, 2} {
				n, k, m := 23, 5, 9
				u := mat.RandomUniform(rng, n, k, 0, 1)
				v := mat.RandomUniform(rng, k, m, 0, 1)
				x := mat.RandomUniform(rng, n, m, 0, 1)
				omega := randomDensityMask(rng, n, m, density)
				wantNum := mat.MulAT(nil, u, omega.Project(nil, x))
				wantDen := mat.MulAT(nil, u, omega.Project(nil, mat.Mul(nil, u, v)))
				for _, dense := range []bool{false, true} {
					s := sweepFor(u, v, x, nil, omega, c0, dense)
					seen := make([]int, m)
					s.vPass(func(lo, hi int, num, den []float64) {
						for j := lo; j < hi; j++ {
							seen[j]++
							for r := 0; r < k; r++ {
								for _, c := range []struct {
									got, want float64
									what      string
								}{{num[(j-lo)*k+r], wantNum.At(r, j), "UᵀR_Ω(X)"}, {den[(j-lo)*k+r], wantDen.At(r, j), "UᵀR_Ω(UV)"}} {
									if math.Abs(c.got-c.want) > 1e-12 {
										t.Fatalf("workers %d density %.1f c0=%d dense=%v: %s (%d,%d) = %v, want %v",
											workers, density, c0, dense, c.what, r, j, c.got, c.want)
									}
								}
							}
						}
					})
					for j, c := range seen {
						want := 1
						if j < c0 {
							want = 0 // frozen landmark column
						}
						if c != want {
							t.Fatalf("column %d visited %d times, want %d", j, c, want)
						}
					}
				}
			}
		}
	}
}

// TestObjectivePassMatchesDense checks both loop forms of the objective
// pass, weighted and not, against MaskedFrob2 and MaskedWeightedFrob2 over
// a dense product, and the carried E against R_Ω(UV)⊙W, at one worker and
// with the row partition split over four.
func TestObjectivePassMatchesDense(t *testing.T) {
	defer mat.SetWorkers(mat.SetWorkers(1))
	defer mat.SetThreshold(mat.SetThreshold(0))
	rng := rand.New(rand.NewSource(22))
	for _, workers := range []int{1, 4} {
		mat.SetWorkers(workers)
		poolAll(workers > 1)
		for _, sh := range []struct{ n, k, m int }{{1, 1, 1}, {17, 4, 13}, {70, 5, 9}} {
			for _, density := range []float64{0, 0.3, 0.7, 1.0} {
				u := mat.RandomUniform(rng, sh.n, sh.k, 0, 1)
				v := mat.RandomUniform(rng, sh.k, sh.m, 0, 1)
				x := mat.RandomUniform(rng, sh.n, sh.m, 0, 1)
				w := mat.RandomUniform(rng, sh.n, sh.m, 0, 2)
				omega := randomDensityMask(rng, sh.n, sh.m, density)
				uv := mat.Mul(nil, u, v)
				for _, wts := range []*mat.Dense{nil, w} {
					want := omega.MaskedFrob2(x, uv)
					wantE := omega.Project(nil, uv)
					if wts != nil {
						want = omega.MaskedWeightedFrob2(x, uv, wts)
						mat.Hadamard(wantE, wantE, wts)
					}
					for _, dense := range []bool{false, true} {
						s := sweepFor(u, v, x, wts, omega, 0, dense)
						got := s.objective()
						if math.Abs(got-want) > 1e-12*math.Max(want, 1) {
							t.Fatalf("workers %d %dx%dx%d density %.1f weighted=%v dense=%v: objective %v, want %v",
								workers, sh.n, sh.k, sh.m, density, wts != nil, dense, got, want)
						}
						if !mat.EqualApprox(s.e, wantE, 1e-12) {
							t.Fatalf("workers %d %dx%dx%d density %.1f weighted=%v dense=%v: E differs from R_Ω(UV)⊙W",
								workers, sh.n, sh.k, sh.m, density, wts != nil, dense)
						}
					}
				}
			}
		}
	}
}

// poolAll forces the pooled paths on (threshold 1) or restores the default.
func poolAll(on bool) {
	if on {
		mat.SetThreshold(1)
	} else {
		mat.SetThreshold(0)
	}
}

func randomDensityMask(rng *rand.Rand, n, m int, density float64) *mat.Mask {
	omega := mat.NewMask(n, m)
	for i := 0; i < n; i++ {
		for j := 0; j < m; j++ {
			if rng.Float64() < density {
				omega.Observe(i, j)
			}
		}
	}
	return omega
}
