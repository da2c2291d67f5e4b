package core

import (
	"math"
	"strings"
	"testing"

	"github.com/spatialmf/smfl/internal/dataset"
	"github.com/spatialmf/smfl/internal/mat"
)

// testProblem builds a small normalized spatial dataset with a 10% missing
// mask, returning ground truth x, the mask, and L.
func testProblem(t *testing.T, n int, seed int64) (*mat.Dense, *mat.Mask, int) {
	t.Helper()
	res, err := dataset.Generate(dataset.Spec{
		Name: "fit", N: n, M: 6, L: 2,
		Latents: 3, Bumps: 4, Clusters: 4, Noise: 0.02, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := res.Data.Normalize(); err != nil {
		t.Fatal(err)
	}
	mask, err := dataset.InjectMissing(res.Data, dataset.MissingSpec{Rate: 0.1, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return res.Data.X, mask, res.Data.L
}

func quickCfg(k int) Config {
	return Config{K: k, Lambda: 0.1, P: 3, MaxIter: 120, Tol: 1e-6, Seed: 1}
}

func rmsOnHidden(x, xhat *mat.Dense, omega *mat.Mask) float64 {
	psi := omega.Complement()
	return math.Sqrt(psi.MaskedFrob2(x, xhat) / float64(psi.Count()))
}

// TestParseMethod covers the CLI method spellings: every Method's String
// round-trips, in any letter case, and an unknown name is refused.
func TestParseMethod(t *testing.T) {
	for _, m := range []Method{NMF, SMF, SMFL} {
		for _, s := range []string{m.String(), strings.ToLower(m.String())} {
			if got, err := ParseMethod(s); err != nil || got != m {
				t.Fatalf("ParseMethod(%q) = %v, %v", s, got, err)
			}
		}
	}
	if _, err := ParseMethod("bogus"); err == nil {
		t.Fatal("ParseMethod accepted an unknown method")
	}
}

func TestFitShapes(t *testing.T) {
	x, omega, l := testProblem(t, 150, 1)
	for _, method := range []Method{NMF, SMF, SMFL} {
		model, err := Fit(x, omega, l, method, quickCfg(5))
		if err != nil {
			t.Fatalf("%v: %v", method, err)
		}
		if r, c := model.U.Dims(); r != 150 || c != 5 {
			t.Fatalf("%v: U %dx%d", method, r, c)
		}
		if r, c := model.V.Dims(); r != 5 || c != 6 {
			t.Fatalf("%v: V %dx%d", method, r, c)
		}
		if !model.U.IsFinite() || !model.V.IsFinite() {
			t.Fatalf("%v: non-finite factors", method)
		}
	}
}

func TestFactorsStayNonnegative(t *testing.T) {
	x, omega, l := testProblem(t, 120, 2)
	for _, method := range []Method{NMF, SMF, SMFL} {
		model, err := Fit(x, omega, l, method, quickCfg(4))
		if err != nil {
			t.Fatal(err)
		}
		if mat.Min(model.U) < 0 || mat.Min(model.V) < 0 {
			t.Fatalf("%v: negative factor entries", method)
		}
	}
}

func TestLandmarksInjectedAndFrozen(t *testing.T) {
	x, omega, l := testProblem(t, 130, 3)
	model, err := Fit(x, omega, l, SMFL, quickCfg(5))
	if err != nil {
		t.Fatal(err)
	}
	if model.C == nil {
		t.Fatal("SMFL must expose the landmark matrix")
	}
	// The first L columns of V must equal C exactly after any number of
	// iterations — the landmark invariance property.
	locs := model.FeatureLocations()
	if !mat.EqualApprox(locs, model.C, 0) {
		t.Fatalf("landmark columns drifted:\nV[:, :L] = %v\nC = %v", locs, model.C)
	}
}

func TestNonLandmarkMethodsHaveNoC(t *testing.T) {
	x, omega, l := testProblem(t, 100, 4)
	for _, method := range []Method{NMF, SMF} {
		model, err := Fit(x, omega, l, method, quickCfg(4))
		if err != nil {
			t.Fatal(err)
		}
		if model.C != nil {
			t.Fatalf("%v should have no landmarks", method)
		}
	}
}

func TestObjectiveNonIncreasingMultiplicative(t *testing.T) {
	// Propositions 5 & 7: the multiplicative updates never increase the
	// objective. Allow a hair of floating-point slack.
	x, omega, l := testProblem(t, 140, 5)
	for _, method := range []Method{NMF, SMF, SMFL} {
		model, err := Fit(x, omega, l, method, quickCfg(5))
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i < len(model.Objective); i++ {
			prev, cur := model.Objective[i-1], model.Objective[i]
			if cur > prev*(1+1e-9)+1e-12 {
				t.Fatalf("%v: objective increased at iter %d: %v -> %v", method, i, prev, cur)
			}
		}
	}
}

func TestObjectiveNonIncreasingAcrossSeedsProperty(t *testing.T) {
	for seed := int64(10); seed < 16; seed++ {
		x, omega, l := testProblem(t, 90, seed)
		cfg := quickCfg(4)
		cfg.Seed = seed
		model, err := Fit(x, omega, l, SMFL, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i < len(model.Objective); i++ {
			if model.Objective[i] > model.Objective[i-1]*(1+1e-9)+1e-12 {
				t.Fatalf("seed %d: objective increased at iter %d", seed, i)
			}
		}
	}
}

func TestImputeBeatsMeanBaseline(t *testing.T) {
	x, omega, l := testProblem(t, 200, 6)
	xhat, _, err := Impute(x, omega, l, SMFL, quickCfg(5))
	if err != nil {
		t.Fatal(err)
	}
	// Column-mean baseline.
	meanImp := x.Clone()
	if err := dataset.FillColumnMeans(meanImp, omega); err != nil {
		t.Fatal(err)
	}
	smflRMS := rmsOnHidden(x, xhat, omega)
	meanRMS := rmsOnHidden(x, meanImp, omega)
	if smflRMS >= meanRMS {
		t.Fatalf("SMFL RMS %v not better than column-mean %v", smflRMS, meanRMS)
	}
}

func TestSMFLBeatsNMFOnSpatialData(t *testing.T) {
	// The paper's headline ordering on spatially smooth data.
	var smflTotal, nmfTotal float64
	for seed := int64(20); seed < 23; seed++ {
		x, omega, l := testProblem(t, 220, seed)
		cfg := quickCfg(5)
		cfg.Seed = seed
		xSMFL, _, err := Impute(x, omega, l, SMFL, cfg)
		if err != nil {
			t.Fatal(err)
		}
		xNMF, _, err := Impute(x, omega, l, NMF, cfg)
		if err != nil {
			t.Fatal(err)
		}
		smflTotal += rmsOnHidden(x, xSMFL, omega)
		nmfTotal += rmsOnHidden(x, xNMF, omega)
	}
	if smflTotal >= nmfTotal {
		t.Fatalf("SMFL total RMS %v not better than NMF %v", smflTotal, nmfTotal)
	}
}

func TestRecoverKeepsObservedEntries(t *testing.T) {
	x, omega, l := testProblem(t, 110, 7)
	xhat, _, err := Impute(x, omega, l, SMF, quickCfg(4))
	if err != nil {
		t.Fatal(err)
	}
	n, m := x.Dims()
	for i := 0; i < n; i++ {
		for j := 0; j < m; j++ {
			if omega.Observed(i, j) && xhat.At(i, j) != x.At(i, j) {
				t.Fatalf("observed entry (%d,%d) was changed", i, j)
			}
		}
	}
}

func TestRepairUsesDirtyComplement(t *testing.T) {
	res, err := dataset.Generate(dataset.Spec{
		Name: "rep", N: 150, M: 6, L: 2,
		Latents: 3, Bumps: 4, Clusters: 4, Noise: 0.02, Seed: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := res.Data.Normalize(); err != nil {
		t.Fatal(err)
	}
	truth := res.Data.X.Clone()
	corrupted, dirty, err := dataset.InjectErrors(res.Data, dataset.ErrorSpec{Rate: 0.1, Seed: 8, SpareSI: true})
	if err != nil {
		t.Fatal(err)
	}
	repaired, _, err := Repair(corrupted, dirty, res.Data.L, SMFL, quickCfg(5))
	if err != nil {
		t.Fatal(err)
	}
	// Repaired dirty cells should be closer to truth than the corrupted ones.
	before := dirty.MaskedFrob2(corrupted, truth)
	after := dirty.MaskedFrob2(repaired, truth)
	if after >= before {
		t.Fatalf("repair made things worse: %v -> %v", before, after)
	}
	// Clean cells untouched.
	clean := dirty.Complement()
	if clean.MaskedFrob2(repaired, corrupted) > 0 {
		t.Fatal("repair modified clean cells")
	}
}

func TestDeterministicForSeed(t *testing.T) {
	x, omega, l := testProblem(t, 100, 9)
	a, err := Fit(x, omega, l, SMFL, quickCfg(4))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Fit(x, omega, l, SMFL, quickCfg(4))
	if err != nil {
		t.Fatal(err)
	}
	if !mat.EqualApprox(a.U, b.U, 0) || !mat.EqualApprox(a.V, b.V, 0) {
		t.Fatal("same seed produced different factors")
	}
}

func TestFitValidation(t *testing.T) {
	x, omega, l := testProblem(t, 50, 10)
	if _, err := Fit(x, omega, l, SMFL, Config{K: 100, MaxIter: 1}); err == nil {
		t.Fatal("expected K >= min(N,M) error")
	}
	if _, err := Fit(x, omega, l, SMF, Config{K: 3, Lambda: -1, MaxIter: 1}); err == nil {
		t.Fatal("expected negative lambda error")
	}
	if _, err := Fit(x, omega, 0, SMF, Config{K: 3, MaxIter: 1}); err == nil {
		t.Fatal("expected L=0 error for spatial method")
	}
	// smfl -maxiter/-lambda/-lr reach Config as given, and withDefaults
	// replaces only zeros.
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"MaxIter -1", Config{K: 3, MaxIter: -1}},
		{"Lambda NaN", Config{K: 3, MaxIter: 1, Lambda: math.NaN()}},
		{"Lambda +Inf", Config{K: 3, MaxIter: 1, Lambda: math.Inf(1)}},
		{"LearningRate -1e-3", Config{K: 3, MaxIter: 1, Updater: GradientDescent, LearningRate: -1e-3}},
		{"LearningRate NaN", Config{K: 3, MaxIter: 1, Updater: GradientDescent, LearningRate: math.NaN()}},
		{"LearningRate +Inf", Config{K: 3, MaxIter: 1, Updater: GradientDescent, LearningRate: math.Inf(1)}},
	} {
		if _, err := Fit(x, omega, l, SMF, tc.cfg); err == nil {
			t.Fatalf("%s: expected a validation error", tc.name)
		}
	}
	// A row has at most N−1 neighbors; the graph builders size their
	// neighbor slots from N·P, so a larger P must be refused up front.
	for _, p := range []int{50, 1 << 62} {
		for _, method := range []Method{SMF, SMFL} {
			if _, err := Fit(x, omega, l, method, Config{K: 3, P: p, MaxIter: 1}); err == nil {
				t.Fatalf("%v: expected P=%d ≥ N=50 error", method, p)
			}
		}
	}
	if _, err := Fit(x, omega, l, SMF, Config{K: 3, P: 49, MaxIter: 1}); err != nil {
		t.Fatalf("P = N−1 must fit: %v", err)
	}
	neg := mat.NewDense(10, 4)
	neg.Set(0, 3, -1)
	if _, err := Fit(neg, nil, 2, NMF, Config{K: 2, MaxIter: 1}); err == nil {
		t.Fatal("expected nonnegativity error")
	}
	bad := mat.NewDense(10, 4)
	bad.Set(0, 3, math.NaN())
	if _, err := Fit(bad, nil, 2, NMF, Config{K: 2, MaxIter: 1}); err == nil {
		t.Fatal("expected NaN error")
	}
}

func TestFitWithNilMaskFullyObserved(t *testing.T) {
	x, _, l := testProblem(t, 80, 11)
	cfg := quickCfg(5)
	cfg.Lambda = 0.01 // light smoothing: this test probes reconstruction
	cfg.MaxIter = 300
	model, err := Fit(x, nil, l, SMF, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// With everything observed, the reconstruction should approach x.
	rec := model.Predict()
	rms := math.Sqrt(mat.FrobNorm2(mat.Sub(nil, rec, x)) / float64(80*6))
	if rms > 0.15 {
		t.Fatalf("full-observation reconstruction RMS too high: %v", rms)
	}
}

func TestMissingSIStillFits(t *testing.T) {
	// Table V setting: SI columns themselves have holes.
	x, _, l := testProblem(t, 140, 12)
	n, m := x.Dims()
	omega := mat.FullMask(n, m)
	// Hide a sprinkling of cells in every column, including SI.
	for i := 0; i < n; i += 7 {
		for j := 0; j < m; j++ {
			if (i+j)%3 == 0 {
				omega.Hide(i, j)
			}
		}
	}
	xhat, model, err := Impute(x, omega, l, SMFL, quickCfg(5))
	if err != nil {
		t.Fatal(err)
	}
	if !xhat.IsFinite() {
		t.Fatal("imputation produced non-finite values")
	}
	if model.Iters == 0 {
		t.Fatal("no iterations ran")
	}
}

func TestMethodString(t *testing.T) {
	if NMF.String() != "NMF" || SMF.String() != "SMF" || SMFL.String() != "SMFL" {
		t.Fatal("Method.String wrong")
	}
	if Method(99).String() != "Method(99)" {
		t.Fatal("unknown method formatting wrong")
	}
}
