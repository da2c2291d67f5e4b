package core

import (
	"math"
	"path/filepath"
	"testing"

	"github.com/spatialmf/smfl/internal/mat"
)

func TestParseSpatialIndex(t *testing.T) {
	for _, s := range []SpatialIndex{SpatialExact, SpatialLandmark} {
		got, err := ParseSpatialIndex(s.String())
		if err != nil || got != s {
			t.Fatalf("ParseSpatialIndex(%q) = %v, %v", s.String(), got, err)
		}
	}
	if _, err := ParseSpatialIndex("kdtree"); err == nil {
		t.Fatal("ParseSpatialIndex accepted an unknown mode")
	}
}

// TestLandmarkIndexRMSEWithinExact is the accuracy half of the landmark
// bargain: the approximate graph (and the reused landmark prefix as C) must
// not cost more than 5% hidden-cell RMSE versus the exact spatial path on
// the paper's synthetics.
func TestLandmarkIndexRMSEWithinExact(t *testing.T) {
	for _, method := range []Method{SMF, SMFL} {
		var exactTotal, lmTotal float64
		for seed := int64(30); seed < 33; seed++ {
			x, omega, l := testProblem(t, 220, seed)
			cfg := quickCfg(5)
			cfg.Seed = seed
			xe, _, err := Impute(x, omega, l, method, cfg)
			if err != nil {
				t.Fatalf("%v exact: %v", method, err)
			}
			cfg.SpatialIndex = SpatialLandmark
			xl, _, err := Impute(x, omega, l, method, cfg)
			if err != nil {
				t.Fatalf("%v landmark: %v", method, err)
			}
			exactTotal += rmsOnHidden(x, xe, omega)
			lmTotal += rmsOnHidden(x, xl, omega)
		}
		if lmTotal > exactTotal*1.05 {
			t.Fatalf("%v: landmark-index RMS %v vs exact %v, gap over 5%%", method, lmTotal, exactTotal)
		}
		t.Logf("%v: hidden RMS exact=%.5f landmark=%.5f", method, exactTotal/3, lmTotal/3)
	}
}

func TestLandmarkFitAttachesPlacer(t *testing.T) {
	x, omega, l := testProblem(t, 150, 8)
	cfg := quickCfg(5)
	cfg.SpatialIndex = SpatialLandmark
	model, err := Fit(x, omega, l, SMFL, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if model.Placer == nil {
		t.Fatal("landmark-index fit must attach a Placer")
	}
	if d := model.Placer.Dim(); d != l {
		t.Fatalf("placer dim %d, want %d", d, l)
	}
	if c := model.Placer.Coeff().Cols(); c != cfg.K {
		t.Fatalf("placer coefficient width %d, want %d", c, cfg.K)
	}
	// The reused landmark prefix must still satisfy the injection invariant.
	if model.C == nil {
		t.Fatal("SMFL must expose the landmark matrix")
	}
	if !mat.EqualApprox(model.FeatureLocations(), model.C, 0) {
		t.Fatal("landmark columns drifted from C under the landmark index")
	}
	exact, err := Fit(x, omega, l, SMFL, quickCfg(5))
	if err != nil {
		t.Fatal(err)
	}
	if exact.Placer != nil {
		t.Fatal("exact-index fit must not attach a Placer")
	}
}

func TestPersistRoundtripWithPlacer(t *testing.T) {
	x, omega, l := testProblem(t, 140, 9)
	cfg := quickCfg(4)
	cfg.SpatialIndex = SpatialLandmark
	model, err := Fit(x, omega, l, SMFL, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if model.Placer == nil {
		t.Fatal("fit did not attach a placer")
	}
	path := filepath.Join(t.TempDir(), "m.smfl")
	if err := model.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Config.SpatialIndex != SpatialLandmark {
		t.Fatalf("SpatialIndex did not roundtrip: %v", loaded.Config.SpatialIndex)
	}
	if loaded.Placer == nil {
		t.Fatal("placer did not roundtrip")
	}
	// The placer must warm-start fold-in identically after persistence.
	rows := x.Slice(0, 8, 0, x.Cols())
	a, err := model.FoldIn(rows, nil, 20)
	if err != nil {
		t.Fatal(err)
	}
	b, err := loaded.FoldIn(rows, nil, 20)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range a.Data() {
		if math.Float64bits(v) != math.Float64bits(b.Data()[i]) {
			t.Fatalf("fold-in coefficient %d drifted through persistence: %v vs %v", i, v, b.Data()[i])
		}
	}
}

// TestFoldInFarSIKeepsRandomStart: a row whose SI is too far from every
// landmark for the placer to weight any of them folds in from the same
// random start as on a model without a placer, bit for bit — never from an
// all-zero row, which the multiplicative update cannot leave.
func TestFoldInFarSIKeepsRandomStart(t *testing.T) {
	x, omega, l := testProblem(t, 150, 14)
	cfg := quickCfg(4)
	cfg.SpatialIndex = SpatialLandmark
	model, err := Fit(x, omega, l, SMFL, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if model.Placer == nil {
		t.Fatal("fit did not attach a placer")
	}
	rows := x.Slice(0, 3, 0, x.Cols()).Clone()
	for j := 0; j < l; j++ {
		rows.Set(1, j, 1e200)
	}
	mask := mat.FullMask(rows.Dims())
	mask.Hide(1, x.Cols()-1)
	warm, err := model.FoldIn(rows, mask, 20)
	if err != nil {
		t.Fatal(err)
	}
	cold := *model
	cold.Placer = nil
	want, err := cold.FoldIn(rows, mask, 20)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < cfg.K; j++ {
		if math.Float64bits(warm.At(1, j)) != math.Float64bits(want.At(1, j)) {
			t.Fatalf("far-SI row: coefficient %d is %v, %v without the placer", j, warm.At(1, j), want.At(1, j))
		}
	}
}

// TestFoldInWarmStartDeterministic checks the placer-seeded fold-in keeps
// the contract the serving batcher relies on: batches are deterministic and
// a single-row call reproduces the matching row of a batched call exactly.
func TestFoldInWarmStartDeterministic(t *testing.T) {
	x, omega, l := testProblem(t, 160, 11)
	cfg := quickCfg(4)
	cfg.SpatialIndex = SpatialLandmark
	model, err := Fit(x, omega, l, SMFL, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if model.Placer == nil {
		t.Fatal("fit did not attach a placer")
	}
	rows := x.Slice(0, 5, 0, x.Cols())
	u1, err := model.FoldIn(rows, nil, 60)
	if err != nil {
		t.Fatal(err)
	}
	u2, err := model.FoldIn(rows, nil, 60)
	if err != nil {
		t.Fatal(err)
	}
	if !mat.EqualApprox(u1, u2, 0) {
		t.Fatal("warm-started fold-in is not deterministic")
	}
	single, err := model.FoldIn(x.Slice(0, 1, 0, x.Cols()), nil, 60)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < cfg.K; j++ {
		if single.At(0, j) != u1.At(0, j) {
			t.Fatal("single-row fold-in disagrees with batched row 0")
		}
	}
	if mat.Min(u1) < 0 || !u1.IsFinite() {
		t.Fatal("warm-started coefficients must stay finite and nonnegative")
	}
}

// TestFoldInWarmStartHelpsReconstruction: with V fixed, starting from the
// nearest landmarks' trained coefficients should reconstruct at least as
// well as random initialization given the same small iteration budget.
func TestFoldInWarmStartHelpsReconstruction(t *testing.T) {
	x, omega, l := testProblem(t, 200, 12)
	cfg := quickCfg(5)
	cfg.SpatialIndex = SpatialLandmark
	model, err := Fit(x, omega, l, SMFL, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rows := x.Slice(0, 20, 0, x.Cols())
	const iters = 3 // tight budget: initialization quality dominates
	warm, err := model.FoldIn(rows, nil, iters)
	if err != nil {
		t.Fatal(err)
	}
	cold := *model // FoldIn reads only V/Config/Placer, so a shallow copy is safe
	cold.Placer = nil
	cu, err := cold.FoldIn(rows, nil, iters)
	if err != nil {
		t.Fatal(err)
	}
	res := func(u *mat.Dense) float64 {
		pred := mat.Mul(nil, u, model.V)
		var s float64
		for i := 0; i < rows.Rows(); i++ {
			for j := 0; j < rows.Cols(); j++ {
				d := rows.At(i, j) - pred.At(i, j)
				s += d * d
			}
		}
		return math.Sqrt(s)
	}
	warmRes, coldRes := res(warm), res(cu)
	t.Logf("fold-in residual after %d iters: warm=%.5f cold=%.5f", iters, warmRes, coldRes)
	if warmRes > coldRes*1.02 {
		t.Fatalf("warm start residual %v worse than cold %v", warmRes, coldRes)
	}
}

func TestFitHashSeparatesSpatialIndex(t *testing.T) {
	x, omega, l := testProblem(t, 90, 13)
	in := &input{src: mat.NewDenseSource(x, omega), x: x, omega: omega}
	cfg := quickCfg(4).withDefaults()
	h1 := fitHash(in, SMFL, l, cfg)
	cfg.SpatialIndex = SpatialLandmark
	h2 := fitHash(in, SMFL, l, cfg)
	if h1 == h2 {
		t.Fatal("fitHash must distinguish spatial index modes: a checkpoint's graph depends on it")
	}
}
