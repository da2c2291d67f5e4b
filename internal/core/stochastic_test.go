package core

import (
	"errors"
	"math"
	"path/filepath"
	"testing"

	"github.com/spatialmf/smfl/internal/dataset"
	"github.com/spatialmf/smfl/internal/faultinject"
	"github.com/spatialmf/smfl/internal/mat"
)

// TestSGDFullBatchMatchesGD is the randomized degenerate-batch equivalence
// check: with BatchCells ≥ |Ω| an epoch is a single batch holding every row,
// which is exactly one full-sweep gradient-descent iteration in the same
// Gauss-Seidel order (U first, V from the updated U). The two
// implementations accumulate in different orders, so agreement is to float
// tolerance, not bit-identity.
func TestSGDFullBatchMatchesGD(t *testing.T) {
	for _, seed := range []int64{3, 17, 41} {
		x, omega, _ := testProblem(t, 90, seed)
		cfg := quickCfg(4)
		cfg.MaxIter = 6
		cfg.Tol = 1e-12
		cfg.LearningRate = 5e-3
		cfg.Seed = seed

		gdCfg := cfg
		gdCfg.Updater = GradientDescent
		gd, err := Fit(x, omega, 0, NMF, gdCfg)
		if err != nil {
			t.Fatal(err)
		}

		sgdCfg := cfg
		sgdCfg.Updater = SGD
		sgdCfg.BatchCells = omega.Count()
		sgd, err := Fit(x, omega, 0, NMF, sgdCfg)
		if err != nil {
			t.Fatal(err)
		}

		const tol = 1e-8
		for i, gv := range gd.U.Data() {
			if d := math.Abs(sgd.U.Data()[i] - gv); d > tol {
				t.Fatalf("seed %d: U entry %d differs by %g", seed, i, d)
			}
		}
		for i, gv := range gd.V.Data() {
			if d := math.Abs(sgd.V.Data()[i] - gv); d > tol {
				t.Fatalf("seed %d: V entry %d differs by %g", seed, i, d)
			}
		}
		for i := range gd.Objective {
			if d := math.Abs(gd.Objective[i] - sgd.Objective[i]); d > 1e-6 {
				t.Fatalf("seed %d: objective[%d] differs by %g", seed, i, d)
			}
		}
	}
}

// TestSVRGConvergesOnEconomic runs the SMFL pipeline on the Economic shape
// with the variance-reduced updater and requires hidden-cell imputation
// within 2% of the full-sweep GD baseline at the same epoch budget — the
// headline quality bar for the stochastic family.
func TestSVRGConvergesOnEconomic(t *testing.T) {
	res, err := dataset.Economic(0.02, 21)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := res.Data.Normalize(); err != nil {
		t.Fatal(err)
	}
	omega, err := dataset.InjectMissing(res.Data, dataset.MissingSpec{Rate: 0.3, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	x := res.Data.X

	cfg := quickCfg(8)
	cfg.MaxIter = 80
	cfg.Tol = 1e-12
	cfg.LearningRate = 5e-3

	gdCfg := cfg
	gdCfg.Updater = GradientDescent
	gd, err := Fit(x, omega, res.Data.L, SMFL, gdCfg)
	if err != nil {
		t.Fatal(err)
	}

	svrgCfg := cfg
	svrgCfg.Updater = SVRG
	svrgCfg.BatchCells = 512
	svrg, err := Fit(x, omega, res.Data.L, SMFL, svrgCfg)
	if err != nil {
		t.Fatal(err)
	}

	gdRMSE := rmsOnHidden(x, gd.Predict(), omega)
	svrgRMSE := rmsOnHidden(x, svrg.Predict(), omega)
	if svrgRMSE > 1.02*gdRMSE {
		t.Fatalf("SVRG hidden RMSE %.5f vs GD %.5f (> 2%% worse)", svrgRMSE, gdRMSE)
	}
	last := svrg.Objective[len(svrg.Objective)-1]
	if first := svrg.Objective[0]; last >= first {
		t.Fatalf("SVRG objective did not decrease: %.4f -> %.4f", first, last)
	}
}

// TestStochasticCrashResume is the fault-injection crash test for the new
// updaters: a checkpoint write dies between temp-file write and rename, the
// previous checkpoint must survive, and resuming it must reproduce the
// uninterrupted run bit-for-bit — sampler state and SVRG anchor included.
func TestStochasticCrashResume(t *testing.T) {
	defer faultinject.Reset()
	x, omega, l := testProblem(t, 100, 13)
	for _, up := range []Updater{SGD, SVRG} {
		t.Run(up.String(), func(t *testing.T) {
			defer faultinject.Reset()
			cfg := quickCfg(4)
			cfg.MaxIter = 24
			cfg.Tol = 1e-12
			cfg.Updater = up
			cfg.LearningRate = 5e-3
			cfg.BatchCells = 50

			full, err := Fit(x, omega, l, SMFL, cfg)
			if err != nil {
				t.Fatal(err)
			}

			ckpt := filepath.Join(t.TempDir(), "fit.ckpt")
			crashed := cfg
			crashed.CheckpointPath = ckpt
			crashed.CheckpointEvery = 4
			crash := errors.New("simulated crash before rename")
			faultinject.Enable(faultinject.PersistRename, faultinject.OnCall(3, faultinject.Fail(crash)))
			model, err := Fit(x, omega, l, SMFL, crashed)
			if !errors.Is(err, crash) {
				t.Fatalf("fit returned %v, want the injected crash", err)
			}
			if model == nil || !model.Partial {
				t.Fatal("crashed fit must return the partial model")
			}
			faultinject.Reset()

			ck, err := LoadCheckpoint(ckpt)
			if err != nil {
				t.Fatalf("previous checkpoint did not survive the crash: %v", err)
			}
			if ck.Model.Iters != 8 {
				t.Fatalf("surviving checkpoint holds %d epochs, want 8", ck.Model.Iters)
			}
			if up == SVRG && ck.AnchorU == nil {
				t.Fatal("SVRG checkpoint lost its anchor snapshot")
			}

			resumed, err := ResumeFit(ckpt, x, omega, &ResumeOptions{MaxIter: 24})
			if err != nil {
				t.Fatal(err)
			}
			bitsEqual(t, "U", full.U, resumed.U)
			bitsEqual(t, "V", full.V, resumed.V)
		})
	}
}

// TestStochasticConfigValidation pins the moved weighted/updater coupling
// (now in Config.validate, naming the allowed updaters) and the stochastic
// parameter checks.
func TestStochasticConfigValidation(t *testing.T) {
	x, omega, l := testProblem(t, 60, 14)
	w := mat.NewDense(60, 6)
	for i := range w.Data() {
		w.Data()[i] = 1
	}
	for _, up := range []Updater{GradientDescent, SGD, SVRG} {
		cfg := quickCfg(3)
		cfg.Updater = up
		cfg.Weights = w
		_, err := Fit(x, omega, l, SMFL, cfg)
		if err == nil {
			t.Fatalf("%v: weighted fit must be rejected", up)
		}
		if want := "allowed updaters: multiplicative"; !contains(err.Error(), want) {
			t.Fatalf("%v: error %q does not name the allowed updaters", up, err)
		}
	}

	cfg := quickCfg(3)
	cfg.Updater = SGD
	cfg.BatchCells = -1
	if _, err := Fit(x, omega, l, SMFL, cfg); err == nil {
		t.Fatal("negative BatchCells must be rejected")
	}
	cfg = quickCfg(3)
	cfg.Updater = Updater(99)
	if _, err := Fit(x, omega, l, SMFL, cfg); err == nil {
		t.Fatal("unknown updater must be rejected in validation")
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestParseUpdaterRoundTrip covers the CLI flag spellings.
func TestParseUpdaterRoundTrip(t *testing.T) {
	for _, up := range []Updater{Multiplicative, GradientDescent, SGD, SVRG} {
		got, err := ParseUpdater(up.String())
		if err != nil || got != up {
			t.Fatalf("round trip %v: got %v, %v", up, got, err)
		}
	}
	if _, err := ParseUpdater("adam"); err == nil {
		t.Fatal("unknown spelling must be rejected")
	}
	if !SGD.Stochastic() || !SVRG.Stochastic() || Multiplicative.Stochastic() || GradientDescent.Stochastic() {
		t.Fatal("Stochastic() misclassifies an updater")
	}
}
