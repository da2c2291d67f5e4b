package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"path/filepath"
	"runtime"
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

// TestStochasticGraphTermPinned pins the bits of SGD and SVRG fits, which
// have no standalone-kernel reference to run beside: an FNV-64a hash over
// the Float64bits of U, V and every objective, at one worker, for both
// methods with a graph term and both spatial indexes. Each runs plain,
// with a FitIter hook at epoch 5 (U scaled by 1.01, or a NaN in U that
// forces a rollback), and at a learning rate that makes the watchdog roll
// back with no hook armed. The epoch's spatial pull reads L·U carried from
// the previous epoch's graph walk, so a carry that missed a hook's U or a
// rollback would change the bits. The hashes are amd64 bits: the arm64
// compiler fuses multiply-adds.
func TestStochasticGraphTermPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("the pinned hashes are amd64 bits; arm64 fuses multiply-adds")
	}
	defer faultinject.Reset()
	defer mat.SetWorkers(mat.SetWorkers(1))
	want := map[string]uint64{
		"sgd/SMF/exact/none":         0x9b9da41df00bba0b,
		"sgd/SMF/exact/scaleU":       0x76807bf1ca8e4548,
		"sgd/SMF/exact/nanU":         0x41acd6e520c1e085,
		"sgd/SMF/exact/diverge":      0x4e11be436bf8a59c,
		"sgd/SMF/landmark/none":      0x3617934a20b819d2,
		"sgd/SMF/landmark/scaleU":    0xc5bdff66fc9b28b7,
		"sgd/SMF/landmark/nanU":      0x254e6c7eabce5168,
		"sgd/SMF/landmark/diverge":   0x2839a2b4895f35ce,
		"sgd/SMFL/exact/none":        0x108487db7952de42,
		"sgd/SMFL/exact/scaleU":      0x00e5b65002e6636d,
		"sgd/SMFL/exact/nanU":        0x2a6fa5e2807c46fe,
		"sgd/SMFL/exact/diverge":     0x06607b2c7af323ef,
		"sgd/SMFL/landmark/none":     0xe3d1547983b991d6,
		"sgd/SMFL/landmark/scaleU":   0x8adb20aa5baadef6,
		"sgd/SMFL/landmark/nanU":     0x0c6fca416853e7b9,
		"sgd/SMFL/landmark/diverge":  0x0e933982c3cb27dc,
		"svrg/SMF/exact/none":        0x246b6662c36c8368,
		"svrg/SMF/exact/scaleU":      0x771dafaf9da0c3f5,
		"svrg/SMF/exact/nanU":        0x5d8dcf5f0ba756e1,
		"svrg/SMF/exact/diverge":     0xee455bfd38678e47,
		"svrg/SMF/landmark/none":     0x8ec538ccb0782fef,
		"svrg/SMF/landmark/scaleU":   0xf3ad963c5a5502ed,
		"svrg/SMF/landmark/nanU":     0x7faaacb88e6d192c,
		"svrg/SMF/landmark/diverge":  0xcc100fca9aa998be,
		"svrg/SMFL/exact/none":       0xeb36f3414f744a67,
		"svrg/SMFL/exact/scaleU":     0xc353c7c4ea4e2df2,
		"svrg/SMFL/exact/nanU":       0x5884a7a3bc46daea,
		"svrg/SMFL/exact/diverge":    0xe8139b2940b1e378,
		"svrg/SMFL/landmark/none":    0xcc698307ed911fec,
		"svrg/SMFL/landmark/scaleU":  0x707b016d08dd70c5,
		"svrg/SMFL/landmark/nanU":    0x31cebbf953bae821,
		"svrg/SMFL/landmark/diverge": 0xac33bcc9557fbbd3,
	}
	x, omega, l := testProblem(t, 120, 16)
	for _, up := range []Updater{SGD, SVRG} {
		for _, method := range []Method{SMF, SMFL} {
			for _, ix := range []SpatialIndex{SpatialExact, SpatialLandmark} {
				for _, hook := range []string{"none", "scaleU", "nanU", "diverge"} {
					name := fmt.Sprintf("%s/%s/%s/%s", up, method, ix, hook)
					t.Run(name, func(t *testing.T) {
						defer faultinject.Reset()
						if h := iterHooks[hook]; h != nil {
							armAt5(h)()
						}
						cfg := quickCfg(4)
						cfg.MaxIter = 12
						cfg.Tol = 1e-300
						cfg.Updater = up
						cfg.LearningRate = 5e-3
						cfg.BatchCells = 50
						cfg.SpatialIndex = ix
						if hook == "diverge" {
							cfg.LearningRate = 1
						}
						model, err := Fit(x, omega, l, method, cfg)
						if err != nil {
							t.Fatal(err)
						}
						if (hook == "nanU" || hook == "diverge") && model.Recoveries == 0 {
							t.Fatal("no rollback")
						}
						h := fnv.New64a()
						var b [8]byte
						for _, d := range [][]float64{model.U.Data(), model.V.Data(), model.Objective} {
							for _, f := range d {
								binary.LittleEndian.PutUint64(b[:], math.Float64bits(f))
								h.Write(b[:])
							}
						}
						if got := h.Sum64(); got != want[name] {
							t.Errorf("hash %#016x, want %#016x", got, want[name])
						}
					})
				}
			}
		}
	}
}
