package core

import (
	"errors"
	"math"
	"testing"

	"github.com/spatialmf/smfl/internal/faultinject"
	"github.com/spatialmf/smfl/internal/mat"
)

// pokeNaN corrupts one factor entry in place, the way an overflowing kernel
// would.
func pokeNaN(f *mat.Dense, i, j int) {
	f.Set(i, j, math.NaN())
}

// TestWatchdogRecoversInjectedNaN is the self-healing acceptance test: a NaN
// poked into a factor mid-run must be detected, rolled back, and the fit must
// still complete with finite factors — automatically, no caller involvement.
func TestWatchdogRecoversInjectedNaN(t *testing.T) {
	defer faultinject.Reset()
	x, omega, l := testProblem(t, 110, 20)
	for _, tc := range []struct {
		name    string
		corrupt func(*FitFault)
	}{
		{"U", func(f *FitFault) { pokeNaN(f.U, 7, 1) }},
		{"V", func(f *FitFault) { pokeNaN(f.V, 1, 3) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer faultinject.Reset()
			// Corrupt iteration 6 exactly once (the retry of the same
			// iteration must run clean, or recovery could never succeed).
			fired := false
			faultinject.Enable(faultinject.FitIter, func(p any) error {
				f := p.(*FitFault)
				if f.Iter == 6 && !fired {
					fired = true
					tc.corrupt(f)
				}
				return nil
			})

			cfg := quickCfg(4)
			cfg.MaxIter = 25
			model, err := Fit(x, omega, l, SMFL, cfg)
			if err != nil {
				t.Fatalf("watchdog failed to heal the run: %v", err)
			}
			if model.Recoveries == 0 {
				t.Fatal("no recovery recorded despite the injected NaN")
			}
			if model.Partial {
				t.Fatal("healed run must not be tagged partial")
			}
			if !mat.FiniteAll(model.U, model.V) {
				t.Fatal("final factors are not finite")
			}
			for i, v := range model.Objective {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("objective[%d] is non-finite", i)
				}
			}
		})
	}
}

// TestWatchdogExhaustionReturnsDivergenceError: corruption injected on every
// retry of the same iteration must exhaust the budget and surface a
// classified DivergenceError with the last-good (finite) model.
func TestWatchdogExhaustionReturnsDivergenceError(t *testing.T) {
	defer faultinject.Reset()
	x, omega, l := testProblem(t, 90, 21)
	faultinject.Enable(faultinject.FitIter, func(p any) error {
		f := p.(*FitFault)
		if f.Iter == 4 {
			pokeNaN(f.U, 0, 0) // every attempt at iteration 4 is poisoned
		}
		return nil
	})
	cfg := quickCfg(4)
	cfg.MaxIter = 20
	model, err := Fit(x, omega, l, SMF, cfg)
	var de *DivergenceError
	if !errors.As(err, &de) {
		t.Fatalf("got %v, want a DivergenceError", err)
	}
	if de.Iter != 4 || de.Retries != watchdogRetries {
		t.Fatalf("DivergenceError{Iter: %d, Retries: %d}, want iteration 4 after %d retries", de.Iter, de.Retries, watchdogRetries)
	}
	if model == nil || !model.Partial {
		t.Fatal("exhaustion must return the last-good model tagged partial")
	}
	if !mat.FiniteAll(model.U, model.V) {
		t.Fatal("returned model must hold the last numerically healthy state")
	}
	if model.Iters != 4 {
		t.Fatalf("last-good model has %d committed iterations, want 4", model.Iters)
	}
}

// TestWatchdogShrinksDivergingGDStep: a gradient-descent learning rate large
// enough to blow up must be healed by step-halving — the run completes with
// finite factors instead of overflowing to Inf.
func TestWatchdogShrinksDivergingGDStep(t *testing.T) {
	x, omega, l := testProblem(t, 100, 23)
	cfg := quickCfg(4)
	cfg.MaxIter = 40
	cfg.Updater = GradientDescent
	cfg.LearningRate = 0.25 // unstable at step scale 1, healed within watchdogRetries halvings

	model, err := Fit(x, omega, l, SMF, cfg)
	if err != nil {
		t.Fatalf("step-shrinking failed to stabilize the run: %v", err)
	}
	if model.Recoveries == 0 {
		t.Fatal("expected at least one rollback at this learning rate")
	}
	if !mat.FiniteAll(model.U, model.V) {
		t.Fatal("final factors are not finite")
	}

	if obj := model.Objective[len(model.Objective)-1]; math.IsNaN(obj) || math.IsInf(obj, 0) {
		t.Fatal("guarded run ended on a non-finite objective")
	}
}

// TestWatchdogObjectiveExplosionRollsBack: an exploding-but-finite objective
// (here forced by scaling U hugely) also trips the watchdog.
func TestWatchdogObjectiveExplosionRollsBack(t *testing.T) {
	defer faultinject.Reset()
	x, omega, l := testProblem(t, 90, 24)
	fired := false
	faultinject.Enable(faultinject.FitIter, func(p any) error {
		f := p.(*FitFault)
		if f.Iter == 5 && !fired {
			fired = true
			d := f.U.Data()
			for i := range d {
				d[i] *= 1e8 // finite, but the objective explodes
			}
		}
		return nil
	})
	cfg := quickCfg(4)
	cfg.MaxIter = 20
	model, err := Fit(x, omega, l, SMF, cfg)
	if err != nil {
		t.Fatalf("watchdog failed on objective explosion: %v", err)
	}
	if model.Recoveries == 0 {
		t.Fatal("no rollback recorded for the exploded objective")
	}
}
