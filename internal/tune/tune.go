// Package tune selects SMFL/SMF hyperparameters by validation masking: a
// fraction of the observed entries is hidden, each grid point is fitted on
// the remainder, and the configuration with the lowest validation RMS wins.
// This automates the paper's Section IV-D sensitivity analysis (λ, p, K) for
// a concrete dataset.
package tune

import (
	"errors"
	"math/rand"
	"sort"

	"github.com/spatialmf/smfl/internal/core"
	"github.com/spatialmf/smfl/internal/mat"
	"github.com/spatialmf/smfl/internal/metrics"
)

// Grid enumerates candidate values per hyperparameter. Empty slices keep the
// base config's value.
type Grid struct {
	K      []int
	Lambda []float64
	P      []int
}

// Trial is one evaluated grid point.
type Trial struct {
	Cfg core.Config
	RMS float64
	Err error
}

// Result is the outcome of a Search.
type Result struct {
	Best    core.Config
	BestRMS float64
	Trials  []Trial // sorted by ascending RMS, failed trials last
}

// Search evaluates the grid. valFrac (default 0.1) of the observed non-SI
// entries form the validation set; omega may be nil for a fully observed x.
func Search(x *mat.Dense, omega *mat.Mask, l int, method core.Method, base core.Config, grid Grid, valFrac float64, seed int64) (*Result, error) {
	n, m := x.Dims()
	if n == 0 || m == 0 {
		return nil, errors.New("tune: empty matrix")
	}
	if omega == nil {
		omega = mat.FullMask(n, m)
	}
	if valFrac <= 0 {
		valFrac = 0.1
	}
	if valFrac >= 1 {
		return nil, errors.New("tune: valFrac must be in (0,1)")
	}
	// Build the validation split: hide valFrac of the observed non-SI cells.
	rng := rand.New(rand.NewSource(seed))
	trainMask := omega.Clone()
	valMask := mat.NewMask(n, m)
	var valCount int
	for i := 0; i < n; i++ {
		for j := l; j < m; j++ {
			if omega.Observed(i, j) && rng.Float64() < valFrac {
				trainMask.Hide(i, j)
				valMask.Observe(i, j)
				valCount++
			}
		}
	}
	if valCount == 0 {
		return nil, errors.New("tune: validation split is empty; increase valFrac")
	}

	ks := grid.K
	if len(ks) == 0 {
		ks = []int{base.K}
	}
	lambdas := grid.Lambda
	if len(lambdas) == 0 {
		lambdas = []float64{base.Lambda}
	}
	ps := grid.P
	if len(ps) == 0 {
		ps = []int{base.P}
	}

	res := &Result{BestRMS: -1}
	for _, k := range ks {
		for _, lam := range lambdas {
			for _, p := range ps {
				cfg := base
				cfg.K, cfg.Lambda, cfg.P = k, lam, p
				cfg.Seed = seed
				model, err := core.Fit(x, trainMask, l, method, cfg)
				if err != nil {
					res.Trials = append(res.Trials, Trial{Cfg: cfg, Err: err})
					continue
				}
				pred := model.Predict()
				rms, err := metrics.RMSOverSet(pred, x, valMask)
				if err != nil {
					res.Trials = append(res.Trials, Trial{Cfg: cfg, Err: err})
					continue
				}
				res.Trials = append(res.Trials, Trial{Cfg: cfg, RMS: rms})
				if res.BestRMS < 0 || rms < res.BestRMS {
					res.BestRMS = rms
					res.Best = cfg
				}
			}
		}
	}
	if res.BestRMS < 0 {
		return nil, errors.New("tune: every grid point failed")
	}
	sort.SliceStable(res.Trials, func(a, b int) bool {
		ta, tb := res.Trials[a], res.Trials[b]
		if (ta.Err == nil) != (tb.Err == nil) {
			return ta.Err == nil
		}
		return ta.RMS < tb.RMS
	})
	return res, nil
}
