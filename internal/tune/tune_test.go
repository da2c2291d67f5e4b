package tune

import (
	"testing"

	"github.com/spatialmf/smfl/internal/core"
	"github.com/spatialmf/smfl/internal/dataset"
	"github.com/spatialmf/smfl/internal/mat"
)

func tuneProblem(t *testing.T) (*mat.Dense, *mat.Mask, int) {
	t.Helper()
	res, err := dataset.Generate(dataset.Spec{
		Name: "tune", N: 200, M: 6, L: 2,
		Latents: 3, Bumps: 4, Clusters: 4, Noise: 0.03, Seed: 60,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := res.Data.Normalize(); err != nil {
		t.Fatal(err)
	}
	mask, err := dataset.InjectMissing(res.Data, dataset.MissingSpec{Rate: 0.1, Seed: 60})
	if err != nil {
		t.Fatal(err)
	}
	return res.Data.X, mask, res.Data.L
}

func TestSearchFindsFiniteBest(t *testing.T) {
	x, omega, l := tuneProblem(t)
	base := core.Config{MaxIter: 60, Tol: 1e-6}
	grid := Grid{K: []int{3, 5}, Lambda: []float64{0.05, 0.5}, P: []int{3}}
	res, err := Search(x, omega, l, core.SMFL, base, grid, 0.15, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.BestRMS <= 0 {
		t.Fatalf("best RMS = %v", res.BestRMS)
	}
	if len(res.Trials) != 4 {
		t.Fatalf("trials = %d, want 4", len(res.Trials))
	}
	// Best must be the minimum of the successful trials.
	for _, tr := range res.Trials {
		if tr.Err == nil && tr.RMS < res.BestRMS {
			t.Fatalf("trial %v beats reported best %v", tr.RMS, res.BestRMS)
		}
	}
	// Trials sorted ascending among successes.
	for i := 1; i < len(res.Trials); i++ {
		a, b := res.Trials[i-1], res.Trials[i]
		if a.Err == nil && b.Err == nil && a.RMS > b.RMS {
			t.Fatal("trials not sorted")
		}
	}
}

func TestSearchRespectsBaseWhenGridEmpty(t *testing.T) {
	x, omega, l := tuneProblem(t)
	base := core.Config{K: 4, Lambda: 0.1, P: 3, MaxIter: 40}
	res, err := Search(x, omega, l, core.SMF, base, Grid{}, 0.15, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trials) != 1 {
		t.Fatalf("trials = %d, want 1", len(res.Trials))
	}
	if res.Best.K != 4 || res.Best.Lambda != 0.1 || res.Best.P != 3 {
		t.Fatalf("best cfg = %+v", res.Best)
	}
}

func TestSearchDeterministic(t *testing.T) {
	x, omega, l := tuneProblem(t)
	base := core.Config{MaxIter: 40}
	grid := Grid{K: []int{3, 4}, Lambda: []float64{0.1}, P: []int{3}}
	a, err := Search(x, omega, l, core.SMFL, base, grid, 0.1, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Search(x, omega, l, core.SMFL, base, grid, 0.1, 7)
	if err != nil {
		t.Fatal(err)
	}
	if a.BestRMS != b.BestRMS || a.Best.K != b.Best.K {
		t.Fatal("same seed produced different search results")
	}
}

func TestSearchSkipsFailingGridPoints(t *testing.T) {
	x, omega, l := tuneProblem(t)
	base := core.Config{MaxIter: 30}
	// K = 1000 > N fails validation; K = 3 succeeds.
	grid := Grid{K: []int{1000, 3}, Lambda: []float64{0.1}, P: []int{3}}
	res, err := Search(x, omega, l, core.SMFL, base, grid, 0.15, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Best.K != 3 {
		t.Fatalf("best K = %d, want 3", res.Best.K)
	}
	var failed int
	for _, tr := range res.Trials {
		if tr.Err != nil {
			failed++
		}
	}
	if failed != 1 {
		t.Fatalf("failed trials = %d, want 1", failed)
	}
}

func TestSearchValidation(t *testing.T) {
	x, omega, l := tuneProblem(t)
	base := core.Config{MaxIter: 10}
	if _, err := Search(x, omega, l, core.SMF, base, Grid{}, 1.5, 1); err == nil {
		t.Fatal("expected valFrac error")
	}
	if _, err := Search(mat.NewDense(0, 0), nil, 0, core.NMF, base, Grid{}, 0.1, 1); err == nil {
		t.Fatal("expected empty-matrix error")
	}
	// All grid points fail → error.
	if _, err := Search(x, omega, l, core.SMFL, base, Grid{K: []int{10000}}, 0.1, 1); err == nil {
		t.Fatal("expected all-failed error")
	}
}
