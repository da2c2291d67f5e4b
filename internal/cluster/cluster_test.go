package cluster

import (
	"math"
	"math/rand"
	"testing"

	"github.com/spatialmf/smfl/internal/core"
	"github.com/spatialmf/smfl/internal/dataset"
	"github.com/spatialmf/smfl/internal/mat"
)

func TestHungarianKnown(t *testing.T) {
	cost := [][]float64{
		{4, 1, 3},
		{2, 0, 5},
		{3, 2, 2},
	}
	assign, err := Hungarian(cost)
	if err != nil {
		t.Fatal(err)
	}
	// Optimal: 0→1 (1), 1→0 (2), 2→2 (2) = 5.
	var total float64
	seen := map[int]bool{}
	for i, j := range assign {
		total += cost[i][j]
		if seen[j] {
			t.Fatal("assignment is not a permutation")
		}
		seen[j] = true
	}
	if total != 5 {
		t.Fatalf("Hungarian cost = %v, want 5 (assign %v)", total, assign)
	}
}

func TestHungarianMatchesBruteForceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(80))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(5)
		cost := make([][]float64, n)
		for i := range cost {
			cost[i] = make([]float64, n)
			for j := range cost[i] {
				cost[i][j] = math.Round(rng.Float64() * 20)
			}
		}
		assign, err := Hungarian(cost)
		if err != nil {
			t.Fatal(err)
		}
		var got float64
		for i, j := range assign {
			got += cost[i][j]
		}
		want := bruteAssign(cost)
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("trial %d: Hungarian %v vs brute %v", trial, got, want)
		}
	}
}

// bruteAssign enumerates all permutations (n ≤ 6).
func bruteAssign(cost [][]float64) float64 {
	n := len(cost)
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	best := math.Inf(1)
	var rec func(k int)
	rec = func(k int) {
		if k == n {
			var s float64
			for i, j := range perm {
				s += cost[i][j]
			}
			if s < best {
				best = s
			}
			return
		}
		for i := k; i < n; i++ {
			perm[k], perm[i] = perm[i], perm[k]
			rec(k + 1)
			perm[k], perm[i] = perm[i], perm[k]
		}
	}
	rec(0)
	return best
}

func TestAccuracyPermutationInvariance(t *testing.T) {
	truth := []int{0, 0, 1, 1, 2, 2}
	// Same clustering with permuted label names must score 1.
	pred := []int{2, 2, 0, 0, 1, 1}
	acc, err := Accuracy(truth, pred)
	if err != nil {
		t.Fatal(err)
	}
	if acc != 1 {
		t.Fatalf("accuracy = %v, want 1", acc)
	}
}

func TestAccuracyPartial(t *testing.T) {
	truth := []int{0, 0, 1, 1}
	pred := []int{0, 1, 1, 1}
	acc, err := Accuracy(truth, pred)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(acc-0.75) > 1e-12 {
		t.Fatalf("accuracy = %v, want 0.75", acc)
	}
}

func TestAccuracyValidation(t *testing.T) {
	if _, err := Accuracy([]int{0}, []int{0, 1}); err == nil {
		t.Fatal("expected length error")
	}
	if _, err := Accuracy([]int{-1}, []int{0}); err == nil {
		t.Fatal("expected negative-label error")
	}
}

func clusterProblem(t *testing.T) (*mat.Dense, *mat.Mask, []int, int) {
	t.Helper()
	res, err := dataset.Generate(dataset.Spec{
		Name: "cl", N: 240, M: 7, L: 2,
		Latents: 3, Bumps: 4, Clusters: 4, Noise: 0.02, Seed: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := res.Data.Normalize(); err != nil {
		t.Fatal(err)
	}
	mask, err := dataset.InjectMissing(res.Data, dataset.MissingSpec{Rate: 0.1, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	return res.Data.X, mask, res.Labels, res.Data.L
}

func TestClusterersBeatChance(t *testing.T) {
	x, omega, truth, l := clusterProblem(t)
	k := 4
	cfg := core.Config{MaxIter: 150, Seed: 3}
	for _, c := range []Clusterer{
		&PCAClusterer{Seed: 3},
		&KMeansClusterer{Seed: 3},
		&MFClusterer{Method: core.SMF, Cfg: cfg},
		&MFClusterer{Method: core.SMFL, Cfg: cfg},
	} {
		labels, err := c.Cluster(x, omega, l, k)
		if err != nil {
			t.Fatalf("%s: %v", c.Name(), err)
		}
		acc, err := Accuracy(truth, labels)
		if err != nil {
			t.Fatal(err)
		}
		if acc <= 1.0/float64(k)+0.1 {
			t.Errorf("%s accuracy %.3f barely beats chance", c.Name(), acc)
		}
	}
}

func TestSMFLClusteringTracksSpatialTruth(t *testing.T) {
	// Fig. 4b shape: SMFL clusters spatial data well (landmarks = k-means
	// cluster centers make U nearly an indicator of the true regions).
	x, omega, truth, l := clusterProblem(t)
	c := &MFClusterer{Method: core.SMFL, Cfg: core.Config{K: 4, MaxIter: 400, Tol: 1e-9, Seed: 4}}
	labels, err := c.Cluster(x, omega, l, 4)
	if err != nil {
		t.Fatal(err)
	}
	acc, err := Accuracy(truth, labels)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.7 {
		t.Fatalf("SMFL clustering accuracy %.3f < 0.7", acc)
	}
	// Fig. 4b ordering: SMFL should not lose to the PCA baseline here.
	pcaLabels, err := (&PCAClusterer{Seed: 4}).Cluster(x, omega, l, 4)
	if err != nil {
		t.Fatal(err)
	}
	pcaAcc, err := Accuracy(truth, pcaLabels)
	if err != nil {
		t.Fatal(err)
	}
	if acc < pcaAcc {
		t.Fatalf("SMFL accuracy %.3f below PCA %.3f", acc, pcaAcc)
	}
}
