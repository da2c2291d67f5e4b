package landmark

import (
	"math"
	"math/rand"
	"testing"

	"github.com/spatialmf/smfl/internal/kmeans"
	"github.com/spatialmf/smfl/internal/mat"
)

func TestBucketSizesPartitionRows(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	si := clusteredSI(rng, 500, 5, 2)
	ix, err := Build(si, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, rows := range ix.buckets {
		total += len(rows)
	}
	if total != 500 {
		t.Fatalf("bucket sizes sum to %d, want 500 (buckets must partition the rows)", total)
	}
}

// TestKCentersRecoverClusters: weighted K-means over the bucket-centroid
// coreset must land one center near each true blob center, just like
// full-data K-means would — this is what lets the SMFL fit reuse the spatial
// index's landmark set for C.
func TestKCentersRecoverClusters(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	const nc = 4
	truth := mat.NewDense(nc, 2)
	for c := 0; c < nc; c++ {
		truth.Set(c, 0, float64(c%2)*20-10)
		truth.Set(c, 1, float64(c/2)*20-10)
	}
	const n = 1200
	si := mat.NewDense(n, 2)
	for i := 0; i < n; i++ {
		c := truth.Row(i % nc)
		si.Set(i, 0, c[0]+0.5*rng.NormFloat64())
		si.Set(i, 1, c[1]+0.5*rng.NormFloat64())
	}
	ix, err := Build(si, Config{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	centers, err := ix.KCenters(nc, kmeans.DefaultMaxIter, 2)
	if err != nil {
		t.Fatal(err)
	}
	if r, c := centers.Dims(); r != nc || c != 2 {
		t.Fatalf("centers %dx%d, want %dx2", r, c, nc)
	}
	used := make([]bool, nc)
	for c := 0; c < nc; c++ {
		best, bd := -1, math.Inf(1)
		for g := 0; g < nc; g++ {
			if used[g] {
				continue
			}
			if d := sqDist(truth.Row(c), centers.Row(g)); d < bd {
				best, bd = g, d
			}
		}
		if best < 0 || bd > 1.0 {
			t.Fatalf("no coreset center within 1.0 of true center %v (closest at d²=%v)", truth.Row(c), bd)
		}
		used[best] = true
	}
	// Determinism for a fixed seed.
	again, err := ix.KCenters(nc, kmeans.DefaultMaxIter, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !mat.EqualApprox(centers, again, 0) {
		t.Fatal("KCenters is not deterministic for a fixed seed")
	}
}

func TestKCentersValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	si := clusteredSI(rng, 100, 3, 2)
	ix, err := Build(si, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ix.KCenters(0, kmeans.DefaultMaxIter, 1); err == nil {
		t.Fatal("KCenters accepted k=0")
	}
	if _, err := ix.KCenters(len(ix.landmarks)+1, kmeans.DefaultMaxIter, 1); err == nil {
		t.Fatal("KCenters accepted k greater than the landmark count")
	}
}
