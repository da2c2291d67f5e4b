// Package kmeans implements Lloyd's algorithm with k-means++ seeding. In the
// SMFL pipeline it clusters the spatial information SI and its cluster
// centers become the landmark matrix C (Section III-A of the paper); it also
// serves as the final step of the PCA/MF clustering baselines (Fig. 4b).
package kmeans

import (
	"errors"
	"math"
	"math/rand"

	"github.com/spatialmf/smfl/internal/mat"
)

// Config controls a k-means run.
type Config struct {
	K        int   // number of clusters (required, 1 <= K <= N)
	MaxIter  int   // Lloyd iteration cap; paper default t₂ = 300
	Seed     int64 // RNG seed for k-means++ and empty-cluster reseeding
	Restarts int   // independent restarts, best cost kept; default 1
}

// DefaultMaxIter matches the paper's t₂ = 300 default.
const DefaultMaxIter = 300

// Result holds the outcome of a k-means run.
type Result struct {
	Centers *mat.Dense // K×L cluster centers — the landmark matrix C
	Labels  []int      // length-N assignment
	Cost    float64    // sum of squared distances to assigned centers
	Iters   int        // Lloyd iterations executed (last restart)
}

// Run clusters the rows of x.
func Run(x *mat.Dense, cfg Config) (*Result, error) {
	n, dim := x.Dims()
	if cfg.K <= 0 {
		return nil, errors.New("kmeans: K must be positive")
	}
	if cfg.K > n {
		return nil, errors.New("kmeans: K exceeds the number of points")
	}
	if !x.IsFinite() {
		return nil, errors.New("kmeans: input contains NaN or Inf")
	}
	if cfg.MaxIter <= 0 {
		cfg.MaxIter = DefaultMaxIter
	}
	restarts := cfg.Restarts
	if restarts <= 0 {
		restarts = 1
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	var best *Result
	for r := 0; r < restarts; r++ {
		res := runOnce(x, n, dim, cfg.K, cfg.MaxIter, rng)
		if best == nil || res.Cost < best.Cost {
			best = res
		}
	}
	return best, nil
}

// runOnce is one Lloyd run from a k-means++ start. It reads the points and
// centers from their flat row-major data: row i of x is xd[i·dim:(i+1)·dim].
func runOnce(x *mat.Dense, n, dim, k, maxIter int, rng *rand.Rand) *Result {
	centers := seedPlusPlus(x, n, dim, k, rng)
	xd, cd := x.Data(), centers.Data()
	labels := make([]int, n)
	counts := make([]int, k)
	var cost float64
	iters := 0
	for ; iters < maxIter; iters++ {
		changed := false
		cost = 0
		for i := 0; i < n; i++ {
			xi := xd[i*dim : i*dim+dim]
			bestJ, bestD := 0, math.Inf(1)
			for j := 0; j < k; j++ {
				d := sqDist(xi, cd[j*dim:j*dim+dim])
				if d < bestD {
					bestD, bestJ = d, j
				}
			}
			if labels[i] != bestJ {
				labels[i] = bestJ
				changed = true
			}
			cost += bestD
		}
		if !changed && iters > 0 {
			break
		}
		// Recompute centers: each sums its points in ascending row order.
		clear(cd)
		clear(counts)
		for i, j := range labels {
			c := cd[j*dim : j*dim+dim]
			for d, v := range xd[i*dim : i*dim+dim] {
				c[d] += v
			}
			counts[j]++
		}
		for j, cnt := range counts {
			c := cd[j*dim : j*dim+dim]
			if cnt == 0 {
				// Reseed an empty cluster at a random point.
				r := rng.Intn(n)
				copy(c, xd[r*dim:r*dim+dim])
				continue
			}
			inv := 1 / float64(cnt)
			for d := range c {
				c[d] *= inv
			}
		}
	}
	return &Result{Centers: centers, Labels: labels, Cost: cost, Iters: iters}
}

// seedPlusPlus picks initial centers with the k-means++ D² distribution.
func seedPlusPlus(x *mat.Dense, n, dim, k int, rng *rand.Rand) *mat.Dense {
	centers := mat.NewDense(k, dim)
	for j, idx := range SeedPlusPlusIndices(x, k, rng) {
		copy(centers.Row(j), x.Row(idx))
	}
	return centers
}

// SeedPlusPlusIndices draws k row indices of x with the k-means++ D²
// distribution: the first uniformly, each later one with probability
// proportional to its squared distance to the nearest already-chosen row.
// Rows may repeat only when fewer than k distinct points exist. Exported for
// the landmark selection in internal/landmark, which seeds its spatial
// index (and the SMFL landmark columns) from the same distribution.
func SeedPlusPlusIndices(x *mat.Dense, k int, rng *rand.Rand) []int {
	n, _ := x.Dims()
	idx := make([]int, k)
	idx[0] = rng.Intn(n)
	d2 := make([]float64, n)
	for i := 0; i < n; i++ {
		d2[i] = sqDist(x.Row(i), x.Row(idx[0]))
	}
	for j := 1; j < k; j++ {
		var total float64
		for _, d := range d2 {
			total += d
		}
		var pick int
		if total <= 0 {
			pick = rng.Intn(n) // all points coincide with chosen centers
		} else {
			r := rng.Float64() * total
			var acc float64
			pick = n - 1
			for i, d := range d2 {
				acc += d
				if acc >= r {
					pick = i
					break
				}
			}
		}
		idx[j] = pick
		for i := 0; i < n; i++ {
			if d := sqDist(x.Row(i), x.Row(pick)); d < d2[i] {
				d2[i] = d
			}
		}
	}
	return idx
}

func sqDist(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// Cost computes the k-means objective of an arbitrary (centers, labels) pair;
// exported for tests and diagnostics.
func Cost(x, centers *mat.Dense, labels []int) float64 {
	n, _ := x.Dims()
	var s float64
	for i := 0; i < n; i++ {
		s += sqDist(x.Row(i), centers.Row(labels[i]))
	}
	return s
}
