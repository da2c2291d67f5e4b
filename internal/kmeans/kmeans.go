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

// slack is the relative margin of runOnce's skip test. It dwarfs the
// rounding that the bounds and the distances behind them collect, a few
// units in the last place per operation over dim terms and up to millions
// of updates, so while squared distances stay above the subnormal range no
// point is skipped that Lloyd's scan would move.
const slack = 1e-9

// runOnce is one Lloyd run from a k-means++ start. It reads the points and
// centers from their flat row-major data: row i of x is xd[i·dim:(i+1)·dim].
//
// Hamerly's bounds (Hamerly, "Making k-means even faster", SDM 2010) let it
// skip the points that provably keep their label, with Lloyd's answer:
// upper[i] ≥ d(x_i, c_label) and lower[i] ≤ d(x_i, c_j) for every other
// center j. A point whose upper bound is below both its lower bound and half
// the gap from its center to the nearest other center has a unique nearest
// center, its own, so Lloyd's strict first-minimum scan would keep it there.
// Every other point gets that scan. An exact tie makes lower ≤ upper and is
// never skipped, and NaN bounds fail the test. Centers are recomputed from
// the labels in row order, as Lloyd does, so labels, centers, Iters and the
// reseeds' rng draws are Lloyd's, and Cost is Lloyd's last assignment sum.
func runOnce(x *mat.Dense, n, dim, k, maxIter int, rng *rand.Rand) *Result {
	centers := seedPlusPlus(x, n, dim, k, rng)
	xd, cd := x.Data(), centers.Data()
	labels := make([]int, n)
	counts := make([]int, k)
	upper, lower := make([]float64, n), make([]float64, n)
	for i := range upper {
		upper[i] = math.Inf(1) // the first pass scans every point
	}
	prev := make([]float64, k*dim) // the centers the last assignment read
	half := make([]float64, k)     // half the gap to the nearest other center
	move := make([]float64, k)     // each center's last movement
	drop := make([]float64, k)     // the largest movement of any other center
	iters := 0
	for ; iters < maxIter; iters++ {
		halfGaps(half, cd, k, dim)
		changed := false
		for i := 0; i < n; i++ {
			a := labels[i]
			if upper[i]*(1+slack) < max(lower[i], half[a])*(1-slack) {
				continue
			}
			xi := xd[i*dim : i*dim+dim]
			bestJ, bestD, second := 0, math.Inf(1), math.Inf(1)
			for j := 0; j < k; j++ {
				d := sqDist(xi, cd[j*dim:j*dim+dim])
				if d < bestD {
					second, bestD, bestJ = bestD, d, j
				} else if d < second {
					second = d
				}
			}
			upper[i], lower[i] = math.Sqrt(bestD), math.Sqrt(second)
			if a != bestJ {
				labels[i] = bestJ
				changed = true
			}
		}
		if !changed && iters > 0 {
			break
		}
		copy(prev, cd)
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
		movements(move, drop, prev, cd, dim)
		// The lower bound shrinks by a relative margin as well, so that
		// rounding in a long chain of subtractions cannot leave it above
		// the true distance.
		for i, a := range labels {
			upper[i] += move[a]
			lower[i] = lower[i]*(1-slack) - drop[a]
		}
	}
	// Lloyd's cost is the sum of its last assignment's nearest distances,
	// in row order, against the centers that assignment read: the
	// converged centers, or the pre-update ones when the cap stopped it.
	read := cd
	if iters == maxIter {
		read = prev
	}
	var cost float64
	for i, j := range labels {
		cost += sqDist(xd[i*dim:i*dim+dim], read[j*dim:j*dim+dim])
	}
	return &Result{Centers: centers, Labels: labels, Cost: cost, Iters: iters}
}

// halfGaps stores into half[a] half the distance from center a to its
// nearest other center, +Inf when k = 1.
func halfGaps(half, cd []float64, k, dim int) {
	for a := range half {
		half[a] = math.Inf(1)
	}
	for a := 0; a < k; a++ {
		ca := cd[a*dim : a*dim+dim]
		for j := a + 1; j < k; j++ {
			g := math.Sqrt(sqDist(ca, cd[j*dim:j*dim+dim])) / 2
			half[a] = min(half[a], g)
			half[j] = min(half[j], g)
		}
	}
}

// movements stores each center's movement d(prev_j, cd_j), grown by the skip
// test's margin, into move[j], and the largest movement of any other center
// into drop[j]. A NaN movement (a center that overflowed) counts as +Inf.
func movements(move, drop, prev, cd []float64, dim int) {
	top := 0
	for j := range move {
		m := math.Sqrt(sqDist(prev[j*dim:j*dim+dim], cd[j*dim:j*dim+dim])) * (1 + slack)
		if math.IsNaN(m) {
			m = math.Inf(1)
		}
		move[j] = m
		if m > move[top] {
			top = j
		}
	}
	var next float64
	for j, m := range move {
		drop[j] = move[top]
		if j != top {
			next = max(next, m)
		}
	}
	drop[top] = next
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
