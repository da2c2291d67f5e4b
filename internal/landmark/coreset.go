package landmark

import (
	"errors"
	"math"
	"math/rand"

	"github.com/spatialmf/smfl/internal/mat"
)

// The landmark set doubles as a weighted coreset of SI: each landmark
// carries its bucket population, so K-means over the L weighted landmark
// points approximates K-means over all N rows at O(L·K·d) per iteration.
// This is how the SMFL fit reuses one landmark selection for both the
// spatial index and the paper's landmark matrix C — no second pass over N.

// KCenters clusters the weighted landmark coreset into k centers with
// Lloyd's algorithm (weighted k-means++ seeding), at most maxIter rounds.
// The coreset points are the bucket centroids — already one implicit Lloyd
// step at resolution L — weighted by bucket population, so the result
// tracks full-data K-means far closer than clustering the raw landmark
// positions would. The centroid pass reads the packed bucket coordinates
// (O(N·d), no distance evaluations); everything after is O(L·K·d) per
// iteration. The result is the K×d landmark matrix C of Section III-A.
func (ix *Index) KCenters(k, maxIter int, seed int64) (*mat.Dense, error) {
	l, d := ix.coords.Dims()
	if k <= 0 {
		return nil, errors.New("landmark: KCenters needs k > 0")
	}
	if k > l {
		return nil, errors.New("landmark: KCenters needs at least k landmarks")
	}
	w := make([]float64, l)
	pts := mat.NewDense(l, d)
	for b, rows := range ix.buckets {
		m := len(rows)
		if m == 0 {
			// Coarse-assignment miss left the bucket empty: the landmark
			// represents only itself.
			w[b] = 1
			copy(pts.Row(b), ix.coords.Row(b))
			continue
		}
		w[b] = float64(m)
		row := pts.Row(b)
		bp := ix.bpts[b]
		for i := 0; i < m; i++ {
			for j := 0; j < d; j++ {
				row[j] += bp[i*d+j]
			}
		}
		for j := range row {
			row[j] /= float64(m)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	centers := mat.NewDense(k, d)

	// Weighted k-means++ seeding: the first center by mass, the rest ∝ w·D².
	pickWeighted := func(p []float64) int {
		var total float64
		for _, v := range p {
			total += v
		}
		r := rng.Float64() * total
		for i, v := range p {
			r -= v
			if r <= 0 {
				return i
			}
		}
		return len(p) - 1
	}
	d2 := make([]float64, l)
	prob := make([]float64, l)
	first := pickWeighted(w)
	copy(centers.Row(0), pts.Row(first))
	for i := 0; i < l; i++ {
		d2[i] = sqDist(pts.Row(i), centers.Row(0))
	}
	for c := 1; c < k; c++ {
		for i := 0; i < l; i++ {
			prob[i] = w[i] * d2[i]
		}
		pick := pickWeighted(prob)
		copy(centers.Row(c), pts.Row(pick))
		for i := 0; i < l; i++ {
			if v := sqDist(pts.Row(i), centers.Row(c)); v < d2[i] {
				d2[i] = v
			}
		}
	}

	// Weighted Lloyd until the assignment stabilizes.
	assign := make([]int, l)
	sums := mat.NewDense(k, d)
	mass := make([]float64, k)
	for it := 0; it < maxIter; it++ {
		changed := false
		for i := 0; i < l; i++ {
			best, bd := 0, math.Inf(1)
			for c := 0; c < k; c++ {
				if v := sqDist(pts.Row(i), centers.Row(c)); v < bd {
					best, bd = c, v
				}
			}
			if assign[i] != best {
				assign[i] = best
				changed = true
			}
		}
		if !changed && it > 0 {
			break
		}
		sums.Zero()
		for c := range mass {
			mass[c] = 0
		}
		for i := 0; i < l; i++ {
			c := assign[i]
			mass[c] += w[i]
			row := pts.Row(i)
			s := sums.Row(c)
			for j, v := range row {
				s[j] += w[i] * v
			}
		}
		for c := 0; c < k; c++ {
			if mass[c] == 0 { //lint:ignore floatcmp exact-zero mass detects an empty cluster
				// Empty cluster: reseed to the heaviest-residual landmark.
				best, bv := 0, -1.0
				for i := 0; i < l; i++ {
					if v := w[i] * sqDist(pts.Row(i), centers.Row(assign[i])); v > bv {
						best, bv = i, v
					}
				}
				copy(centers.Row(c), pts.Row(best))
				continue
			}
			s := sums.Row(c)
			cr := centers.Row(c)
			for j := range cr {
				cr[j] = s[j] / mass[c]
			}
		}
	}
	return centers, nil
}
