// Package landmark implements the sub-quadratic spatial path of the SMFL
// pipeline: a small set of L ≈ √N landmark rows stands in for the global
// geometry of the spatial information SI, exactly as the paper's landmark
// matrix C stands in for cluster structure.
//
// The subsystem has three parts. Selection (this file) picks L well-spread
// rows by k-means++ D² sampling followed by maxmin (farthest-point) filling.
// The Index (index.go) buckets every row under its nearest landmark and
// answers approximate p-NN queries by spiraling over small per-bucket grids
// in the few nearest buckets, emitting the same spatial.Graph CSR the exact
// path produces; its weighted bucket centroids (coreset.go) give the SMFL
// fit its K-means landmarks C. The Placer (placer.go) carries just the
// landmark coordinates and their trained coefficient rows, giving fold-in
// rows an O(L) warm start with no reference to any N-sized structure.
package landmark

import (
	"errors"
	"math"
	"math/rand"

	"github.com/spatialmf/smfl/internal/kmeans"
	"github.com/spatialmf/smfl/internal/mat"
)

// DefaultProbes is how many nearest-landmark buckets a query scans. Probed
// buckets beyond the first are usually rejected wholesale by their bounding
// box once the running p-th-best distance tightens, so a handful of probes
// buys recall at little cost.
const DefaultProbes = 8

// Config controls landmark selection and index construction. L, the number
// of landmark rows, is ⌈√N⌉ raised to MinLandmarks (at most N); a query
// probes min(DefaultProbes, L) buckets, and selection works on a subsample
// of 8·L rows (selection is O(sample·L·dim)).
type Config struct {
	// MinLandmarks raises L to at least this value — the SMFL fit sets it
	// to K so the first K landmarks can double as the paper's landmark
	// columns in V.
	MinLandmarks int
	// Seed drives landmark selection.
	Seed int64
}

// landmarks resolves L for n rows.
func (c Config) landmarks(n int) int {
	l := int(math.Ceil(math.Sqrt(float64(n))))
	if l < c.MinLandmarks {
		l = c.MinLandmarks
	}
	return max(min(l, n), 1)
}

// Select returns L distinct row indices of si to use as landmarks. The
// first ⌈L/2⌉ come from k-means++ D² sampling (good coverage of dense
// regions), the rest from maxmin filling (coverage of extremes); both run
// over a seeded subsample so selection cost is independent of N beyond one
// pass. Selection order is meaningful: the prefix is the best-spread subset,
// which is what core reuses for the landmark matrix C.
func Select(si *mat.Dense, cfg Config) ([]int, error) {
	n, d := si.Dims()
	if n == 0 || d == 0 {
		return nil, errors.New("landmark: empty spatial information")
	}
	if !si.IsFinite() {
		return nil, errors.New("landmark: SI contains NaN or Inf; fill missing values first")
	}
	l := cfg.landmarks(n)
	rng := rand.New(rand.NewSource(cfg.Seed))
	// Subsample without replacement.
	sample := rng.Perm(n)
	if len(sample) > 8*l {
		sample = sample[:8*l]
	}
	s := len(sample)
	x := mat.NewDense(s, d)
	for i, row := range sample {
		copy(x.Row(i), si.Row(row))
	}
	sel := make([]int, 0, l)
	inSel := make([]bool, s)
	kpp := (l + 1) / 2
	if kpp > s {
		kpp = s
	}
	for _, j := range kmeans.SeedPlusPlusIndices(x, kpp, rng) {
		if !inSel[j] { // D² sampling repeats rows only on duplicate points
			inSel[j] = true
			sel = append(sel, j)
		}
	}
	// Maxmin fill: repeatedly take the point farthest from the selection.
	d2 := make([]float64, s)
	for i := 0; i < s; i++ {
		d2[i] = math.Inf(1)
		for _, j := range sel {
			if v := sqDist(x.Row(i), x.Row(j)); v < d2[i] {
				d2[i] = v
			}
		}
	}
	for len(sel) < l {
		pick, best := -1, -1.0
		for i := 0; i < s; i++ {
			if !inSel[i] && d2[i] > best {
				pick, best = i, d2[i]
			}
		}
		if pick < 0 {
			break // sample exhausted (duplicates collapsed it below l)
		}
		inSel[pick] = true
		sel = append(sel, pick)
		for i := 0; i < s; i++ {
			if v := sqDist(x.Row(i), x.Row(pick)); v < d2[i] {
				d2[i] = v
			}
		}
	}
	out := make([]int, len(sel))
	for i, j := range sel {
		out[i] = sample[j]
	}
	return out, nil
}

func sqDist(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}
