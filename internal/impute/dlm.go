package impute

import (
	"math"
	"sort"

	"github.com/spatialmf/smfl/internal/mat"
)

// DLM imputes by distance-likelihood maximization [38]: the distances from a
// tuple to its neighbors are modeled with an exponential likelihood, and the
// filling value maximizes that likelihood over the CANDIDATE set — like the
// original, DLM picks an existing value from the column's active domain (the
// neighbor values), not a synthetic average. Under a squared-distance kernel
// the continuous maximizer is the distance-weighted neighbor average, so the
// discrete argmax is the candidate closest to it.
type DLM struct{}

// dlmK is DLM's neighborhood size.
const dlmK = 10

// Name implements Imputer.
func (d *DLM) Name() string { return "DLM" }

// Impute implements Imputer.
func (d *DLM) Impute(x *mat.Dense, omega *mat.Mask, _ int) (*mat.Dense, error) {
	if err := checkInput(x, omega); err != nil {
		return nil, err
	}
	means, err := columnMeans(x, omega)
	if err != nil {
		return nil, err
	}
	out := x.Clone()
	n, m := x.Dims()
	for i := 0; i < n; i++ {
		miss := missingCells(omega, i, m)
		if len(miss) == 0 {
			continue
		}
		for _, j := range miss {
			nbrs, dists := neighborsWithDistances(x, omega, i, j, dlmK)
			if len(nbrs) == 0 {
				out.Set(i, j, means[j])
				continue
			}
			// Bandwidth = median neighbor distance; likelihood weights
			// w_r = exp(−d_r²/h²); maximizer = Σ w_r v_r / Σ w_r.
			h := medianOf(dists)
			if h <= 0 {
				h = 1e-6
			}
			var num, den float64
			for t, r := range nbrs {
				w := math.Exp(-(dists[t] * dists[t]) / (h * h))
				num += w * x.At(r, j)
				den += w
			}
			if den == 0 { //lint:ignore floatcmp exact-zero weight-sum guard
				out.Set(i, j, means[j])
				continue
			}
			target := num / den
			// Discrete likelihood maximization: the candidate (neighbor
			// value) nearest the continuous optimum.
			best := x.At(nbrs[0], j)
			for _, r := range nbrs[1:] {
				if v := x.At(r, j); math.Abs(v-target) < math.Abs(best-target) {
					best = v
				}
			}
			out.Set(i, j, best)
		}
	}
	return out, nil
}

// neighborsWithDistances returns up to k nearest rows to i (with column j
// observed) and their distances, sorted ascending.
func neighborsWithDistances(x *mat.Dense, omega *mat.Mask, i, j, k int) ([]int, []float64) {
	n, _ := x.Dims()
	type cand struct {
		d   float64
		idx int
	}
	var cands []cand
	for r := 0; r < n; r++ {
		if r == i || !omega.Observed(r, j) {
			continue
		}
		d := rowDist(x, omega, i, r)
		if math.IsInf(d, 1) {
			continue
		}
		cands = append(cands, cand{d, r})
	}
	sort.Slice(cands, func(a, b int) bool {
		if cands[a].d != cands[b].d { //lint:ignore floatcmp deterministic tie-break needs exact equality
			return cands[a].d < cands[b].d
		}
		return cands[a].idx < cands[b].idx
	})
	if k > len(cands) {
		k = len(cands)
	}
	idx := make([]int, k)
	dists := make([]float64, k)
	for t := 0; t < k; t++ {
		idx[t] = cands[t].idx
		dists[t] = cands[t].d
	}
	return idx, dists
}

func medianOf(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	c := append([]float64(nil), v...)
	sort.Float64s(c)
	return c[len(c)/2]
}
