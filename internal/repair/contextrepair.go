package repair

import (
	"math"
	"math/rand"
	"sort"

	"github.com/spatialmf/smfl/internal/linalg"
	"github.com/spatialmf/smfl/internal/mat"
)

// ContextRepair is the Baran-like repairer: three corrector families — the
// value context (corrections derived from labeled dirty/clean pairs), the
// vicinity context (same-row regression from clean attributes), and the
// domain context (column statistics) — are trained and combined by a
// precision-weighted vote. As in the paper's setting, contextLabels dirty
// cells receive ground-truth-free supervision: they are repaired by the
// strongest available signal and used to weight the correctors.
type ContextRepair struct {
	Seed int64
}

// contextLabels is the number of labeled cells that calibrate the
// corrector weights.
const contextLabels = 20

// Name implements Repairer.
func (c *ContextRepair) Name() string { return "Baran" }

// Repair implements Repairer.
func (c *ContextRepair) Repair(x *mat.Dense, dirty *mat.Mask, _ int) (*mat.Dense, error) {
	if err := checkInput(x, dirty); err != nil {
		return nil, err
	}
	n, m := x.Dims()

	// --- Domain corrector: column median over clean cells. ---
	med := make([]float64, m)
	for j := 0; j < m; j++ {
		var vals []float64
		for i := 0; i < n; i++ {
			if !dirty.Observed(i, j) {
				vals = append(vals, x.At(i, j))
			}
		}
		if len(vals) == 0 {
			for i := 0; i < n; i++ {
				vals = append(vals, x.At(i, j))
			}
		}
		sort.Float64s(vals)
		med[j] = vals[len(vals)/2]
	}

	// --- Vicinity corrector: ridge regression of each column on the other
	// columns, trained on fully clean rows. ---
	var cleanRows []int
	for i := 0; i < n; i++ {
		ok := true
		for j := 0; j < m; j++ {
			if dirty.Observed(i, j) {
				ok = false
				break
			}
		}
		if ok {
			cleanRows = append(cleanRows, i)
		}
	}
	vicW := make([][]float64, m) // weights per target column, nil = unavailable
	if len(cleanRows) >= m+2 {
		for j := 0; j < m; j++ {
			a := mat.NewDense(len(cleanRows), m) // slot j holds the intercept
			b := make([]float64, len(cleanRows))
			for t, r := range cleanRows {
				ar := a.Row(t)
				xr := x.Row(r)
				for cc := 0; cc < m; cc++ {
					if cc == j {
						ar[cc] = 1
					} else {
						ar[cc] = xr[cc]
					}
				}
				b[t] = x.At(r, j)
			}
			if w, err := linalg.Ridge(a, b, 1e-3); err == nil {
				vicW[j] = w
			}
		}
	}
	vicinity := func(i, j int) (float64, bool) {
		w := vicW[j]
		if w == nil {
			return 0, false
		}
		var pred float64
		xr := x.Row(i)
		for cc := 0; cc < m; cc++ {
			if cc == j {
				pred += w[cc]
			} else if !dirty.Observed(i, cc) {
				pred += w[cc] * xr[cc]
			} else {
				pred += w[cc] * med[cc] // dirty determinant: fall back to median
			}
		}
		return pred, true
	}

	// --- Value corrector: a global affine correction v' = a·v + b learned
	// from the labeled cells (their vicinity predictions act as the labels,
	// Baran's transfer signal in the absence of user ground truth). ---
	type labeled struct{ dirtyVal, target float64 }
	var dirtyCells [][2]int
	for i := 0; i < n; i++ {
		for j := 0; j < m; j++ {
			if dirty.Observed(i, j) {
				dirtyCells = append(dirtyCells, [2]int{i, j})
			}
		}
	}
	rng := rand.New(rand.NewSource(c.Seed))
	rng.Shuffle(len(dirtyCells), func(a, b int) { dirtyCells[a], dirtyCells[b] = dirtyCells[b], dirtyCells[a] })
	var lab []labeled
	for _, cell := range dirtyCells {
		if len(lab) >= contextLabels {
			break
		}
		if tgt, ok := vicinity(cell[0], cell[1]); ok {
			lab = append(lab, labeled{x.At(cell[0], cell[1]), tgt})
		}
	}
	valA, valB := 0.0, 0.0
	valueOK := false
	if len(lab) >= 2 {
		// Least squares fit of target = a·dirty + b.
		var sx, sy, sxx, sxy float64
		for _, e := range lab {
			sx += e.dirtyVal
			sy += e.target
			sxx += e.dirtyVal * e.dirtyVal
			sxy += e.dirtyVal * e.target
		}
		nl := float64(len(lab))
		den := nl*sxx - sx*sx
		if math.Abs(den) > 1e-12 {
			valA = (nl*sxy - sx*sy) / den
			valB = (sy - valA*sx) / nl
			valueOK = true
		}
	}

	// --- Corrector weights: precision on the labeled cells (lower squared
	// error vs the vicinity target → higher weight). ---
	wVic, wVal, wDom := 1.0, 0.5, 0.25
	if valueOK && len(lab) > 0 {
		var eVal float64
		for _, e := range lab {
			d := valA*e.dirtyVal + valB - e.target
			eVal += d * d
		}
		wVal = 1 / (1 + eVal/float64(len(lab)))
	}

	out := x.Clone()
	for _, cell := range dirtyCells {
		i, j := cell[0], cell[1]
		var num, den float64
		if v, ok := vicinity(i, j); ok {
			num += wVic * v
			den += wVic
		}
		if valueOK {
			num += wVal * (valA*x.At(i, j) + valB)
			den += wVal
		}
		num += wDom * med[j]
		den += wDom
		out.Set(i, j, num/den)
	}
	return out, nil
}
