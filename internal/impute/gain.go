package impute

import (
	"math/rand"

	"github.com/spatialmf/smfl/internal/mat"
	"github.com/spatialmf/smfl/internal/nn"
)

// GAIN is Generative Adversarial Imputation Nets [46]. The generator
// completes rows from (noise-filled data, mask); the discriminator, given a
// hint vector, guesses which cells were imputed. Architecture and losses
// follow the original paper at small MLP widths suitable for CPU training.
// Inputs are expected in [0,1] (the generator output is a sigmoid). Both
// networks have two hidden layers of width 4·M.
type GAIN struct {
	Seed int64
}

const (
	gainIters    = 300 // adversarial steps
	gainBatch    = 128 // minibatch size, at most N
	gainHintRate = 0.9 // share of mask cells the hint reveals
	gainAlpha    = 10  // reconstruction weight in the G loss
)

// Name implements Imputer.
func (g *GAIN) Name() string { return "GAIN" }

// Impute implements Imputer.
func (g *GAIN) Impute(x *mat.Dense, omega *mat.Mask, _ int) (*mat.Dense, error) {
	if err := checkInput(x, omega); err != nil {
		return nil, err
	}
	n, m := x.Dims()
	hidden := 4 * m
	batch := min(gainBatch, n)
	rng := rand.New(rand.NewSource(g.Seed))
	gen := nn.NewMLP(rng, []int{2 * m, hidden, hidden, m}, []nn.Activation{nn.ReLU, nn.ReLU, nn.Sigmoid})
	disc := nn.NewMLP(rng, []int{2 * m, hidden, hidden, m}, []nn.Activation{nn.ReLU, nn.ReLU, nn.Sigmoid})

	// Dense copies of the data and mask for fast batch assembly.
	maskM := mat.NewDense(n, m)
	for i := 0; i < n; i++ {
		for j := 0; j < m; j++ {
			if omega.Observed(i, j) {
				maskM.Set(i, j, 1)
			}
		}
	}

	rows := make([]int, batch)
	for it := 0; it < gainIters; it++ {
		for t := range rows {
			rows[t] = rng.Intn(n)
		}
		xb := mat.NewDense(batch, m)
		mb := mat.NewDense(batch, m)
		for t, r := range rows {
			copy(xb.Row(t), x.Row(r))
			copy(mb.Row(t), maskM.Row(r))
		}
		// x_tilde: observed kept, hidden ← small noise.
		xt := mat.NewDense(batch, m)
		for t := 0; t < batch; t++ {
			xr, mr, tr := xb.Row(t), mb.Row(t), xt.Row(t)
			for j := 0; j < m; j++ {
				if mr[j] == 1 { //lint:ignore floatcmp mask entries are exact 0/1
					tr[j] = xr[j]
				} else {
					tr[j] = 0.01 * rng.Float64()
				}
			}
		}
		gin := hconcat(xt, mb)
		xhat := gen.Forward(gin)
		// x_bar = m⊙x + (1−m)⊙x_hat.
		xbar := mat.NewDense(batch, m)
		for t := 0; t < batch; t++ {
			xr, mr, hr, br := xb.Row(t), mb.Row(t), xhat.Row(t), xbar.Row(t)
			for j := 0; j < m; j++ {
				br[j] = mr[j]*xr[j] + (1-mr[j])*hr[j]
			}
		}
		// Hint: reveal mask on a random subset, 0.5 elsewhere.
		hint := mat.NewDense(batch, m)
		bsel := mat.NewDense(batch, m) // 1 where the hint reveals the truth
		for t := 0; t < batch; t++ {
			mr, hr, br := mb.Row(t), hint.Row(t), bsel.Row(t)
			for j := 0; j < m; j++ {
				if rng.Float64() < gainHintRate {
					hr[j] = mr[j]
					br[j] = 1
				} else {
					hr[j] = 0.5
				}
			}
		}

		// ---- Discriminator step: BCE(d, m) on hint-hidden cells. ----
		din := hconcat(xbar, hint)
		dout := disc.Forward(din)
		wD := mat.Apply(nil, func(v float64) float64 { return 1 - v }, bsel)
		_, gradD := nn.BCE(dout, mb, wD)
		disc.Backward(gradD)
		disc.Step()

		// ---- Generator step. ----
		xhat = gen.Forward(gin) // refresh caches after D changed nothing in G
		for t := 0; t < batch; t++ {
			xr, mr, hr, br := xb.Row(t), mb.Row(t), xhat.Row(t), xbar.Row(t)
			for j := 0; j < m; j++ {
				br[j] = mr[j]*xr[j] + (1-mr[j])*hr[j]
			}
		}
		din = hconcat(xbar, hint)
		dout = disc.Forward(din)
		// Adversarial part: G wants D to believe imputed cells are observed:
		// loss = −mean (1−m) log d. dLoss/dd = −(1−m)/d / count.
		gradAdv := mat.NewDense(batch, m)
		var cnt float64
		for t := 0; t < batch; t++ {
			mr, dr, gr := mb.Row(t), dout.Row(t), gradAdv.Row(t)
			for j := 0; j < m; j++ {
				if mr[j] == 0 { //lint:ignore floatcmp mask entries are exact 0/1
					gr[j] = -1 / (dr[j] + 1e-7)
					cnt++
				}
			}
		}
		if cnt > 0 {
			mat.Scale(gradAdv, 1/cnt, gradAdv)
		}
		gradDin := disc.Backward(gradAdv) // grad wrt [xbar, hint]
		// Chain through x_bar: only the (1−m)⊙x_hat path reaches G.
		gradXhat := mat.NewDense(batch, m)
		for t := 0; t < batch; t++ {
			mr, gi, gx := mb.Row(t), gradDin.Row(t), gradXhat.Row(t)
			for j := 0; j < m; j++ {
				gx[j] = (1 - mr[j]) * gi[j]
			}
		}
		// Reconstruction part on observed cells: alpha·MSE(m⊙x_hat, m⊙x).
		var obsCnt float64
		for t := 0; t < batch; t++ {
			mr := mb.Row(t)
			for j := 0; j < m; j++ {
				obsCnt += mr[j]
			}
		}
		if obsCnt > 0 {
			for t := 0; t < batch; t++ {
				xr, mr, hr, gx := xb.Row(t), mb.Row(t), xhat.Row(t), gradXhat.Row(t)
				for j := 0; j < m; j++ {
					gx[j] += gainAlpha * 2 * mr[j] * (hr[j] - xr[j]) / obsCnt
				}
			}
		}
		gen.Backward(gradXhat)
		gen.Step()
	}

	// Final imputation over the whole table.
	xt := mat.NewDense(n, m)
	for i := 0; i < n; i++ {
		xr, mr, tr := x.Row(i), maskM.Row(i), xt.Row(i)
		for j := 0; j < m; j++ {
			if mr[j] == 1 { //lint:ignore floatcmp mask entries are exact 0/1
				tr[j] = xr[j]
			} else {
				tr[j] = 0.01 * rng.Float64()
			}
		}
	}
	xhat := gen.Forward(hconcat(xt, maskM))
	return omega.Recover(x, xhat), nil
}

// hconcat returns [a | b] with matching row counts.
func hconcat(a, b *mat.Dense) *mat.Dense {
	n, ca := a.Dims()
	nb, cb := b.Dims()
	if n != nb {
		panic("impute: hconcat row mismatch")
	}
	out := mat.NewDense(n, ca+cb)
	for i := 0; i < n; i++ {
		copy(out.Row(i)[:ca], a.Row(i))
		copy(out.Row(i)[ca:], b.Row(i))
	}
	return out
}
