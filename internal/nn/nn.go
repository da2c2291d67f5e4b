// Package nn is a minimal multilayer-perceptron substrate for the GAN-based
// imputation baselines (GAIN [46] and CAMF [42]). It provides dense layers,
// the usual activations, Adam, and binary-cross-entropy / mean-squared-error
// losses — just enough to train small generators and discriminators on
// batches stored as internal/mat matrices (rows = samples).
package nn

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/spatialmf/smfl/internal/mat"
)

// Activation selects a layer nonlinearity.
type Activation int

const (
	// Identity applies no nonlinearity.
	Identity Activation = iota
	// ReLU applies max(0, x).
	ReLU
	// Sigmoid applies 1/(1+e^−x).
	Sigmoid
	// Tanh applies tanh(x).
	Tanh
)

func actForward(a Activation, z float64) float64 {
	switch a {
	case ReLU:
		if z < 0 {
			return 0
		}
		return z
	case Sigmoid:
		return 1 / (1 + math.Exp(-z))
	case Tanh:
		return math.Tanh(z)
	}
	return z
}

// actBackward returns dact/dz given the activated output y.
func actBackward(a Activation, y float64) float64 {
	switch a {
	case ReLU:
		if y > 0 {
			return 1
		}
		return 0
	case Sigmoid:
		return y * (1 - y)
	case Tanh:
		return 1 - y*y
	}
	return 1
}

// layer is one dense layer y = act(xW + b) with Adam moment state.
type layer struct {
	in, out int
	act     Activation
	w, b    *mat.Dense // b is 1×out

	gradW, gradB *mat.Dense
	mW, vW       *mat.Dense
	mB, vB       *mat.Dense

	x, y *mat.Dense // cached forward activations
}

// MLP is a feed-forward network trained with Adam.
type MLP struct {
	layers []*layer
	adamT  int
}

// NewMLP builds a network with the given layer sizes (len ≥ 2) and one
// activation per weight layer (len(sizes)−1 entries). Weights use Xavier
// initialization from rng.
func NewMLP(rng *rand.Rand, sizes []int, acts []Activation) *MLP {
	if len(sizes) < 2 || len(acts) != len(sizes)-1 {
		panic(fmt.Sprintf("nn: bad architecture sizes=%v acts=%v", sizes, acts))
	}
	m := &MLP{}
	for i := 0; i < len(sizes)-1; i++ {
		in, out := sizes[i], sizes[i+1]
		l := &layer{
			in: in, out: out, act: acts[i],
			w:     mat.NewDense(in, out),
			b:     mat.NewDense(1, out),
			gradW: mat.NewDense(in, out),
			gradB: mat.NewDense(1, out),
			mW:    mat.NewDense(in, out),
			vW:    mat.NewDense(in, out),
			mB:    mat.NewDense(1, out),
			vB:    mat.NewDense(1, out),
		}
		limit := math.Sqrt(6 / float64(in+out))
		l.w.FillUniform(rng, -limit, limit)
		m.layers = append(m.layers, l)
	}
	return m
}

// Forward runs a batch (rows = samples) through the network and caches the
// activations needed by Backward.
func (m *MLP) Forward(x *mat.Dense) *mat.Dense {
	cur := x
	for _, l := range m.layers {
		n, _ := cur.Dims()
		z := mat.Mul(nil, cur, l.w)
		for i := 0; i < n; i++ {
			zi := z.Row(i)
			for j := 0; j < l.out; j++ {
				zi[j] = actForward(l.act, zi[j]+l.b.At(0, j))
			}
		}
		l.x, l.y = cur, z
		cur = z
	}
	return cur
}

// Backward backpropagates dLoss/dOutput, accumulating parameter gradients,
// and returns dLoss/dInput. Must follow a Forward call with the same batch.
func (m *MLP) Backward(gradOut *mat.Dense) *mat.Dense {
	grad := gradOut
	for li := len(m.layers) - 1; li >= 0; li-- {
		l := m.layers[li]
		n, _ := grad.Dims()
		// δ = grad ⊙ act'(y)
		delta := mat.NewDense(n, l.out)
		for i := 0; i < n; i++ {
			gi := grad.Row(i)
			yi := l.y.Row(i)
			di := delta.Row(i)
			for j := 0; j < l.out; j++ {
				di[j] = gi[j] * actBackward(l.act, yi[j])
			}
		}
		// gradW = xᵀ δ ; gradB = column sums of δ. The loss gradient is
		// already batch-averaged, so no further 1/n here.
		mat.MulAT(l.gradW, l.x, delta)
		l.gradB.Zero()
		for i := 0; i < n; i++ {
			di := delta.Row(i)
			gb := l.gradB.Row(0)
			for j := 0; j < l.out; j++ {
				gb[j] += di[j]
			}
		}
		// grad wrt input = δ Wᵀ.
		grad = mat.MulBT(nil, delta, l.w)
	}
	return grad
}

// The standard Adam setting. Typed, so 1−β is the difference of the
// float64 β, not of the exact decimal.
const (
	adamLR    float64 = 1e-3
	adamBeta1 float64 = 0.9
	adamBeta2 float64 = 0.999
	adamEps   float64 = 1e-8
)

// Step applies one Adam update from the gradients accumulated by Backward.
func (m *MLP) Step() {
	m.adamT++
	bc1 := 1 - math.Pow(adamBeta1, float64(m.adamT))
	bc2 := 1 - math.Pow(adamBeta2, float64(m.adamT))
	for _, l := range m.layers {
		adam(l.w, l.gradW, l.mW, l.vW, bc1, bc2)
		adam(l.b, l.gradB, l.mB, l.vB, bc1, bc2)
	}
}

func adam(p, g, mM, vM *mat.Dense, bc1, bc2 float64) {
	pd, gd, md, vd := p.Data(), g.Data(), mM.Data(), vM.Data()
	for i := range pd {
		md[i] = adamBeta1*md[i] + (1-adamBeta1)*gd[i]
		vd[i] = adamBeta2*vd[i] + (1-adamBeta2)*gd[i]*gd[i]
		mhat := md[i] / bc1
		vhat := vd[i] / bc2
		pd[i] -= adamLR * mhat / (math.Sqrt(vhat) + adamEps)
	}
}

// MSE returns the mean-squared-error loss and its gradient wrt pred.
func MSE(pred, target *mat.Dense) (float64, *mat.Dense) {
	n, m := pred.Dims()
	grad := mat.NewDense(n, m)
	var loss float64
	inv := 1 / float64(n*m)
	for i := 0; i < n; i++ {
		pi, ti, gi := pred.Row(i), target.Row(i), grad.Row(i)
		for j := 0; j < m; j++ {
			d := pi[j] - ti[j]
			loss += d * d * inv
			gi[j] = 2 * d * inv
		}
	}
	return loss, grad
}

// BCE returns the binary cross-entropy loss and its gradient wrt pred, with
// pred clipped into (eps, 1−eps). An optional weight matrix (nil = all ones)
// restricts the loss to selected cells.
func BCE(pred, target, weight *mat.Dense) (float64, *mat.Dense) {
	const eps = 1e-7
	n, m := pred.Dims()
	grad := mat.NewDense(n, m)
	var loss, wsum float64
	for i := 0; i < n; i++ {
		pi, ti, gi := pred.Row(i), target.Row(i), grad.Row(i)
		for j := 0; j < m; j++ {
			w := 1.0
			if weight != nil {
				w = weight.At(i, j)
			}
			if w == 0 { //lint:ignore floatcmp exact-zero weight skip
				continue
			}
			p := math.Min(math.Max(pi[j], eps), 1-eps)
			loss += -w * (ti[j]*math.Log(p) + (1-ti[j])*math.Log(1-p))
			gi[j] = w * (p - ti[j]) / (p * (1 - p))
			wsum += w
		}
	}
	if wsum > 0 {
		inv := 1 / wsum
		loss *= inv
		mat.Scale(grad, inv, grad)
	}
	return loss, grad
}
