package nn

import (
	"math"
	"math/rand"
	"testing"

	"github.com/spatialmf/smfl/internal/mat"
)

func TestForwardShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := NewMLP(rng, []int{4, 8, 2}, []Activation{ReLU, Sigmoid})
	x := mat.RandomNormal(rng, 5, 4, 0, 1)
	y := m.Forward(x)
	if r, c := y.Dims(); r != 5 || c != 2 {
		t.Fatalf("output %dx%d", r, c)
	}
	// Sigmoid output in (0,1).
	if mat.Min(y) <= 0 || mat.Max(y) >= 1 {
		t.Fatalf("sigmoid range violated: [%v,%v]", mat.Min(y), mat.Max(y))
	}
}

func TestActivations(t *testing.T) {
	if actForward(ReLU, -1) != 0 || actForward(ReLU, 2) != 2 {
		t.Fatal("ReLU wrong")
	}
	if math.Abs(actForward(Sigmoid, 0)-0.5) > 1e-12 {
		t.Fatal("Sigmoid(0) != 0.5")
	}
	if actForward(Tanh, 0) != 0 || actForward(Identity, 3.5) != 3.5 {
		t.Fatal("Tanh/Identity wrong")
	}
}

// TestGradientCheck verifies backprop against numerical differentiation.
func TestGradientCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := NewMLP(rng, []int{3, 5, 2}, []Activation{Tanh, Identity})
	x := mat.RandomNormal(rng, 4, 3, 0, 1)
	target := mat.RandomNormal(rng, 4, 2, 0, 1)

	lossAt := func() float64 {
		loss, _ := MSE(m.Forward(x), target)
		return loss
	}
	// Analytic gradients.
	_, grad := MSE(m.Forward(x), target)
	m.Backward(grad)

	const h = 1e-6
	for li, l := range m.layers {
		for _, probe := range [][2]int{{0, 0}, {l.in - 1, l.out - 1}} {
			i, j := probe[0], probe[1]
			orig := l.w.At(i, j)
			l.w.Set(i, j, orig+h)
			up := lossAt()
			l.w.Set(i, j, orig-h)
			down := lossAt()
			l.w.Set(i, j, orig)
			numeric := (up - down) / (2 * h)
			analytic := l.gradW.At(i, j)
			if math.Abs(numeric-analytic) > 1e-4*(1+math.Abs(numeric)) {
				t.Fatalf("layer %d w[%d][%d]: numeric %v analytic %v", li, i, j, numeric, analytic)
			}
		}
		// Bias gradient check.
		orig := l.b.At(0, 0)
		l.b.Set(0, 0, orig+h)
		up := lossAt()
		l.b.Set(0, 0, orig-h)
		down := lossAt()
		l.b.Set(0, 0, orig)
		numeric := (up - down) / (2 * h)
		if math.Abs(numeric-l.gradB.At(0, 0)) > 1e-4*(1+math.Abs(numeric)) {
			t.Fatalf("layer %d bias: numeric %v analytic %v", li, numeric, l.gradB.At(0, 0))
		}
	}
}

func TestInputGradientCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := NewMLP(rng, []int{3, 4, 1}, []Activation{Sigmoid, Identity})
	x := mat.RandomNormal(rng, 2, 3, 0, 1)
	target := mat.RandomNormal(rng, 2, 1, 0, 1)
	_, grad := MSE(m.Forward(x), target)
	gin := m.Backward(grad)

	const h = 1e-6
	orig := x.At(1, 2)
	x.Set(1, 2, orig+h)
	l1, _ := MSE(m.Forward(x), target)
	x.Set(1, 2, orig-h)
	l2, _ := MSE(m.Forward(x), target)
	x.Set(1, 2, orig)
	numeric := (l1 - l2) / (2 * h)
	if math.Abs(numeric-gin.At(1, 2)) > 1e-4*(1+math.Abs(numeric)) {
		t.Fatalf("input grad: numeric %v analytic %v", numeric, gin.At(1, 2))
	}
}

func TestTrainingReducesLoss(t *testing.T) {
	// Learn y = sigmoid-separable XOR-ish function.
	rng := rand.New(rand.NewSource(4))
	n := 64
	x := mat.NewDense(n, 2)
	y := mat.NewDense(n, 1)
	for i := 0; i < n; i++ {
		a, b := rng.Float64(), rng.Float64()
		x.Set(i, 0, a)
		x.Set(i, 1, b)
		if (a > 0.5) != (b > 0.5) {
			y.Set(i, 0, 1)
		}
	}
	m := NewMLP(rng, []int{2, 16, 1}, []Activation{Tanh, Sigmoid})
	first, _ := BCE(m.Forward(x), y, nil)
	for ep := 0; ep < 2000; ep++ {
		_, grad := BCE(m.Forward(x), y, nil)
		m.Backward(grad)
		m.Step()
	}
	last, _ := BCE(m.Forward(x), y, nil)
	if last > 0.5*first {
		t.Fatalf("training barely reduced loss: %v -> %v", first, last)
	}
}

func TestBCEWeighting(t *testing.T) {
	pred := mat.FromRows([][]float64{{0.9, 0.1}})
	target := mat.FromRows([][]float64{{1, 1}})
	w := mat.FromRows([][]float64{{1, 0}})
	loss, grad := BCE(pred, target, w)
	// Only the first cell counts: loss = −log(0.9).
	if math.Abs(loss+math.Log(0.9)) > 1e-9 {
		t.Fatalf("weighted BCE = %v", loss)
	}
	if grad.At(0, 1) != 0 {
		t.Fatal("masked-out cell has gradient")
	}
}

func TestMSEKnown(t *testing.T) {
	pred := mat.FromRows([][]float64{{1, 2}})
	target := mat.FromRows([][]float64{{0, 0}})
	loss, grad := MSE(pred, target)
	if math.Abs(loss-2.5) > 1e-12 { // (1+4)/2
		t.Fatalf("MSE = %v", loss)
	}
	if math.Abs(grad.At(0, 0)-1) > 1e-12 { // 2*1/2
		t.Fatalf("grad = %v", grad)
	}
}

func TestNewMLPValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for mismatched acts")
		}
	}()
	NewMLP(rand.New(rand.NewSource(5)), []int{2, 3}, []Activation{ReLU, ReLU})
}

func TestBCEGradientNumeric(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	pred := mat.NewDense(2, 3)
	pred.FillUniform(rng, 0.1, 0.9)
	target := mat.NewDense(2, 3)
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			if rng.Float64() < 0.5 {
				target.Set(i, j, 1)
			}
		}
	}
	_, grad := BCE(pred, target, nil)
	const h = 1e-6
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			orig := pred.At(i, j)
			pred.Set(i, j, orig+h)
			up, _ := BCE(pred, target, nil)
			pred.Set(i, j, orig-h)
			down, _ := BCE(pred, target, nil)
			pred.Set(i, j, orig)
			numeric := (up - down) / (2 * h)
			if math.Abs(numeric-grad.At(i, j)) > 1e-4*(1+math.Abs(numeric)) {
				t.Fatalf("BCE grad (%d,%d): numeric %v analytic %v", i, j, numeric, grad.At(i, j))
			}
		}
	}
}

func TestDeepNetworkTrains(t *testing.T) {
	// 3-hidden-layer regression on a smooth function; loss must fall 5x.
	rng := rand.New(rand.NewSource(7))
	n := 80
	x := mat.NewDense(n, 1)
	y := mat.NewDense(n, 1)
	for i := 0; i < n; i++ {
		v := 2*rng.Float64() - 1
		x.Set(i, 0, v)
		y.Set(i, 0, v*v)
	}
	m := NewMLP(rng, []int{1, 12, 12, 12, 1}, []Activation{Tanh, Tanh, Tanh, Identity})
	first, _ := MSE(m.Forward(x), y)
	for ep := 0; ep < 2000; ep++ {
		_, grad := MSE(m.Forward(x), y)
		m.Backward(grad)
		m.Step()
	}
	last, _ := MSE(m.Forward(x), y)
	if last > first/5 {
		t.Fatalf("deep net barely trained: %v -> %v", first, last)
	}
}
