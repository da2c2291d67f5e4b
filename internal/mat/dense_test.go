package mat

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

func TestNewDenseZeroed(t *testing.T) {
	m := NewDense(3, 4)
	if r, c := m.Dims(); r != 3 || c != 4 {
		t.Fatalf("Dims = %d,%d want 3,4", r, c)
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			if m.At(i, j) != 0 {
				t.Fatalf("At(%d,%d) = %v, want 0", i, j, m.At(i, j))
			}
		}
	}
}

func TestSetAtRoundTrip(t *testing.T) {
	m := NewDense(2, 3)
	m.Set(1, 2, 7.5)
	if got := m.At(1, 2); got != 7.5 {
		t.Fatalf("At = %v, want 7.5", got)
	}
	if got := m.At(0, 0); got != 0 {
		t.Fatalf("untouched element = %v, want 0", got)
	}
}

func TestFromRows(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if m.Rows() != 3 || m.Cols() != 2 {
		t.Fatalf("shape = %dx%d", m.Rows(), m.Cols())
	}
	if m.At(2, 1) != 6 || m.At(0, 0) != 1 {
		t.Fatalf("wrong data: %v", m)
	}
}

func TestFromRowsRaggedPanics(t *testing.T) {
	defer expectPanic(t, "ragged")
	FromRows([][]float64{{1, 2}, {3}})
}

func TestIdentity(t *testing.T) {
	m := Identity(3)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if m.At(i, j) != want {
				t.Fatalf("I[%d][%d] = %v", i, j, m.At(i, j))
			}
		}
	}
}

func TestTransposeKnown(t *testing.T) {
	m := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	mt := m.T()
	want := FromRows([][]float64{{1, 4}, {2, 5}, {3, 6}})
	if !EqualApprox(mt, want, 0) {
		t.Fatalf("T = %v", mt)
	}
}

func TestTransposeInvolutionProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		r, c := 1+rng.Intn(12), 1+rng.Intn(12)
		m := RandomNormal(rng, r, c, 0, 1)
		if !EqualApprox(m.T().T(), m, 0) {
			t.Fatalf("T(T(m)) != m for %dx%d", r, c)
		}
	}
}

func TestCloneIsDeep(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}})
	c := m.Clone()
	c.Set(0, 0, 99)
	if m.At(0, 0) != 1 {
		t.Fatal("Clone shares storage with original")
	}
}

func TestRowIsView(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}})
	m.Row(1)[0] = 30
	if m.At(1, 0) != 30 {
		t.Fatal("Row should be a mutable view")
	}
}

func TestSlice(t *testing.T) {
	m := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}})
	s := m.Slice(1, 3, 0, 2)
	want := FromRows([][]float64{{4, 5}, {7, 8}})
	if !EqualApprox(s, want, 0) {
		t.Fatalf("Slice = %v", s)
	}
	// Slice must copy.
	s.Set(0, 0, -1)
	if m.At(1, 0) != 4 {
		t.Fatal("Slice shares storage")
	}
}

func TestIsFinite(t *testing.T) {
	m := NewDense(2, 2)
	if !m.IsFinite() {
		t.Fatal("zero matrix should be finite")
	}
	m.Set(1, 1, math.NaN())
	if m.IsFinite() {
		t.Fatal("NaN not detected")
	}
	m.Set(1, 1, math.Inf(-1))
	if m.IsFinite() {
		t.Fatal("Inf not detected")
	}
}

func TestAtOutOfRangePanics(t *testing.T) {
	m := NewDense(2, 2)
	defer expectPanic(t, "out of range")
	_ = m.At(2, 0)
}

func TestStringEliding(t *testing.T) {
	m := NewDense(20, 20)
	s := m.String()
	if !strings.Contains(s, "20x20") || !strings.Contains(s, "...") {
		t.Fatalf("String = %q", s)
	}
}

func TestNewDenseDataNoCopy(t *testing.T) {
	d := []float64{1, 2, 3, 4}
	m := NewDenseData(2, 2, d)
	d[3] = 40
	if m.At(1, 1) != 40 {
		t.Fatal("NewDenseData should wrap without copying")
	}
}

func expectPanic(t *testing.T, want string) {
	t.Helper()
	r := recover()
	if r == nil {
		t.Fatalf("expected panic containing %q", want)
	}
	if s, ok := r.(string); ok && !strings.Contains(s, want) {
		t.Fatalf("panic %q does not contain %q", s, want)
	}
}
