package metrics

import (
	"math"
	"testing"

	"github.com/spatialmf/smfl/internal/mat"
)

func TestRMSOverHidden(t *testing.T) {
	truth := mat.FromRows([][]float64{{1, 2}, {3, 4}})
	pred := mat.FromRows([][]float64{{1, 5}, {3, 0}})
	omega := mat.FullMask(2, 2)
	omega.Hide(0, 1) // err 3
	omega.Hide(1, 1) // err 4
	got, err := RMSOverHidden(pred, truth, omega)
	if err != nil {
		t.Fatal(err)
	}
	want := math.Sqrt((9.0 + 16.0) / 2.0)
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("RMS = %v, want %v", got, want)
	}
}

func TestRMSIgnoresObservedErrors(t *testing.T) {
	truth := mat.FromRows([][]float64{{1, 2}})
	pred := mat.FromRows([][]float64{{100, 2}})
	omega := mat.FullMask(1, 2)
	omega.Hide(0, 1)
	got, err := RMSOverHidden(pred, truth, omega)
	if err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Fatalf("RMS should only cover hidden entries, got %v", got)
	}
}

func TestEmptySetError(t *testing.T) {
	x := mat.NewDense(2, 2)
	if _, err := RMSOverHidden(x, x, mat.FullMask(2, 2)); err == nil {
		t.Fatal("expected empty-set error")
	}
}
