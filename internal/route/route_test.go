package route

import (
	"math"
	"testing"

	"github.com/spatialmf/smfl/internal/dataset"
	"github.com/spatialmf/smfl/internal/impute"
	"github.com/spatialmf/smfl/internal/mat"
)

func TestAccumulatedFuelKnown(t *testing.T) {
	// Two unit-length legs at rates 2 and 4 → 2·1 + 4·1? With endpoint
	// averaging: leg1 rate (2+2)/2=2, leg2 rate (2+6)/2=4; total 6.
	x := mat.FromRows([][]float64{
		{0, 0, 2},
		{1, 0, 2},
		{2, 0, 6},
	})
	got, err := AccumulatedFuel(x, Route{Stops: []int{0, 1, 2}}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-6) > 1e-12 {
		t.Fatalf("fuel = %v, want 6", got)
	}
}

func TestAccumulatedFuelValidation(t *testing.T) {
	x := mat.NewDense(3, 3)
	if _, err := AccumulatedFuel(x, Route{Stops: []int{0}}, 2); err == nil {
		t.Fatal("expected too-few-stops error")
	}
	if _, err := AccumulatedFuel(x, Route{Stops: []int{0, 1}}, 9); err == nil {
		t.Fatal("expected fuel-column error")
	}
}

func TestSampleRoutesLocalHops(t *testing.T) {
	res, err := dataset.Vehicle(0.003, 5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := res.Data.Normalize(); err != nil {
		t.Fatal(err)
	}
	x := res.Data.X
	routes, err := SampleRoutes(x, 5, 12, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(routes) != 5 {
		t.Fatalf("got %d routes", len(routes))
	}
	for _, r := range routes {
		if len(r.Stops) != 12 {
			t.Fatalf("route has %d stops", len(r.Stops))
		}
		seen := map[int]bool{}
		for _, s := range r.Stops {
			if seen[s] {
				t.Fatal("route revisits a stop")
			}
			seen[s] = true
		}
		// Hops must be local: each leg no longer than half the extent.
		for i := 1; i < len(r.Stops); i++ {
			a, b := r.Stops[i-1], r.Stops[i]
			d := math.Hypot(x.At(a, 0)-x.At(b, 0), x.At(a, 1)-x.At(b, 1))
			if d > 0.75 {
				t.Fatalf("non-local hop of %v", d)
			}
		}
	}
}

func TestSampleRoutesDeterministic(t *testing.T) {
	res, err := dataset.Lake(0.02, 3)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := SampleRoutes(res.Data.X, 3, 5, 11)
	b, _ := SampleRoutes(res.Data.X, 3, 5, 11)
	for i := range a {
		for j := range a[i].Stops {
			if a[i].Stops[j] != b[i].Stops[j] {
				t.Fatal("same seed produced different routes")
			}
		}
	}
}

func TestFuelErrorZeroForPerfectImputation(t *testing.T) {
	res, err := dataset.Vehicle(0.002, 9)
	if err != nil {
		t.Fatal(err)
	}
	res.Data.Normalize()
	x := res.Data.X
	routes, err := SampleRoutes(x, 4, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	got, err := FuelError(x, x.Clone(), routes, x.Cols()-1)
	if err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Fatalf("perfect imputation error = %v", got)
	}
}

func TestBetterImputationLowerFuelError(t *testing.T) {
	// Fig. 4a shape: a structured imputer yields lower accumulated-fuel
	// error than the Mean floor.
	res, err := dataset.Vehicle(0.004, 13)
	if err != nil {
		t.Fatal(err)
	}
	res.Data.Normalize()
	truth := res.Data.X
	mask, err := dataset.InjectMissing(res.Data, dataset.MissingSpec{
		Rate: 0.3, Columns: []int{truth.Cols() - 1}, Seed: 13,
	})
	if err != nil {
		t.Fatal(err)
	}
	routes, err := SampleRoutes(truth, 10, 15, 13)
	if err != nil {
		t.Fatal(err)
	}
	fuelCol := truth.Cols() - 1

	meanOut, err := impute.Mean{}.Impute(truth, mask, 2)
	if err != nil {
		t.Fatal(err)
	}
	knnOut, err := (&impute.KNN{}).Impute(truth, mask, 2)
	if err != nil {
		t.Fatal(err)
	}
	meanErr, err := FuelError(truth, meanOut, routes, fuelCol)
	if err != nil {
		t.Fatal(err)
	}
	knnErr, err := FuelError(truth, knnOut, routes, fuelCol)
	if err != nil {
		t.Fatal(err)
	}
	if knnErr >= meanErr {
		t.Fatalf("kNN fuel error %v should beat Mean %v", knnErr, meanErr)
	}
}
