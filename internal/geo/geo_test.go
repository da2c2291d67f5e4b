package geo

import (
	"math"
	"math/rand"
	"testing"

	"github.com/spatialmf/smfl/internal/mat"
)

func TestHaversineKnownDistances(t *testing.T) {
	// Paris (48.8566, 2.3522) to London (51.5074, -0.1278) ≈ 344 km.
	d := Haversine(48.8566, 2.3522, 51.5074, -0.1278)
	if math.Abs(d-344) > 5 {
		t.Fatalf("Paris-London = %v km", d)
	}
	// Same point → 0.
	if Haversine(10, 20, 10, 20) != 0 {
		t.Fatal("zero distance expected")
	}
	// Antipodal points ≈ half circumference ≈ 20015 km.
	if d := Haversine(0, 0, 0, 180); math.Abs(d-20015) > 10 {
		t.Fatalf("antipodal = %v km", d)
	}
}

func TestHaversineSymmetryProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 50; i++ {
		la1, lo1 := rng.Float64()*180-90, rng.Float64()*360-180
		la2, lo2 := rng.Float64()*180-90, rng.Float64()*360-180
		a := Haversine(la1, lo1, la2, lo2)
		b := Haversine(la2, lo2, la1, lo1)
		if math.Abs(a-b) > 1e-9 {
			t.Fatalf("asymmetric: %v vs %v", a, b)
		}
		if a < 0 {
			t.Fatal("negative distance")
		}
	}
}

func TestProjectionMatchesHaversineLocally(t *testing.T) {
	// Within a ~50 km neighborhood the planar distance must match the
	// great-circle distance to well under 1%.
	p, err := NewProjection(45, 131)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 30; i++ {
		la1 := 45 + 0.2*rng.NormFloat64()
		lo1 := 131 + 0.2*rng.NormFloat64()
		la2 := 45 + 0.2*rng.NormFloat64()
		lo2 := 131 + 0.2*rng.NormFloat64()
		x1, y1 := p.Forward(la1, lo1)
		x2, y2 := p.Forward(la2, lo2)
		planar := math.Hypot(x1-x2, y1-y2)
		sphere := Haversine(la1, lo1, la2, lo2)
		if sphere > 1 && math.Abs(planar-sphere)/sphere > 0.01 {
			t.Fatalf("planar %v vs haversine %v", planar, sphere)
		}
	}
}

func TestProjectSI(t *testing.T) {
	x := mat.FromRows([][]float64{
		{45.314585, 130.939853, 7.40},
		{45.315147, 130.939788, 4.40},
		{45.315058, 130.939952, 4.80},
	})
	proj, err := ProjectSI(x, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Coordinates become small local km values near 0.
	for i := 0; i < 3; i++ {
		if math.Abs(x.At(i, 0)) > 1 || math.Abs(x.At(i, 1)) > 1 {
			t.Fatalf("row %d projected too far: (%v, %v)", i, x.At(i, 0), x.At(i, 1))
		}
	}
	// Non-SI column untouched.
	if x.At(0, 2) != 7.40 {
		t.Fatal("attribute column modified")
	}
	// Anchor at centroid.
	if math.Abs(proj.Lat0-45.31493) > 1e-3 {
		t.Fatalf("anchor lat = %v", proj.Lat0)
	}
}

func TestProjectSIRespectsMask(t *testing.T) {
	x := mat.FromRows([][]float64{
		{45, 131, 1},
		{999, 999, 2}, // hidden garbage must be ignored and untouched
	})
	omega := mat.FullMask(2, 3)
	omega.Hide(1, 0)
	omega.Hide(1, 1)
	if _, err := ProjectSI(x, omega); err != nil {
		t.Fatal(err)
	}
	if x.At(1, 0) != 999 || x.At(1, 1) != 999 {
		t.Fatal("hidden SI cells were modified")
	}
}

func TestProjectSIValidation(t *testing.T) {
	if _, err := ProjectSI(mat.NewDense(3, 1), nil); err == nil {
		t.Fatal("expected column-count error")
	}
	bad := mat.FromRows([][]float64{{200, 0}})
	if _, err := ProjectSI(bad, nil); err == nil {
		t.Fatal("expected out-of-range error")
	}
	empty := mat.NewDense(2, 2)
	omega := mat.NewMask(2, 2)
	if _, err := ProjectSI(empty, omega); err == nil {
		t.Fatal("expected no-observed-coordinates error")
	}
	if _, err := NewProjection(-100, 0); err == nil {
		t.Fatal("expected anchor error")
	}
}
