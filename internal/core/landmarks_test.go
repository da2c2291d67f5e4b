package core

import (
	"math"
	"testing"

	"github.com/spatialmf/smfl/internal/mat"
)

func clusteredSI(t *testing.T) *mat.Dense {
	t.Helper()
	// Three tight blobs at known centers.
	rows := [][]float64{}
	for _, c := range [][2]float64{{0, 0}, {10, 0}, {0, 10}} {
		for i := 0; i < 20; i++ {
			dx := 0.01 * float64(i%5)
			rows = append(rows, []float64{c[0] + dx, c[1] - dx})
		}
	}
	return mat.FromRows(rows)
}

func TestKMeansLandmarksNearClusterCenters(t *testing.T) {
	si := clusteredSI(t)
	c, err := generateLandmarks(si, Config{K: 3, Seed: 1}.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range [][2]float64{{0, 0}, {10, 0}, {0, 10}} {
		best := math.Inf(1)
		for k := 0; k < 3; k++ {
			d := math.Hypot(c.At(k, 0)-want[0], c.At(k, 1)-want[1])
			if d < best {
				best = d
			}
		}
		if best > 0.5 {
			t.Fatalf("no landmark near %v; C = %v", want, c)
		}
	}
}

func TestRandomObservationLandmarksAreDataPoints(t *testing.T) {
	si := clusteredSI(t)
	cfg := Config{K: 5, Seed: 3, LandmarkSource: RandomObservations}.withDefaults()
	c, err := generateLandmarks(si, cfg)
	if err != nil {
		t.Fatal(err)
	}
	n, _ := si.Dims()
	for k := 0; k < 5; k++ {
		found := false
		for i := 0; i < n; i++ {
			if si.At(i, 0) == c.At(k, 0) && si.At(i, 1) == c.At(k, 1) {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("landmark %d is not an observation: %v", k, c.Row(k))
		}
	}
}

func TestGridLandmarksCoverBoundingBox(t *testing.T) {
	si := clusteredSI(t)
	cfg := Config{K: 9, Seed: 4, LandmarkSource: UniformGrid}.withDefaults()
	c, err := generateLandmarks(si, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// All landmarks inside the bounding box; corners present.
	loX, hiX := mat.Min(si.Slice(0, 60, 0, 1)), mat.Max(si.Slice(0, 60, 0, 1))
	loY, hiY := mat.Min(si.Slice(0, 60, 1, 2)), mat.Max(si.Slice(0, 60, 1, 2))
	for k := 0; k < 9; k++ {
		x, y := c.At(k, 0), c.At(k, 1)
		if x < loX-1e-9 || x > hiX+1e-9 || y < loY-1e-9 || y > hiY+1e-9 {
			t.Fatalf("grid landmark %d = (%v,%v) outside box", k, x, y)
		}
	}
	// Spread: max pairwise distance should approach the box diagonal.
	var maxD float64
	for a := 0; a < 9; a++ {
		for b := a + 1; b < 9; b++ {
			d := math.Hypot(c.At(a, 0)-c.At(b, 0), c.At(a, 1)-c.At(b, 1))
			if d > maxD {
				maxD = d
			}
		}
	}
	diag := math.Hypot(hiX-loX, hiY-loY)
	if maxD < 0.9*diag {
		t.Fatalf("grid landmarks not spread: %v vs diag %v", maxD, diag)
	}
}

func TestInjectLandmarksWritesFirstLColumns(t *testing.T) {
	v := mat.NewDense(3, 5)
	v.Fill(9)
	c := mat.FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	injectLandmarks(v, c)
	if v.At(0, 0) != 1 || v.At(2, 1) != 6 {
		t.Fatalf("landmarks not injected: %v", v)
	}
	if v.At(0, 2) != 9 {
		t.Fatal("non-landmark columns were touched")
	}
}

func TestGradientDescentUpdaterRuns(t *testing.T) {
	x, omega, l := testProblem(t, 120, 30)
	cfg := quickCfg(4)
	cfg.Updater = GradientDescent
	cfg.LearningRate = 5e-4
	cfg.MaxIter = 200
	model, err := Fit(x, omega, l, SMF, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !model.U.IsFinite() || !model.V.IsFinite() {
		t.Fatal("GD produced non-finite factors")
	}
	if mat.Min(model.U) < 0 || mat.Min(model.V) < 0 {
		t.Fatal("GD violated nonnegativity projection")
	}
	// GD should make progress from the first recorded objective.
	first := model.Objective[0]
	last := model.Objective[len(model.Objective)-1]
	if last >= first {
		t.Fatalf("GD did not reduce objective: %v -> %v", first, last)
	}
}

func TestGDLandmarksAlsoFrozen(t *testing.T) {
	x, omega, l := testProblem(t, 100, 31)
	cfg := quickCfg(4)
	cfg.Updater = GradientDescent
	cfg.MaxIter = 60
	model, err := Fit(x, omega, l, SMFL, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !mat.EqualApprox(model.FeatureLocations(), model.C, 0) {
		t.Fatal("GD drifted the landmark columns")
	}
}

func TestLandmarkSourcesAllFit(t *testing.T) {
	x, omega, l := testProblem(t, 110, 32)
	for _, src := range []LandmarkSource{KMeansCenters, RandomObservations, UniformGrid} {
		cfg := quickCfg(4)
		cfg.LandmarkSource = src
		model, err := Fit(x, omega, l, SMFL, cfg)
		if err != nil {
			t.Fatalf("source %d: %v", src, err)
		}
		if !mat.EqualApprox(model.FeatureLocations(), model.C, 0) {
			t.Fatalf("source %d: landmarks drifted", src)
		}
	}
}

func TestLandmarksInsideObservationBoundingBox(t *testing.T) {
	// The paper's motivation (Fig. 1/5): SMFL features must sit near the
	// data, unlike NMF/SMF features which may drift far away.
	x, omega, l := testProblem(t, 200, 33)
	model, err := Fit(x, omega, l, SMFL, quickCfg(5))
	if err != nil {
		t.Fatal(err)
	}
	n, _ := x.Dims()
	si := x.Slice(0, n, 0, l)
	for j := 0; j < l; j++ {
		lo := mat.Min(si.Slice(0, n, j, j+1))
		hi := mat.Max(si.Slice(0, n, j, j+1))
		for k := 0; k < 5; k++ {
			v := model.C.At(k, j)
			if v < lo-1e-9 || v > hi+1e-9 {
				t.Fatalf("landmark %d dim %d = %v outside data range [%v,%v]", k, j, v, lo, hi)
			}
		}
	}
}
