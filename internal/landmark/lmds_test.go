package landmark

import (
	"math"
	"math/rand"
	"testing"

	"github.com/spatialmf/smfl/internal/mat"
)

func TestLMDSPreservesLandmarkDistances(t *testing.T) {
	// Classical MDS on Euclidean input at full intrinsic dimension is exact
	// up to rigid motion: embedded pairwise distances must match.
	rng := rand.New(rand.NewSource(100))
	lc := mat.RandomNormal(rng, 40, 3, 0, 2)
	m, err := NewLMDS(lc, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if m.Dim() != 3 {
		t.Fatalf("embedding dim %d, want 3", m.Dim())
	}
	y := m.Coords()
	for i := 0; i < 40; i++ {
		for j := i + 1; j < 40; j++ {
			orig := math.Sqrt(sqDist(lc.Row(i), lc.Row(j)))
			emb := math.Sqrt(sqDist(y.Row(i), y.Row(j)))
			if math.Abs(orig-emb) > 1e-6*(1+orig) {
				t.Fatalf("distance (%d,%d): original %v embedded %v", i, j, orig, emb)
			}
		}
	}
}

func TestLMDSTriangulateRecoversLandmarks(t *testing.T) {
	// Triangulating a landmark from its own distance row must reproduce its
	// embedding coordinates.
	rng := rand.New(rand.NewSource(101))
	lc := mat.RandomNormal(rng, 25, 2, 0, 1)
	m, err := NewLMDS(lc, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	l, _ := lc.Dims()
	d2 := make([]float64, l)
	for i := 0; i < l; i++ {
		for j := 0; j < l; j++ {
			d2[j] = sqDist(lc.Row(i), lc.Row(j))
		}
		got := m.Triangulate(nil, d2)
		want := m.Coords().Row(i)
		for k := range want {
			if math.Abs(got[k]-want[k]) > 1e-7 {
				t.Fatalf("landmark %d axis %d: triangulated %v, embedded %v", i, k, got[k], want[k])
			}
		}
	}
}

func TestLMDSTriangulateUnseenPoint(t *testing.T) {
	// An unseen point triangulated from its landmark distances must land so
	// that its embedded distances to the landmarks match the originals.
	// Full-dimension LMDS of Euclidean data is a rigid motion, so two
	// triangulated points also keep their distance to each other.
	rng := rand.New(rand.NewSource(102))
	lc := mat.RandomNormal(rng, 30, 3, 0, 2)
	m, err := NewLMDS(lc, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	l, _ := lc.Dims()
	var prevP, prevY []float64
	for trial := 0; trial < 20; trial++ {
		p := []float64{4 * rng.NormFloat64(), 4 * rng.NormFloat64(), 4 * rng.NormFloat64()}
		d2 := make([]float64, l)
		for j := 0; j < l; j++ {
			d2[j] = sqDist(p, lc.Row(j))
		}
		y := m.Triangulate(nil, d2)
		for j := 0; j < l; j++ {
			emb := math.Sqrt(sqDist(y, m.Coords().Row(j)))
			orig := math.Sqrt(d2[j])
			if math.Abs(emb-orig) > 1e-5*(1+orig) {
				t.Fatalf("trial %d landmark %d: embedded dist %v, original %v", trial, j, emb, orig)
			}
		}
		if prevP != nil {
			emb := math.Sqrt(sqDist(y, prevY))
			orig := math.Sqrt(sqDist(p, prevP))
			if math.Abs(emb-orig) > 1e-5*(1+orig) {
				t.Fatalf("trials %d,%d: embedded distance %v, original %v", trial-1, trial, emb, orig)
			}
		}
		prevP, prevY = p, y
	}
}

func TestEmbedAllPreservesDistances(t *testing.T) {
	// The index's own LMDS, fitted on landmarks Build selected: every row
	// triangulated from its L landmark distances keeps its distance to
	// every other row, because full-dimension LMDS of Euclidean data is a
	// rigid motion.
	rng := rand.New(rand.NewSource(103))
	si := clusteredSI(rng, 600, 4, 2)
	ix, err := Build(si, Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	mds, err := ix.ensureMDS()
	if err != nil {
		t.Fatal(err)
	}
	n, _ := si.Dims()
	l, _ := ix.coords.Dims()
	emb := mat.NewDense(n, mds.Dim())
	d2 := make([]float64, l)
	for i := 0; i < n; i++ {
		for b := 0; b < l; b++ {
			d2[b] = sqDist(si.Row(i), ix.coords.Row(b))
		}
		mds.Triangulate(emb.Row(i), d2)
	}
	for trial := 0; trial < 200; trial++ {
		i, j := rng.Intn(n), rng.Intn(n)
		orig := math.Sqrt(sqDist(si.Row(i), si.Row(j)))
		got := math.Sqrt(sqDist(emb.Row(i), emb.Row(j)))
		if math.Abs(got-orig) > 1e-5*(1+orig) {
			t.Fatalf("pair (%d,%d): embedded %v, original %v", i, j, got, orig)
		}
	}
}

func TestLMDSDegenerate(t *testing.T) {
	if _, err := NewLMDS(mat.NewDense(1, 2), 2, 0); err == nil {
		t.Fatal("expected error for a single landmark")
	}
	// Coincident landmarks: embedding collapses to the origin, no panic.
	m, err := NewLMDS(mat.NewDense(5, 2), 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	y := m.Triangulate(nil, make([]float64, 5))
	for _, v := range y {
		if v != 0 {
			t.Fatalf("degenerate embedding not at origin: %v", y)
		}
	}
}
