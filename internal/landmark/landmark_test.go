package landmark

import (
	"math"
	"math/rand"
	"testing"

	"github.com/spatialmf/smfl/internal/mat"
	"github.com/spatialmf/smfl/internal/spatial"
)

// clusteredSI draws n points split across nc well-separated Gaussian blobs
// in dim dimensions — the regime the landmark index is built for.
func clusteredSI(rng *rand.Rand, n, nc, dim int) *mat.Dense {
	centers := mat.RandomUniform(rng, nc, dim, -10, 10)
	si := mat.NewDense(n, dim)
	for i := 0; i < n; i++ {
		c := centers.Row(i % nc)
		for j := 0; j < dim; j++ {
			si.Set(i, j, c[j]+0.8*rng.NormFloat64())
		}
	}
	return si
}

func TestSelectBasics(t *testing.T) {
	rng := rand.New(rand.NewSource(90))
	si := clusteredSI(rng, 400, 4, 2)
	sel, err := Select(si, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(sel) != 20 { // ⌈√400⌉
		t.Fatalf("selected %d landmarks, want 20", len(sel))
	}
	seen := map[int]bool{}
	for _, i := range sel {
		if i < 0 || i >= 400 {
			t.Fatalf("landmark index %d out of range", i)
		}
		if seen[i] {
			t.Fatalf("duplicate landmark %d", i)
		}
		seen[i] = true
	}
	again, err := Select(si, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := range sel {
		if sel[i] != again[i] {
			t.Fatal("same seed produced different landmarks")
		}
	}
}

func TestSelectMinLandmarksAndCoverage(t *testing.T) {
	// Fixed, well-separated blob centers so coverage is a property of the
	// selector, not of random center placement.
	rng := rand.New(rand.NewSource(91))
	centers := [][]float64{{0, 0}, {20, 0}, {0, 20}, {20, 20}, {-20, 0}, {0, -20}}
	si := mat.NewDense(96, 2) // ⌈√96⌉ = 10 landmarks unless raised
	for i := 0; i < 96; i++ {
		c := centers[i%6]
		si.Set(i, 0, c[0]+0.5*rng.NormFloat64())
		si.Set(i, 1, c[1]+0.5*rng.NormFloat64())
	}
	sel, err := Select(si, Config{MinLandmarks: 12, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(sel) != 12 {
		t.Fatalf("MinLandmarks ignored: got %d", len(sel))
	}
	// Well-spread selection over 6 separated blobs must land in every blob.
	blobs := map[int]bool{}
	for _, i := range sel {
		blobs[i%6] = true
	}
	if len(blobs) != 6 {
		t.Fatalf("landmarks cover %d of 6 blobs", len(blobs))
	}
}

func TestSelectDegenerate(t *testing.T) {
	// All-identical points must still yield the requested count.
	si := mat.NewDense(50, 2)
	sel, err := Select(si, Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(sel) != 8 {
		t.Fatalf("got %d landmarks from duplicate points, want ⌈√50⌉ = 8", len(sel))
	}
	if _, err := Select(mat.NewDense(0, 2), Config{}); err == nil {
		t.Fatal("expected error for empty SI")
	}
	bad := mat.NewDense(4, 2)
	bad.Set(0, 0, math.NaN())
	if _, err := Select(bad, Config{}); err == nil {
		t.Fatal("expected error for NaN SI")
	}
}

// exactEdges returns the undirected edge set of the exact graph.
func exactEdges(g *spatial.Graph) map[[2]int32]bool {
	edges := map[[2]int32]bool{}
	for i := 0; i < g.N(); i++ {
		for _, j := range g.Neighbors(i) {
			if int32(i) < j {
				edges[[2]int32{int32(i), j}] = true
			}
		}
	}
	return edges
}

func TestPNNGraphRecall(t *testing.T) {
	// The paper's SI is two-dimensional (dataset.Generate enforces L=2),
	// so the default scan budget targets that regime.
	rng := rand.New(rand.NewSource(92))
	si := clusteredSI(rng, 2000, 5, 2)
	exact, err := spatial.BuildGraph(si, 5, spatial.KDTreeMode)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := Build(si, Config{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	approx, err := ix.PNNGraph(5)
	if err != nil {
		t.Fatal(err)
	}
	want := exactEdges(exact)
	hit := 0
	for e := range exactEdges(approx) {
		if want[e] {
			hit++
		}
	}
	recall := float64(hit) / float64(len(want))
	if recall < 0.9 {
		t.Fatalf("recall %.3f < 0.9 (%d of %d exact edges)", recall, hit, len(want))
	}
}

func TestPNNGraphLaplacianSymmetricPSD(t *testing.T) {
	rng := rand.New(rand.NewSource(93))
	si := clusteredSI(rng, 500, 4, 2)
	ix, err := Build(si, Config{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	g, err := ix.PNNGraph(4)
	if err != nil {
		t.Fatal(err)
	}
	// Symmetry: every directed edge has its reverse.
	for i := 0; i < g.N(); i++ {
		for _, j := range g.Neighbors(i) {
			if !g.Connected(int(j), i) {
				t.Fatalf("asymmetric edge (%d,%d)", i, j)
			}
		}
	}
	// PSD: x'Lx = ½ Σ d_ij (x_i−x_j)² ≥ 0 for random vectors, 0 for 1.
	for trial := 0; trial < 10; trial++ {
		x := mat.RandomNormal(rng, g.N(), 2, 0, 1)
		if q := g.QuadForm(x); q < -1e-9 {
			t.Fatalf("Laplacian quadratic form negative: %v", q)
		}
	}
	ones := mat.NewDense(g.N(), 1)
	ones.Fill(1)
	if q := g.QuadForm(ones); math.Abs(q) > 1e-9 {
		t.Fatalf("constant vector not in Laplacian kernel: %v", q)
	}
}

func TestPNNGraphDeterministicAcrossWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(94))
	si := clusteredSI(rng, 800, 3, 2)
	defer mat.SetThreshold(mat.SetThreshold(1))
	prev := mat.SetWorkers(1)
	ix1, err := Build(si, Config{Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	g1, err := ix1.PNNGraph(4)
	if err != nil {
		t.Fatal(err)
	}
	mat.SetWorkers(4)
	ix2, err := Build(si, Config{Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	g2, err := ix2.PNNGraph(4)
	mat.SetWorkers(prev)
	if err != nil {
		t.Fatal(err)
	}
	if g1.Edges() != g2.Edges() {
		t.Fatalf("edge counts differ across pool sizes: %d vs %d", g1.Edges(), g2.Edges())
	}
	for i := 0; i < g1.N(); i++ {
		a, b := g1.Neighbors(i), g2.Neighbors(i)
		if len(a) != len(b) {
			t.Fatalf("row %d neighbor counts differ", i)
		}
		for k := range a {
			if a[k] != b[k] {
				t.Fatalf("row %d neighbors differ across pool sizes", i)
			}
		}
	}
}
