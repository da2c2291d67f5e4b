package spatial

import (
	"math"
	"math/rand"
	"testing"

	"github.com/spatialmf/smfl/internal/dataset"
	"github.com/spatialmf/smfl/internal/mat"
)

func lineSI(n int) *mat.Dense {
	si := mat.NewDense(n, 2)
	for i := 0; i < n; i++ {
		si.Set(i, 0, float64(i))
	}
	return si
}

func TestBuildGraphLine(t *testing.T) {
	// Points on a line: 1-NN graph must be the path graph's skeleton.
	g, err := BuildGraph(lineSI(5), 1, BruteForceMode)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 5 {
		t.Fatalf("N = %d", g.N())
	}
	// 0's NN is 1; 1's is 0 or 2; symmetry must connect consecutive points
	// at the ends at minimum.
	if !g.Connected(0, 1) || !g.Connected(4, 3) {
		t.Fatal("endpoints not connected to their nearest neighbor")
	}
	// No self loops.
	for i := 0; i < 5; i++ {
		if g.Connected(i, i) {
			t.Fatalf("self loop at %d", i)
		}
	}
}

func graphsEqual(a, b *Graph) bool {
	if a.N() != b.N() || a.Edges() != b.Edges() {
		return false
	}
	for i := 0; i < a.N(); i++ {
		na, nb := a.Neighbors(i), b.Neighbors(i)
		if len(na) != len(nb) {
			return false
		}
		for k := range na {
			if na[k] != nb[k] {
				return false
			}
		}
	}
	return true
}

func TestBuildGraphParallelMatchesSerial(t *testing.T) {
	// The exact build chunks its KNN queries over the worker pool; the
	// merged graph must be identical at any pool size.
	rng := rand.New(rand.NewSource(64))
	si := mat.RandomNormal(rng, 600, 3, 0, 1)
	defer mat.SetThreshold(mat.SetThreshold(1)) // force the pooled path
	prev := mat.SetWorkers(1)
	serial, err := BuildGraph(si, 5, KDTreeMode)
	if err != nil {
		t.Fatal(err)
	}
	mat.SetWorkers(4)
	parallel, err := BuildGraph(si, 5, KDTreeMode)
	mat.SetWorkers(prev)
	if err != nil {
		t.Fatal(err)
	}
	if !graphsEqual(serial, parallel) {
		t.Fatal("parallel build differs from serial build")
	}
}

func TestNewGraphFromNeighbors(t *testing.T) {
	// Directed lists with self loops and duplicate mutual edges: the merge
	// must drop loops, dedup, sort, and symmetrize.
	g := NewGraphFromNeighbors([][]int32{
		{1, 2, 0}, // self loop dropped
		{0},       // mutual with 0 — dedup to one edge
		{},        // receives 0 by symmetry only
	})
	if g.Edges() != 2 {
		t.Fatalf("edges = %d, want 2", g.Edges())
	}
	want := [][]int32{{1, 2}, {0}, {0}}
	for i, w := range want {
		got := g.Neighbors(i)
		if len(got) != len(w) {
			t.Fatalf("row %d neighbors %v, want %v", i, got, w)
		}
		for k := range w {
			if got[k] != w[k] {
				t.Fatalf("row %d neighbors %v, want %v", i, got, w)
			}
		}
	}
	if g.deg[0] != 2 || g.deg[1] != 1 || g.deg[2] != 1 {
		t.Fatal("degrees do not match adjacency")
	}
}

func TestGraphAdjacencyOwnsNoSlack(t *testing.T) {
	// The merge fills a 2·p·N array; mutual edges dedup to fewer entries,
	// and the built graph must not keep the unused tail alive.
	rng := rand.New(rand.NewSource(5))
	g, err := BuildGraph(mat.RandomNormal(rng, 500, 2, 0, 1), 3, KDTreeMode)
	if err != nil {
		t.Fatal(err)
	}
	if 2*g.Edges() == 2*3*500 {
		t.Fatal("no mutual edges: the check below proves nothing")
	}
	if cap(g.adj) != len(g.adj) {
		t.Fatalf("adj holds %d entries in an array of %d", len(g.adj), cap(g.adj))
	}
}

func TestGraphSymmetryProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(60))
	for trial := 0; trial < 15; trial++ {
		n := 3 + rng.Intn(40)
		p := 1 + rng.Intn(4)
		si := mat.RandomNormal(rng, n, 2, 0, 1)
		g, err := BuildGraph(si, p, KDTreeMode)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			for _, j := range g.Neighbors(i) {
				if !g.Connected(int(j), i) {
					t.Fatalf("asymmetric edge (%d,%d)", i, j)
				}
			}
		}
	}
}

func TestKDTreeAndBruteForceAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 10; trial++ {
		n := 5 + rng.Intn(50)
		p := 1 + rng.Intn(3)
		si := mat.RandomNormal(rng, n, 2, 0, 1)
		g1, err := BuildGraph(si, p, KDTreeMode)
		if err != nil {
			t.Fatal(err)
		}
		g2, err := BuildGraph(si, p, BruteForceMode)
		if err != nil {
			t.Fatal(err)
		}
		if g1.Edges() != g2.Edges() {
			t.Fatalf("edge counts differ: %d vs %d", g1.Edges(), g2.Edges())
		}
		for i := 0; i < n; i++ {
			if g1.deg[i] != g2.deg[i] {
				t.Fatalf("degree mismatch at %d: %v vs %v", i, g1.deg[i], g2.deg[i])
			}
		}
	}
}

func TestDegreeMatchesAdjacency(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	si := mat.RandomNormal(rng, 30, 2, 0, 1)
	g, err := BuildGraph(si, 3, KDTreeMode)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		if g.deg[i] != float64(len(g.Neighbors(i))) {
			t.Fatalf("degree %v != |adj| %d at %d", g.deg[i], len(g.Neighbors(i)), i)
		}
	}
}

func TestMulDWLMatchDense(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	si := mat.RandomNormal(rng, 25, 2, 0, 1)
	g, err := BuildGraph(si, 2, KDTreeMode)
	if err != nil {
		t.Fatal(err)
	}
	u := mat.RandomNormal(rng, 25, 4, 0, 1)
	d := g.DenseD()
	wantD := mat.Mul(nil, d, u)
	if !mat.EqualApprox(g.MulD(nil, u), wantD, 1e-12) {
		t.Fatal("MulD != dense D·U")
	}
	l := g.DenseL()
	wantL := mat.Mul(nil, l, u)
	if !mat.EqualApprox(g.MulL(nil, u), wantL, 1e-12) {
		t.Fatal("MulL != dense L·U")
	}
	// W = L + D
	wantW := mat.Add(nil, wantL, wantD)
	if !mat.EqualApprox(g.MulW(nil, u), wantW, 1e-12) {
		t.Fatal("MulW != dense W·U")
	}
}

func TestQuadFormMatchesTrace(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	si := mat.RandomNormal(rng, 20, 2, 0, 1)
	g, err := BuildGraph(si, 3, BruteForceMode)
	if err != nil {
		t.Fatal(err)
	}
	u := mat.RandomNormal(rng, 20, 3, 0, 1)
	want := mat.Trace(mat.MulAT(nil, u, mat.Mul(nil, g.DenseL(), u)))
	got := g.QuadForm(u)
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("QuadForm = %v, Tr(UᵀLU) = %v", got, want)
	}
}

func TestLaplacianPSDProperty(t *testing.T) {
	// xᵀLx ≥ 0 for any x (the Laplacian is positive semidefinite).
	rng := rand.New(rand.NewSource(65))
	for trial := 0; trial < 20; trial++ {
		n := 3 + rng.Intn(30)
		si := mat.RandomNormal(rng, n, 2, 0, 1)
		g, err := BuildGraph(si, 1+rng.Intn(3), KDTreeMode)
		if err != nil {
			t.Fatal(err)
		}
		u := mat.RandomNormal(rng, n, 1+rng.Intn(4), 0, 2)
		if q := g.QuadForm(u); q < -1e-10 {
			t.Fatalf("quadratic form negative: %v", q)
		}
	}
}

func TestLaplacianKernelConstantVector(t *testing.T) {
	// L·1 = 0: constant columns are in the kernel.
	rng := rand.New(rand.NewSource(66))
	si := mat.RandomNormal(rng, 15, 2, 0, 1)
	g, err := BuildGraph(si, 2, KDTreeMode)
	if err != nil {
		t.Fatal(err)
	}
	ones := mat.NewDense(15, 1)
	ones.Fill(1)
	lu := g.MulL(nil, ones)
	if mat.FrobNorm(lu) > 1e-12 {
		t.Fatalf("L·1 = %v, want 0", lu)
	}
}

func TestBuildGraphErrors(t *testing.T) {
	si := mat.NewDense(5, 2)
	if _, err := BuildGraph(si, 0, KDTreeMode); err == nil {
		t.Fatal("expected error for p=0")
	}
	if _, err := BuildGraph(mat.NewDense(5, 0), 1, KDTreeMode); err == nil {
		t.Fatal("expected error for zero-column SI")
	}
	bad := mat.NewDense(3, 2)
	bad.Set(0, 0, math.NaN())
	if _, err := BuildGraph(bad, 1, KDTreeMode); err == nil {
		t.Fatal("expected error for NaN SI")
	}
}

func TestClusteredGraphStaysLocal(t *testing.T) {
	// Two far-apart clusters with p=1: no cross-cluster edges.
	si := mat.FromRows([][]float64{
		{0, 0}, {0.1, 0}, {0, 0.1},
		{100, 100}, {100.1, 100}, {100, 100.1},
	})
	g, err := BuildGraph(si, 1, BruteForceMode)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		for j := 3; j < 6; j++ {
			if g.Connected(i, j) {
				t.Fatalf("cross-cluster edge (%d,%d)", i, j)
			}
		}
	}
}

// BenchmarkGraphTerm times the spatial term's graph work per iteration on
// the graph of BenchmarkFitDense's table: p = 3 over the SI of the
// normalized 10k-row Vehicle table (dataset.Vehicle(0.1, 1)), at K = 10.
// WalkD and WalkL are the one walk a full-sweep iteration runs;
// MulD+QuadForm and MulL+QuadForm are the two walks each replaces;
// QuadForm alone is the serial chain of Edges·K dependent adds that any
// form of the term pays.
func BenchmarkGraphTerm(b *testing.B) {
	res, err := dataset.Vehicle(0.1, 1)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := res.Data.Normalize(); err != nil {
		b.Fatal(err)
	}
	x, l := res.Data.X, res.Data.L
	n, _ := x.Dims()
	si := mat.NewDense(n, l)
	for i := 0; i < n; i++ {
		copy(si.Row(i), x.Row(i)[:l])
	}
	g, err := BuildGraph(si, 3, KDTreeMode)
	if err != nil {
		b.Fatal(err)
	}
	u := mat.RandomUniform(rand.New(rand.NewSource(1)), n, 10, 1e-3, 1)
	dst := mat.NewDense(n, 10)
	var q float64
	for _, c := range []struct {
		name string
		run  func()
	}{
		{"WalkD", func() { q = g.WalkD(dst, u) }},
		{"WalkL", func() { q = g.WalkL(dst, u) }},
		{"MulD+QuadForm", func() { g.MulD(dst, u); q = g.QuadForm(u) }},
		{"MulL+QuadForm", func() { g.MulL(dst, u); q = g.QuadForm(u) }},
		{"QuadForm", func() { q = g.QuadForm(u) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c.run()
			}
		})
	}
	benchSink = q
}

var benchSink float64
