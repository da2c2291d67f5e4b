package kmeans

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/spatialmf/smfl/internal/dataset"
	"github.com/spatialmf/smfl/internal/mat"
)

// threeBlobs returns n points per blob around three well-separated centers.
func threeBlobs(rng *rand.Rand, n int) (*mat.Dense, []int) {
	centers := [][]float64{{0, 0}, {10, 0}, {0, 10}}
	x := mat.NewDense(3*n, 2)
	truth := make([]int, 3*n)
	for c, ctr := range centers {
		for i := 0; i < n; i++ {
			row := c*n + i
			x.Set(row, 0, ctr[0]+0.3*rng.NormFloat64())
			x.Set(row, 1, ctr[1]+0.3*rng.NormFloat64())
			truth[row] = c
		}
	}
	return x, truth
}

func TestRecoversWellSeparatedBlobs(t *testing.T) {
	rng := rand.New(rand.NewSource(70))
	x, truth := threeBlobs(rng, 30)
	res, err := Run(x, Config{K: 3, Seed: 1, Restarts: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Every pair in the same true blob must share a predicted label.
	for c := 0; c < 3; c++ {
		first := res.Labels[c*30]
		for i := 0; i < 30; i++ {
			if res.Labels[c*30+i] != first {
				t.Fatalf("blob %d split: labels %v vs %v", c, first, res.Labels[c*30+i])
			}
		}
	}
	_ = truth
	// Centers close to the true ones.
	for _, want := range [][]float64{{0, 0}, {10, 0}, {0, 10}} {
		found := false
		for j := 0; j < 3; j++ {
			d := math.Hypot(res.Centers.At(j, 0)-want[0], res.Centers.At(j, 1)-want[1])
			if d < 1 {
				found = true
			}
		}
		if !found {
			t.Fatalf("no center near %v; centers = %v", want, res.Centers)
		}
	}
}

func TestCostMatchesHelper(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	x := mat.RandomNormal(rng, 40, 3, 0, 1)
	res, err := Run(x, Config{K: 4, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Cost-Cost(x, res.Centers, res.Labels)) > 1e-9 {
		t.Fatalf("reported cost %v != recomputed %v", res.Cost, Cost(x, res.Centers, res.Labels))
	}
}

func TestKEqualsNIsZeroCost(t *testing.T) {
	x := mat.FromRows([][]float64{{0, 0}, {5, 5}, {9, 1}})
	res, err := Run(x, Config{K: 3, Seed: 3, Restarts: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost > 1e-12 {
		t.Fatalf("K=N cost = %v, want 0", res.Cost)
	}
}

func TestDeterministicForFixedSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	x := mat.RandomNormal(rng, 50, 2, 0, 1)
	a, err := Run(x, Config{K: 5, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(x, Config{K: 5, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if !mat.EqualApprox(a.Centers, b.Centers, 0) {
		t.Fatal("same seed produced different centers")
	}
	if a.Cost != b.Cost {
		t.Fatal("same seed produced different cost")
	}
}

func TestRestartsNeverWorse(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	x := mat.RandomNormal(rng, 60, 2, 0, 2)
	one, err := Run(x, Config{K: 6, Seed: 4, Restarts: 1})
	if err != nil {
		t.Fatal(err)
	}
	many, err := Run(x, Config{K: 6, Seed: 4, Restarts: 8})
	if err != nil {
		t.Fatal(err)
	}
	if many.Cost > one.Cost+1e-12 {
		t.Fatalf("restarts made cost worse: %v vs %v", many.Cost, one.Cost)
	}
}

func TestDuplicatePointsNoPanic(t *testing.T) {
	x := mat.NewDense(10, 2) // all identical points
	res, err := Run(x, Config{K: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost > 1e-12 {
		t.Fatalf("identical points cost = %v", res.Cost)
	}
}

func TestConfigValidation(t *testing.T) {
	x := mat.NewDense(5, 2)
	if _, err := Run(x, Config{K: 0}); err == nil {
		t.Fatal("expected error for K=0")
	}
	if _, err := Run(x, Config{K: 6}); err == nil {
		t.Fatal("expected error for K>N")
	}
	bad := mat.NewDense(3, 2)
	bad.Set(1, 1, math.Inf(1))
	if _, err := Run(bad, Config{K: 2}); err == nil {
		t.Fatal("expected error for Inf input")
	}
}

func TestLandmarkShape(t *testing.T) {
	// The centers matrix must be K×L — it is injected into V[:, :L].
	rng := rand.New(rand.NewSource(74))
	si := mat.RandomNormal(rng, 100, 2, 0, 1)
	res, err := Run(si, Config{K: 7, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if r, c := res.Centers.Dims(); r != 7 || c != 2 {
		t.Fatalf("centers shape %dx%d, want 7x2", r, c)
	}
}

func TestSeedPlusPlusIndices(t *testing.T) {
	rng := rand.New(rand.NewSource(76))
	x, _ := threeBlobs(rng, 20)
	n, _ := x.Dims()
	idx := SeedPlusPlusIndices(x, 3, rand.New(rand.NewSource(12)))
	if len(idx) != 3 {
		t.Fatalf("got %d indices, want 3", len(idx))
	}
	seenBlob := map[int]bool{}
	for _, i := range idx {
		if i < 0 || i >= n {
			t.Fatalf("index %d out of range [0,%d)", i, n)
		}
		seenBlob[i/20] = true
	}
	// D² seeding over three well-separated blobs must hit all three.
	if len(seenBlob) != 3 {
		t.Fatalf("seeds cover blobs %v, want all 3", seenBlob)
	}
	again := SeedPlusPlusIndices(x, 3, rand.New(rand.NewSource(12)))
	for j := range idx {
		if idx[j] != again[j] {
			t.Fatalf("same seed produced different indices: %v vs %v", idx, again)
		}
	}
}

func TestSeedPlusPlusIndicesMatchesRunSeeding(t *testing.T) {
	// seedPlusPlus must draw the exact same RNG sequence as the exported
	// index variant, so Run results are unchanged by the refactor.
	rng := rand.New(rand.NewSource(77))
	x := mat.RandomNormal(rng, 40, 2, 0, 1)
	idx := SeedPlusPlusIndices(x, 4, rand.New(rand.NewSource(21)))
	centers := seedPlusPlus(x, 40, 2, 4, rand.New(rand.NewSource(21)))
	for j, i := range idx {
		for d := 0; d < 2; d++ {
			if centers.At(j, d) != x.At(i, d) {
				t.Fatalf("center %d != row %d of x", j, i)
			}
		}
	}
}

func TestLloydCostNonIncreasingProperty(t *testing.T) {
	// Run with increasing iteration caps: cost must be non-increasing in
	// the cap (same seed ⇒ same trajectory prefix).
	rng := rand.New(rand.NewSource(75))
	x := mat.RandomNormal(rng, 80, 2, 0, 3)
	prev := math.Inf(1)
	for _, iters := range []int{1, 2, 4, 8, 16, 32} {
		res, err := Run(x, Config{K: 5, Seed: 11, MaxIter: iters})
		if err != nil {
			t.Fatal(err)
		}
		if res.Cost > prev+1e-9 {
			t.Fatalf("cost increased with more iterations: %v after %d iters (prev %v)", res.Cost, iters, prev)
		}
		prev = res.Cost
	}
}

// refRunOnce is runOnce as it read before the loop moved to flat data: one
// Dense.Row call per point, per point–center pair and per center update.
// TestRunOnceMatchesRowLoop holds the flat loop to its bits.
func refRunOnce(x *mat.Dense, n, k, maxIter int, rng *rand.Rand) *Result {
	_, dim := x.Dims()
	centers := seedPlusPlus(x, n, dim, k, rng)
	labels := make([]int, n)
	counts := make([]int, k)
	var cost float64
	iters := 0
	for ; iters < maxIter; iters++ {
		changed := false
		cost = 0
		for i := 0; i < n; i++ {
			xi := x.Row(i)
			bestJ, bestD := 0, math.Inf(1)
			for j := 0; j < k; j++ {
				d := sqDist(xi, centers.Row(j))
				if d < bestD {
					bestD, bestJ = d, j
				}
			}
			if labels[i] != bestJ {
				labels[i] = bestJ
				changed = true
			}
			cost += bestD
		}
		if !changed && iters > 0 {
			break
		}
		centers.Zero()
		for j := range counts {
			counts[j] = 0
		}
		for i := 0; i < n; i++ {
			c := centers.Row(labels[i])
			xi := x.Row(i)
			for d := range xi {
				c[d] += xi[d]
			}
			counts[labels[i]]++
		}
		for j := 0; j < k; j++ {
			if counts[j] == 0 {
				copy(centers.Row(j), x.Row(rng.Intn(n)))
				continue
			}
			inv := 1 / float64(counts[j])
			c := centers.Row(j)
			for d := range c {
				c[d] *= inv
			}
		}
	}
	return &Result{Centers: centers, Labels: labels, Cost: cost, Iters: iters}
}

// vehicleSI returns the two SI columns of a 10,000-row Vehicle table,
// min-max normalized as a fit sees them: the landmark clustering's input.
func vehicleSI(tb testing.TB) *mat.Dense {
	tb.Helper()
	res, err := dataset.Vehicle(0.1, 1)
	if err != nil {
		tb.Fatal(err)
	}
	n, _ := res.Data.Dims()
	si := res.Data.X.Slice(0, n, 0, 2).Clone()
	nz, err := dataset.FitNormalizer(si, nil)
	if err != nil {
		tb.Fatal(err)
	}
	nz.Apply(si)
	return si
}

// grid returns every point of the integer lattice {0, …, side−1}^dim, each
// reps times: centers and points meet at exact ties.
func grid(side, dim, reps int) *mat.Dense {
	n := reps
	for d := 0; d < dim; d++ {
		n *= side
	}
	x := mat.NewDense(n, dim)
	for i := 0; i < n; i++ {
		c := i / reps
		for d := 0; d < dim; d++ {
			x.Set(i, d, float64(c%side))
			c /= side
		}
	}
	return x
}

// midway returns 1-D points whose clusters {0, 1, 0, 1, …, 5} and {8, 10, …}
// have means 1 and 9. When the loop settles with 5 in the lower-index
// cluster, 5 lies exactly midway between the two means on every later pass.
func midway() *mat.Dense {
	var v []float64
	for i := 0; i < 4; i++ {
		v = append(v, 0, 1, 8, 10)
	}
	v = append(v, 5)
	x := mat.NewDense(len(v), 1)
	copy(x.Data(), v)
	return x
}

// laterTies counts the point-iterations after the first at which the row
// loop meets an exact tie for the nearest center, over at most maxIter
// iterations: the inputs on which a bound that skipped a tied point would
// change a label.
func laterTies(x *mat.Dense, k, maxIter int, seed int64) int {
	n, _ := x.Dims()
	var ties int
	for it := 1; it < maxIter; it++ {
		// The centers after it updates are the ones pass it reads.
		res := refRunOnce(x, n, k, it, rand.New(rand.NewSource(seed)))
		if res.Iters < it {
			break
		}
		for i := 0; i < n; i++ {
			best, count := math.Inf(1), 0
			for j := 0; j < k; j++ {
				switch d := sqDist(x.Row(i), res.Centers.Row(j)); {
				case d < best:
					best, count = d, 1
				case d == best:
					count++
				}
			}
			if count > 1 {
				ties++
			}
		}
	}
	return ties
}

// TestRunOnceMatchesRowLoop holds runOnce, which skips points by Hamerly's
// bounds, to the row loop's labels, centers, cost and iteration count,
// Float64bits-equal. The inputs are the ones bounds get wrong: exact ties
// (integer lattices, a point midway between two centers), reseeded empty
// clusters (duplicates with K above the distinct count), 1-D and 13-D data,
// K = 1 and K = N, caps of 1–3 iterations (the cost then reads the centers
// before the last update) and the landmark clustering's own input.
func TestRunOnceMatchesRowLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(74))
	blobs, _ := threeBlobs(rng, 200)
	// Six distinct points for K = 10: empty clusters are reseeded.
	few := mat.NewDense(60, 3)
	for i := 0; i < 60; i++ {
		for d := 0; d < 3; d++ {
			few.Set(i, d, float64((i%6)*(d+1)))
		}
	}
	small := mat.RandomUniform(rng, 40, 3, 0, 1)
	type tc struct {
		name    string
		x       *mat.Dense
		k       int
		maxIter int
		ties    bool // the row loop meets exact ties after its first pass
	}
	cases := []tc{
		{"blobs", blobs, 10, DefaultMaxIter, false},
		{"uniform", mat.RandomUniform(rng, 2000, 2, 0, 1), 10, DefaultMaxIter, false},
		{"few-distinct", few, 10, DefaultMaxIter, false},
		{"lattice-1d", grid(16, 1, 2), 9, DefaultMaxIter, true},
		{"lattice-2d", grid(4, 2, 2), 5, DefaultMaxIter, true},
		{"lattice-2d-wide", grid(16, 2, 2), 4, DefaultMaxIter, true},
		{"lattice-3d", grid(4, 3, 1), 8, DefaultMaxIter, true},
		{"midway", midway(), 2, DefaultMaxIter, true},
		{"1d", mat.RandomNormal(rng, 500, 1, 0, 1), 6, DefaultMaxIter, false},
		{"13d", mat.RandomNormal(rng, 500, 13, 0, 1), 8, DefaultMaxIter, false},
		{"k1", small, 1, DefaultMaxIter, false},
		{"k-equals-n", small, 40, DefaultMaxIter, false},
		{"vehicle-si", vehicleSI(t), 10, DefaultMaxIter, false},
	}
	// Tiny integer lattices: their exact ties land on higher-index labels
	// with bounds that are exact too, so a skip test without its margin, or
	// one that skips on upper = lower, moves a label here.
	tiny := rand.New(rand.NewSource(75))
	for trial := 0; trial < 400; trial++ {
		n, dim := 6+tiny.Intn(30), 1+tiny.Intn(2)
		x := mat.NewDense(n, dim)
		side := 2 + tiny.Intn(8)
		for i := range x.Data() {
			x.Data()[i] = float64(tiny.Intn(side))
		}
		cases = append(cases, tc{fmt.Sprintf("tiny-lattice-%d", trial), x, 2 + tiny.Intn(4), DefaultMaxIter, false})
	}
	for it := 1; it <= 3; it++ {
		cases = append(cases,
			tc{fmt.Sprintf("blobs-cap%d", it), blobs, 10, it, false},
			tc{fmt.Sprintf("lattice-cap%d", it), grid(4, 2, 2), 6, it, false},
			tc{fmt.Sprintf("few-distinct-cap%d", it), few, 10, it, false})
	}
	for _, tc := range cases {
		for seed := int64(1); seed <= 3; seed++ {
			n, dim := tc.x.Dims()
			want := refRunOnce(tc.x, n, tc.k, tc.maxIter, rand.New(rand.NewSource(seed)))
			got := runOnce(tc.x, n, dim, tc.k, tc.maxIter, rand.New(rand.NewSource(seed)))
			if got.Iters != want.Iters {
				t.Fatalf("%s seed %d: %d iterations, row loop %d", tc.name, seed, got.Iters, want.Iters)
			}
			if math.Float64bits(got.Cost) != math.Float64bits(want.Cost) {
				t.Fatalf("%s seed %d: cost %v, row loop %v", tc.name, seed, got.Cost, want.Cost)
			}
			for i := range want.Labels {
				if got.Labels[i] != want.Labels[i] {
					t.Fatalf("%s seed %d: label %d = %d, row loop %d", tc.name, seed, i, got.Labels[i], want.Labels[i])
				}
			}
			gd, wd := got.Centers.Data(), want.Centers.Data()
			for i := range wd {
				if math.Float64bits(gd[i]) != math.Float64bits(wd[i]) {
					t.Fatalf("%s seed %d: center value %d = %v, row loop %v", tc.name, seed, i, gd[i], wd[i])
				}
			}
		}
		if tc.ties {
			var ties int
			for seed := int64(1); seed <= 3; seed++ {
				ties += laterTies(tc.x, tc.k, 30, seed)
			}
			if ties == 0 {
				t.Fatalf("%s: the row loop meets no tie after its first pass, so the case tests nothing", tc.name)
			}
		}
	}
}

// BenchmarkRunOnce times one Lloyd run at the landmark clustering's shape:
// the Vehicle SI of a 10,000-row table, K = 10.
func BenchmarkRunOnce(b *testing.B) {
	si := vehicleSI(b)
	n, dim := si.Dims()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchResult = runOnce(si, n, dim, 10, DefaultMaxIter, rand.New(rand.NewSource(1)))
	}
}

var benchResult *Result
