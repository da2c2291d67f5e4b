package spatial

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

func randomPoints(rng *rand.Rand, n, dim int) [][]float64 {
	pts := make([][]float64, n)
	for i := range pts {
		p := make([]float64, dim)
		for d := range p {
			p[d] = rng.NormFloat64()
		}
		pts[i] = p
	}
	return pts
}

// knn is a one-off KNNInto query on a fresh scratch.
func knn(t *KDTree, q []float64, k, exclude int) []int {
	var s KNNScratch
	return t.KNNInto(&s, q, k, exclude)
}

func TestKNNMatchesBruteForceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(60)
		dim := 1 + rng.Intn(3)
		k := 1 + rng.Intn(5)
		pts := randomPoints(rng, n, dim)
		tree := NewKDTree(pts)
		for qi := 0; qi < n; qi += 1 + n/8 {
			got := knn(tree, pts[qi], k, qi)
			want := bruteKNN(pts, pts[qi], k, qi)
			// Distances must match even if equal-distance ties pick
			// different indices.
			gd := distances(pts, pts[qi], got)
			wd := distances(pts, pts[qi], want)
			if !approxSliceEqual(gd, wd, 1e-12) {
				t.Fatalf("trial %d query %d: kdtree dists %v, brute %v", trial, qi, gd, wd)
			}
		}
	}
}

func distances(pts [][]float64, q []float64, idx []int) []float64 {
	out := make([]float64, len(idx))
	for i, j := range idx {
		out[i] = dist2(q, pts[j])
	}
	sort.Float64s(out)
	return out
}

func approxSliceEqual(a, b []float64, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if d := a[i] - b[i]; d > tol || d < -tol {
			return false
		}
	}
	return true
}

func TestKNNExcludesSelf(t *testing.T) {
	pts := [][]float64{{0, 0}, {1, 0}, {0, 1}}
	tree := NewKDTree(pts)
	got := knn(tree, pts[0], 2, 0)
	sort.Ints(got)
	if !reflect.DeepEqual(got, []int{1, 2}) {
		t.Fatalf("KNN = %v", got)
	}
}

func TestKNNSortedByDistance(t *testing.T) {
	pts := [][]float64{{0}, {3}, {1}, {10}}
	tree := NewKDTree(pts)
	got := knn(tree, []float64{0}, 3, 0)
	if !reflect.DeepEqual(got, []int{2, 1, 3}) {
		t.Fatalf("KNN = %v, want [2 1 3]", got)
	}
}

func TestKNNSmallTree(t *testing.T) {
	pts := [][]float64{{1, 1}}
	tree := NewKDTree(pts)
	if got := knn(tree, pts[0], 3, 0); len(got) != 0 {
		t.Fatalf("single-point tree with exclusion should return nothing, got %v", got)
	}
	if got := knn(tree, []float64{0, 0}, 3, -1); len(got) != 1 || got[0] != 0 {
		t.Fatalf("got %v", got)
	}
}

func TestKNNEmptyTree(t *testing.T) {
	tree := NewKDTree(nil)
	if got := knn(tree, []float64{0}, 1, -1); got != nil {
		t.Fatalf("empty tree KNN = %v", got)
	}
}

func TestKNNDuplicatePoints(t *testing.T) {
	pts := [][]float64{{1, 1}, {1, 1}, {1, 1}, {5, 5}}
	tree := NewKDTree(pts)
	got := knn(tree, pts[0], 2, 0)
	for _, j := range got {
		if j == 0 {
			t.Fatal("excluded index returned")
		}
	}
	if len(got) != 2 {
		t.Fatalf("got %v", got)
	}
	// Both must be the co-located duplicates, not the far point.
	for _, j := range got {
		if j == 3 {
			t.Fatalf("far point chosen over duplicates: %v", got)
		}
	}
}

func TestKDTreeMismatchedDimPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewKDTree([][]float64{{1, 2}, {3}})
}

// TestKNNIntoMatchesKNN: a scratch reused across queries answers as a
// one-off query on a fresh scratch does, and both agree with brute force.
func TestKNNIntoMatchesKNN(t *testing.T) {
	rng := rand.New(rand.NewSource(66))
	pts := make([][]float64, 300)
	for i := range pts {
		pts[i] = []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
	}
	tree := NewKDTree(pts)
	var s KNNScratch
	for trial := 0; trial < 50; trial++ {
		q := pts[rng.Intn(len(pts))]
		k := 1 + rng.Intn(10)
		a := knn(tree, q, k, -1)
		b := tree.KNNInto(&s, q, k, -1) // s reused across queries
		if len(a) != len(b) {
			t.Fatalf("lengths differ: %v vs %v", a, b)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("results differ: %v vs %v", a, b)
			}
		}
		// And both agree with the brute-force oracle on distances.
		ref := bruteKNN(pts, q, k, -1)
		for i := range a {
			if dist2(q, pts[a[i]]) != dist2(q, pts[ref[i]]) {
				t.Fatalf("tree result %v disagrees with brute force %v", a, ref)
			}
		}
	}
}

func TestKNNIntoZeroAllocSteadyState(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	pts := make([][]float64, 500)
	for i := range pts {
		pts[i] = []float64{rng.NormFloat64(), rng.NormFloat64()}
	}
	tree := NewKDTree(pts)
	var s KNNScratch
	tree.KNNInto(&s, pts[0], 8, 0) // warm up: grow heap/stack/out once
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 20; i++ {
			tree.KNNInto(&s, pts[i], 8, i)
		}
	})
	if allocs != 0 {
		t.Fatalf("KNNInto steady state allocates %v per run, want 0", allocs)
	}
}
