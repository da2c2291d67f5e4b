package landmark

import (
	"math"
	"math/rand"
	"testing"

	"github.com/spatialmf/smfl/internal/mat"
)

func buildPlacer(t *testing.T, rng *rand.Rand, n int) (*Placer, *mat.Dense) {
	t.Helper()
	si := clusteredSI(rng, n, 4, 2)
	ix, err := Build(si, Config{Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	u := mat.RandomUniform(rng, n, 6, 1e-3, 1)
	p, err := ix.NewPlacer(u)
	if err != nil {
		t.Fatal(err)
	}
	return p, si
}

func TestPlacerOpCountIsL(t *testing.T) {
	// The no-O(N) guarantee: placement cost is exactly L distance
	// evaluations, and L is set by the landmark count — quadrupling the
	// training set must not change the op count for a fixed L.
	rng := rand.New(rand.NewSource(110))
	si := clusteredSI(rng, 400, 4, 2)
	ix, err := Build(si, Config{MinLandmarks: 40, Seed: 8}) // the L of N = 1600
	if err != nil {
		t.Fatal(err)
	}
	small, err := ix.NewPlacer(mat.RandomUniform(rng, 400, 6, 1e-3, 1))
	if err != nil {
		t.Fatal(err)
	}
	pl, err := small.Place([]float64{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if pl.DistEvals != small.Landmarks() {
		t.Fatalf("DistEvals %d, want L = %d", pl.DistEvals, small.Landmarks())
	}

	siBig := clusteredSI(rng, 1600, 4, 2)
	ixBig, err := Build(siBig, Config{Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	big, err := ixBig.NewPlacer(mat.RandomUniform(rng, 1600, 6, 1e-3, 1))
	if err != nil {
		t.Fatal(err)
	}
	plBig, err := big.Place([]float64{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if plBig.DistEvals != pl.DistEvals {
		t.Fatalf("op count grew with N: %d (N=1600) vs %d (N=400)", plBig.DistEvals, pl.DistEvals)
	}
}

func TestPlaceNearestSortedAndEmbedded(t *testing.T) {
	rng := rand.New(rand.NewSource(111))
	p, si := buildPlacer(t, rng, 500)
	pl, err := p.Place(si.Row(42))
	if err != nil {
		t.Fatal(err)
	}
	if len(pl.Nearest) == 0 || len(pl.Nearest) != len(pl.Dist) {
		t.Fatalf("nearest/dist shape: %d vs %d", len(pl.Nearest), len(pl.Dist))
	}
	for i := 1; i < len(pl.Dist); i++ {
		if pl.Dist[i] < pl.Dist[i-1] {
			t.Fatalf("nearest landmarks not sorted: %v", pl.Dist)
		}
	}
	// The reported nearest must actually be the argmin over all landmarks.
	bestD := math.Inf(1)
	for b := 0; b < p.Landmarks(); b++ {
		if d := math.Sqrt(sqDist(si.Row(42), p.coords.Row(b))); d < bestD {
			bestD = d
		}
	}
	if pl.Dist[0] != bestD {
		t.Fatalf("nearest dist %v, true min %v", pl.Dist[0], bestD)
	}
	if len(pl.Embedding) != p.mds.Dim() {
		t.Fatalf("embedding length %d, want %d", len(pl.Embedding), p.mds.Dim())
	}
}

func TestWarmStartBlendsNearbyCoefficients(t *testing.T) {
	rng := rand.New(rand.NewSource(112))
	p, si := buildPlacer(t, rng, 500)
	k := p.Coeff().Cols()
	dst := make([]float64, k)
	if !p.WarmStart(dst, si.Row(7)) {
		t.Fatal("WarmStart failed on a clean row")
	}
	// Result is a floored convex blend: within the coefficient range.
	lo, hi := math.Inf(1), math.Inf(-1)
	for b := 0; b < p.Landmarks(); b++ {
		for _, v := range p.Coeff().Row(b) {
			lo, hi = math.Min(lo, v), math.Max(hi, v)
		}
	}
	for _, v := range dst {
		if v < math.Min(lo, 1e-3)-1e-12 || v > hi+1e-12 {
			t.Fatalf("blend %v outside coefficient range [%v,%v]", v, lo, hi)
		}
		if v < 1e-3 {
			t.Fatalf("warm start below multiplicative-update floor: %v", v)
		}
	}
	// A query at a landmark must be dominated by that landmark's row.
	b0 := 3
	at := p.coords.Row(b0)
	if !p.WarmStart(dst, at) {
		t.Fatal("WarmStart failed at a landmark")
	}
	want := p.Coeff().Row(b0)
	for j := range dst {
		w := math.Max(want[j], 1e-3)
		if math.Abs(dst[j]-w) > 0.05*(1+math.Abs(w)) {
			t.Fatalf("warm start at landmark %d drifted: got %v want ≈%v", b0, dst[j], w)
		}
	}
}

func TestWarmStartRejectsBadInput(t *testing.T) {
	rng := rand.New(rand.NewSource(113))
	p, _ := buildPlacer(t, rng, 300)
	dst := make([]float64, p.Coeff().Cols())
	if p.WarmStart(dst, []float64{math.NaN(), 0}) {
		t.Fatal("WarmStart accepted NaN input")
	}
	if p.WarmStart(dst, []float64{1}) {
		t.Fatal("WarmStart accepted wrong-length input")
	}
	if p.WarmStart(make([]float64, 1), []float64{0, 0}) {
		t.Fatal("WarmStart accepted wrong-length destination")
	}
}

func TestPlacerGobRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(114))
	p, si := buildPlacer(t, rng, 400)
	blob, err := p.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var q Placer
	if err := q.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	a, err := p.Place(si.Row(3))
	if err != nil {
		t.Fatal(err)
	}
	b, err := q.Place(si.Row(3))
	if err != nil {
		t.Fatal(err)
	}
	if a.DistEvals != b.DistEvals || len(a.Embedding) != len(b.Embedding) {
		t.Fatal("round-tripped placer shape differs")
	}
	for i := range a.Embedding {
		if a.Embedding[i] != b.Embedding[i] {
			t.Fatal("round-tripped embedding differs")
		}
	}
	for i := range a.Nearest {
		if a.Nearest[i] != b.Nearest[i] || a.Dist[i] != b.Dist[i] {
			t.Fatal("round-tripped nearest landmarks differ")
		}
	}
	if err := (&Placer{}).UnmarshalBinary([]byte("junk")); err == nil {
		t.Fatal("expected error for corrupt placer bytes")
	}
}
