package landmark

import (
	"bytes"
	"encoding/gob"
	"math"
	"math/rand"
	"sort"
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
	return ix.NewPlacer(mat.RandomUniform(rng, n, 6, 1e-3, 1)), si
}

// warmStart runs WarmStart on a one-row block holding si, fully observed.
func warmStart(p *Placer, dst, si []float64) bool {
	return p.WarmStart(dst, mat.FromRows([][]float64{si}), mat.FullMask(1, len(si)), 0)
}

func TestPlacerOpCountIsL(t *testing.T) {
	// The no-O(N) guarantee: a placer holds exactly L coordinate rows and L
	// coefficient rows, so a warm start costs L distance evaluations, and
	// L is set by the landmark count — quadrupling the training set must
	// not grow the placer for a fixed L.
	rng := rand.New(rand.NewSource(110))
	si := clusteredSI(rng, 400, 4, 2)
	ix, err := Build(si, Config{MinLandmarks: 40, Seed: 8}) // the L of N = 1600
	if err != nil {
		t.Fatal(err)
	}
	small := ix.NewPlacer(mat.RandomUniform(rng, 400, 6, 1e-3, 1))
	siBig := clusteredSI(rng, 1600, 4, 2)
	ixBig, err := Build(siBig, Config{Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	big := ixBig.NewPlacer(mat.RandomUniform(rng, 1600, 6, 1e-3, 1))
	for _, p := range []*Placer{small, big} {
		if p.Landmarks() != 40 || p.coords.Rows() != 40 || p.coeff.Rows() != 40 {
			t.Fatalf("placer holds %d coordinate and %d coefficient rows, want L = 40",
				p.coords.Rows(), p.coeff.Rows())
		}
	}
}

// TestWarmStartMatchesBruteForceBlend checks the nearest-landmark scan
// against a reference that sorts all L landmarks by distance (ties to the
// lower landmark) and blends the nearest with the same arithmetic: every
// warm start must match it bit for bit.
func TestWarmStartMatchesBruteForceBlend(t *testing.T) {
	rng := rand.New(rand.NewSource(111))
	p, si := buildPlacer(t, rng, 500)
	l, k := p.Landmarks(), p.Coeff().Cols()
	reference := func(x []float64) []float64 {
		order := make([]int, l)
		dist := make([]float64, l)
		for b := range order {
			order[b] = b
			dist[b] = math.Sqrt(sqDist(x, p.coords.Row(b)))
		}
		sort.SliceStable(order, func(a, b int) bool { return dist[order[a]] < dist[order[b]] })
		out := make([]float64, k)
		var wsum float64
		for _, b := range order[:min(p.probes, l)] {
			w := 1 / (dist[b]*dist[b] + 1e-9)
			wsum += w
			for j, v := range p.coeff.Row(b) {
				out[j] += w * v
			}
		}
		for j := range out {
			out[j] = math.Max(out[j]/wsum, 1e-3)
		}
		return out
	}
	queries := [][]float64{{0, 0}, {-30, 25}, p.coords.Row(3)}
	for i := 0; i < 500; i += 7 {
		queries = append(queries, si.Row(i))
	}
	dst := make([]float64, k)
	for _, x := range queries {
		if !warmStart(p, dst, x) {
			t.Fatalf("WarmStart refused %v", x)
		}
		want := reference(x)
		for j := range dst {
			if math.Float64bits(dst[j]) != math.Float64bits(want[j]) {
				t.Fatalf("warm start at %v: coefficient %d is %v, brute-force blend %v", x, j, dst[j], want[j])
			}
		}
	}
}

func TestWarmStartBlendsNearbyCoefficients(t *testing.T) {
	rng := rand.New(rand.NewSource(112))
	p, si := buildPlacer(t, rng, 500)
	k := p.Coeff().Cols()
	dst := make([]float64, k)
	if !warmStart(p, dst, si.Row(7)) {
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
	if !warmStart(p, dst, p.coords.Row(b0)) {
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
	if warmStart(p, dst, []float64{math.NaN(), 0}) {
		t.Fatal("WarmStart accepted NaN input")
	}
	if warmStart(p, dst, []float64{1}) {
		t.Fatal("WarmStart accepted a row narrower than the SI")
	}
	if warmStart(p, make([]float64, 1), []float64{0, 0}) {
		t.Fatal("WarmStart accepted wrong-length destination")
	}
	rows := mat.FromRows([][]float64{{0, 0, 5}, {0, 0, 5}})
	mask := mat.FullMask(2, 3)
	mask.Hide(1, 1)
	if !p.WarmStart(dst, rows, mask, 0) {
		t.Fatal("WarmStart refused a row with every SI cell observed")
	}
	if p.WarmStart(dst, rows, mask, 1) {
		t.Fatal("WarmStart accepted a row with a hidden SI cell")
	}
}

// TestWarmStartFarRowLeavesDst: an SI too far from every landmark gives
// every landmark weight 0, and the refused warm start must leave dst as it
// was — the caller's random start — not a zero row, which the
// multiplicative fold-in update could never leave.
func TestWarmStartFarRowLeavesDst(t *testing.T) {
	rng := rand.New(rand.NewSource(115))
	p, _ := buildPlacer(t, rng, 300)
	dst := []float64{0.25, 0.5, 0.75, 1, 0.125, 0.375}
	before := append([]float64(nil), dst...)
	if warmStart(p, dst, []float64{1e200, 1e200}) {
		t.Fatal("WarmStart accepted an SI whose distance to every landmark overflows")
	}
	for j := range dst {
		if math.Float64bits(dst[j]) != math.Float64bits(before[j]) {
			t.Fatalf("refused warm start overwrote dst: %v, was %v", dst, before)
		}
	}
}

// warmStarts collects the warm starts of p at every SI row.
func warmStarts(t *testing.T, p *Placer, si *mat.Dense) []uint64 {
	t.Helper()
	mask := mat.FullMask(si.Dims())
	dst := make([]float64, p.Coeff().Cols())
	var bits []uint64
	for i := 0; i < si.Rows(); i++ {
		if !p.WarmStart(dst, si, mask, i) {
			t.Fatalf("WarmStart refused row %d", i)
		}
		for _, v := range dst {
			bits = append(bits, math.Float64bits(v))
		}
	}
	return bits
}

func decodePlacer(t *testing.T, blob []byte) *Placer {
	t.Helper()
	var q Placer
	if err := q.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	if err := q.Validate(); err != nil {
		t.Fatal(err)
	}
	return &q
}

func TestPlacerGobRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(114))
	p, si := buildPlacer(t, rng, 400)
	blob, err := p.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	want := warmStarts(t, p, si)
	got := warmStarts(t, decodePlacer(t, blob), si)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("round-tripped warm start differs at value %d", i)
		}
	}
	if err := (&Placer{}).UnmarshalBinary([]byte("junk")); err == nil {
		t.Fatal("expected error for corrupt placer bytes")
	}
}

// legacyPlacerWire is the placer image written before the Landmark-MDS
// embedding was dropped: the current fields plus the four MDS ones.
type legacyPlacerWire struct {
	Coords    []byte
	Coeff     []byte
	Probes    int
	MDSDim    int
	MDSMu     []float64
	MDSCoords []byte
	MDSSharp  []byte
}

// TestPlacerLoadsLegacyImage: a placer image that still carries the MDS
// fields decodes, validates and warm-starts bit for bit like the same
// placer encoded without them.
func TestPlacerLoadsLegacyImage(t *testing.T) {
	rng := rand.New(rand.NewSource(116))
	p, si := buildPlacer(t, rng, 400)
	blob, err := p.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	l := p.Landmarks()
	w := legacyPlacerWire{Probes: p.probes, MDSDim: 2, MDSMu: make([]float64, l)}
	if w.Coords, err = p.coords.MarshalBinary(); err != nil {
		t.Fatal(err)
	}
	if w.Coeff, err = p.coeff.MarshalBinary(); err != nil {
		t.Fatal(err)
	}
	if w.MDSCoords, err = mat.NewDense(l, 2).MarshalBinary(); err != nil {
		t.Fatal(err)
	}
	w.MDSSharp = w.MDSCoords
	var legacy bytes.Buffer
	if err := gob.NewEncoder(&legacy).Encode(&w); err != nil {
		t.Fatal(err)
	}
	want := warmStarts(t, decodePlacer(t, blob), si)
	got := warmStarts(t, decodePlacer(t, legacy.Bytes()), si)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("legacy image warm-starts differently at value %d", i)
		}
	}
}
