package mat_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/spatialmf/smfl/internal/mat"
	"github.com/spatialmf/smfl/internal/spatial"
)

// walkGraph is a named graph of the walk cases.
type walkGraph struct {
	name string
	g    *spatial.Graph
}

// walkGraphs returns the graphs the walk cases run on: random neighbour
// lists over n vertices with vertex n−1 isolated, and the same lists with
// vertex 0 joined to every other vertex.
func walkGraphs(rng *rand.Rand, n int) []walkGraph {
	nbrs := make([][]int32, n)
	for i := 0; i < n-1; i++ {
		for t := rng.Intn(5); t > 0 && n > 2; t-- {
			nbrs[i] = append(nbrs[i], int32(rng.Intn(n-1)))
		}
	}
	hub := make([][]int32, n)
	copy(hub, nbrs)
	for j := 1; j < n; j++ {
		hub[0] = append(hub[0][:len(hub[0]):len(hub[0])], int32(j))
	}
	return []walkGraph{
		{"isolated", spatial.NewGraphFromNeighbors(nbrs)},
		{"hub", spatial.NewGraphFromNeighbors(hub)},
	}
}

// walkSpecials are the special values U mixes in: zeros of both signs,
// subnormals, infinities and the NaN that 0·Inf produces (mat.DefaultNaN).
var walkSpecials = []float64{
	0, math.Copysign(0, -1), 5e-324, -2.5e-310, 1e-308, math.Inf(1), math.Inf(-1), mat.DefaultNaN,
}

// walkU returns an n×k U of normal draws. With specials > 0, about one entry
// in five is one of walkSpecials[:specials]: the first five are finite and
// keep the quadratic form's chain finite, so a reordered chain shows in its
// bits; the rest test the non-finite lanes.
func walkU(rng *rand.Rand, n, k, specials int) *mat.Dense {
	u := mat.NewDense(n, k)
	d := u.Data()
	for i := range d {
		d[i] = rng.NormFloat64()
		if specials > 0 && rng.Intn(5) == 0 {
			d[i] = walkSpecials[rng.Intn(specials)]
		}
	}
	return u
}

// csr rebuilds g's CSR arrays from its neighbour lists.
func csr(g *spatial.Graph) ([]int, []int32) {
	ptr := make([]int, g.N()+1)
	var adj []int32
	for i := 0; i < g.N(); i++ {
		adj = append(adj, g.Neighbors(i)...)
		ptr[i+1] = len(adj)
	}
	return ptr, adj
}

// TestGraphWalkMatchesReferences pins the graph walk in both bodies: its
// neighbour sums must be Float64bits-equal to spatial's MulD (sum mode) and
// MulL (Laplacian mode), and its return to QuadForm, for K 1–13, 16 and 50
// on random graphs with an isolated vertex and with a vertex joined to
// every other (and on the empty graph), over finite values, over zeros of
// both signs and subnormals, and over infinities and NaN. The two bodies
// therefore give the same bits. The walk must write no entry of out past
// N·K and read no entry of u past it. It skips the AVX2 body with a log
// line where AVX2 is absent.
func TestGraphWalkMatchesReferences(t *testing.T) {
	bodies := []bool{false, true}
	if !mat.VectorBodies() {
		t.Log("this CPU or OS offers no AVX2: only the portable body runs here")
		bodies = bodies[:1]
	}
	rng := rand.New(rand.NewSource(24))
	const guard = 5
	for _, k := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 16, 50} {
		for _, n := range []int{0, 1, 2, 9, 40} {
			for _, wg := range walkGraphs(rng, n) {
				g := wg.g
				ptr, adj := csr(g)
				for _, specials := range []int{0, 5, len(walkSpecials)} {
					u := walkU(rng, n, k, specials)
					// u's entries sit in front of sentinels the walk must not read.
					ubuf := append(append([]float64(nil), u.Data()...), math.MaxFloat64, -1e300, 7, 7, 7)
					wantQ := g.QuadForm(u)
					for _, lap := range []bool{false, true} {
						want := g.MulD(nil, u)
						if lap {
							want = g.MulL(nil, u)
						}
						for _, vec := range bodies {
							name := fmt.Sprintf("K=%d N=%d %s specials=%d laplacian=%v avx2=%v", k, n, wg.name, specials, lap, vec)
							out := make([]float64, n*k+guard)
							for i := range out {
								out[i] = -3
							}
							var q float64
							mat.WithAVX2(vec, func() {
								q = mat.GraphWalk(out[:n*k], ubuf[:n*k], k, ptr, adj, lap)
							})
							if math.Float64bits(q) != math.Float64bits(wantQ) {
								t.Fatalf("%s: quadratic form %v, QuadForm %v", name, q, wantQ)
							}
							if i, ok := mat.SameBits(out[:n*k], want.Data()); !ok {
								t.Fatalf("%s: out[%d] = %v, reference %v", name, i, out[i], want.Data()[i])
							}
							for i, v := range out[n*k:] {
								if v != -3 {
									t.Fatalf("%s: wrote %v past out's end, at +%d", name, v, i)
								}
							}
						}
					}
				}
			}
		}
	}
}

// TestGraphWalkRefusesBadLists requires both bodies to panic on a neighbour
// index outside [0, N), on a row list that runs backwards or past adj, on a
// ptr[0] outside adj and on an empty ptr.
func TestGraphWalkRefusesBadLists(t *testing.T) {
	const n, k = 3, 5
	u := make([]float64, n*k)
	out := make([]float64, n*k)
	cases := map[string]struct {
		ptr []int
		adj []int32
	}{
		"index N":       {[]int{0, 1, 2, 3}, []int32{1, 0, n}},
		"index -1":      {[]int{0, 1, 2, 3}, []int32{1, -1, 0}},
		"backwards":     {[]int{0, 2, 1, 3}, []int32{1, 2, 0}},
		"past adj":      {[]int{0, 1, 2, 4}, []int32{1, 0, 0}},
		"ptr[0] past":   {[]int{4, 4, 4, 4}, []int32{1, 0, 0}},
		"ptr[0] before": {[]int{-1, 1, 2, 3}, []int32{1, 0, 0}},
		"no ptr":        {nil, []int32{1, 0, 0}},
	}
	for _, vec := range []bool{false, mat.VectorBodies()} {
		for name, c := range cases {
			mat.WithAVX2(vec, func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s, avx2=%v: no panic", name, vec)
					}
				}()
				mat.GraphWalk(out, u, k, c.ptr, c.adj, false)
			})
		}
	}
}
