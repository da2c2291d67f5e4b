package spatial

import (
	"errors"
	"fmt"
	"math/bits"

	"github.com/spatialmf/smfl/internal/mat"
)

// Graph is the symmetric binary p-NN similarity structure of Formula 3:
// d_ij = 1 iff x_i ∈ NN_p(x_j) or x_j ∈ NN_p(x_i). Only the adjacency lists,
// in CSR form, and the degrees are stored — D is sparse with ≤ 2pN nonzeros.
type Graph struct {
	n   int
	ptr []int     // row i's neighbors are adj[ptr[i]:ptr[i+1]]
	adj []int32   // sorted neighbor lists, no self loops
	deg []float64 // w_ii = Σ_t d_it (Formula 4)
}

// BuildMode selects the neighbor-search backend for BuildGraph.
type BuildMode int

const (
	// KDTreeMode uses the KD-tree index (expected O(N log N) for small L).
	KDTreeMode BuildMode = iota
	// BruteForceMode uses exact O(N²L) scans, matching Proposition 1.
	BruteForceMode
)

// BuildGraph constructs the p-NN graph over the rows of si (the N×L spatial
// information block).
func BuildGraph(si *mat.Dense, p int, mode BuildMode) (*Graph, error) {
	n, l := si.Dims()
	if p <= 0 {
		return nil, errors.New("spatial: p must be positive")
	}
	if l == 0 {
		return nil, errors.New("spatial: spatial information has zero columns")
	}
	if !si.IsFinite() {
		return nil, errors.New("spatial: SI contains NaN or Inf; fill missing values first")
	}
	pts := make([][]float64, n)
	for i := 0; i < n; i++ {
		pts[i] = si.Row(i)
	}
	nbrs := make([][]int32, n)
	flat := make([]int32, n*p) // one backing array, not n small lists
	switch mode {
	case KDTreeMode:
		tree := NewKDTree(pts)
		// Queries are independent reads of the shared tree, so they chunk
		// over the worker pool; each chunk reuses one search scratch. The
		// work estimate is per-query node visits × per-node cost.
		work := n * bits.Len(uint(n)) * (16 + 2*p)
		mat.ParallelRange(n, work, func(lo, hi int) {
			var s KNNScratch
			for i := lo; i < hi; i++ {
				res := tree.KNNInto(&s, pts[i], p, i)
				lst := flat[i*p : i*p+len(res)]
				for t, j := range res {
					lst[t] = int32(j)
				}
				nbrs[i] = lst
			}
		})
	case BruteForceMode:
		for i := 0; i < n; i++ {
			res := bruteKNN(pts, pts[i], p, i)
			lst := make([]int32, len(res))
			for t, j := range res {
				lst[t] = int32(j)
			}
			nbrs[i] = lst
		}
	default:
		return nil, fmt.Errorf("spatial: unknown build mode %d", mode)
	}
	return NewGraphFromNeighbors(nbrs), nil
}

// NewGraphFromNeighbors assembles the symmetric Formula-3 graph from raw
// directed p-NN lists: edge {i,j} exists iff j ∈ nbrs[i] or i ∈ nbrs[j].
// Self-loops and duplicate entries are dropped. The merge is serial and
// index-ordered, so the result is deterministic regardless of how the lists
// were produced (parallel exact queries or landmark candidate generation).
func NewGraphFromNeighbors(nbrs [][]int32) *Graph {
	n := len(nbrs)
	cnt := make([]int, n)
	total := 0
	for i, lst := range nbrs {
		for _, j := range lst {
			if int(j) == i {
				continue
			}
			if j < 0 || int(j) >= n {
				panic(fmt.Sprintf("spatial: neighbor %d of %d out of range [0,%d)", j, i, n))
			}
			cnt[i]++
			cnt[j]++
			total += 2
		}
	}
	// One flat backing array with per-row cursors instead of 2N small
	// allocations; rows stay subslices of it.
	flat := make([]int32, total)
	off := make([]int, n+1)
	for i := 0; i < n; i++ {
		off[i+1] = off[i] + cnt[i]
	}
	// Each row's region fills as three ascending runs: backlinks from rows
	// below i (arriving in i' order), i's own list (sorted below), then
	// backlinks from rows above i. A 3-way merge-dedup is cheaper than
	// sorting the concatenation.
	cur := make([]int, n)
	copy(cur, off[:n])
	aEnd := make([]int, n)
	bEnd := make([]int, n)
	maxRow := 0
	for i, lst := range nbrs {
		aEnd[i] = cur[i]
		for _, j := range lst {
			if int(j) == i {
				continue
			}
			flat[cur[i]] = j
			cur[i]++
			flat[cur[j]] = int32(i) // symmetrize (the "or" in Formula 3)
			cur[j]++
		}
		bEnd[i] = cur[i]
		if r := off[i+1] - off[i]; r > maxRow {
			maxRow = r
		}
	}
	g := &Graph{n: n, ptr: make([]int, n+1), deg: make([]float64, n)}
	scratch := make([]int32, maxRow)
	for i := 0; i < n; i++ {
		// Sort the own-list run (≤p entries; backlink runs are already
		// ascending by construction).
		seg := flat[aEnd[i]:bEnd[i]]
		for a := 1; a < len(seg); a++ {
			x := seg[a]
			b := a - 1
			for b >= 0 && seg[b] > x {
				seg[b+1] = seg[b]
				b--
			}
			seg[b+1] = x
		}
		a, ae := off[i], aEnd[i]
		b, be := aEnd[i], bEnd[i]
		c, ce := bEnd[i], off[i+1]
		w := 0
		last := int32(-1)
		for a < ae || b < be || c < ce {
			m := int32(n)
			if a < ae {
				m = flat[a]
			}
			if b < be && flat[b] < m {
				m = flat[b]
			}
			if c < ce && flat[c] < m {
				m = flat[c]
			}
			if a < ae && flat[a] == m {
				a++
			}
			if b < be && flat[b] == m {
				b++
			}
			if c < ce && flat[c] == m {
				c++
			}
			if m != last {
				scratch[w] = m
				last = m
				w++
			}
		}
		// The merged list moves down to ptr[i] ≤ off[i], over regions
		// already read, so the rows end up contiguous at the front of flat.
		g.ptr[i+1] = g.ptr[i] + w
		copy(flat[g.ptr[i]:g.ptr[i+1]], scratch[:w])
		g.deg[i] = float64(w)
	}
	// Copy the merged rows out: flat has room for all 2·p·N directed
	// entries, and mutual edges leave much of it unused.
	g.adj = make([]int32, g.ptr[n])
	copy(g.adj, flat)
	return g
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// Neighbors returns the sorted neighbor list of vertex i (read-only).
func (g *Graph) Neighbors(i int) []int32 { return g.adj[g.ptr[i]:g.ptr[i+1]] }

// Edges returns the total number of undirected edges.
func (g *Graph) Edges() int { return len(g.adj) / 2 }

// Connected reports whether d_ij = 1.
func (g *Graph) Connected(i, j int) bool {
	a := g.Neighbors(i)
	lo, hi := 0, len(a)
	for lo < hi {
		mid := (lo + hi) / 2
		if a[mid] < int32(j) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(a) && a[lo] == int32(j)
}

// MulD stores D·u into dst (allocated if nil): (DU)_i = Σ_{j∈adj(i)} u_j.
// Rows of dst are written by exactly one worker, so the sparse product is
// row-partitioned across the shared pool. dst must not alias u.
func (g *Graph) MulD(dst, u *mat.Dense) *mat.Dense {
	r, c := u.Dims()
	if r != g.n {
		panic(fmt.Sprintf("spatial: MulD rows %d, graph has %d", r, g.n))
	}
	if dst == nil {
		dst = mat.NewDense(r, c)
	}
	ud, dd := u.Data(), dst.Data()
	mat.ParallelRange(g.n, 2*g.Edges()*c, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			di := dd[i*c : (i+1)*c]
			for k := range di {
				di[k] = 0
			}
			for _, j := range g.Neighbors(i) {
				uj := ud[int(j)*c : (int(j)+1)*c]
				for k, v := range uj {
					di[k] += v
				}
			}
		}
	})
	return dst
}

// MulW stores W·u into dst (allocated if nil): (WU)_i = deg_i · u_i.
func (g *Graph) MulW(dst, u *mat.Dense) *mat.Dense {
	r, c := u.Dims()
	if r != g.n {
		panic(fmt.Sprintf("spatial: MulW rows %d, graph has %d", r, g.n))
	}
	if dst == nil {
		dst = mat.NewDense(r, c)
	}
	ud, dd := u.Data(), dst.Data()
	mat.ParallelRange(g.n, g.n*c, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			d := g.deg[i]
			ui := ud[i*c : (i+1)*c]
			di := dd[i*c : (i+1)*c]
			for k, v := range ui {
				di[k] = d * v
			}
		}
	})
	return dst
}

// MulL stores L·u = (W−D)·u into dst (allocated if nil), fusing the degree
// scaling and neighbor subtraction into one row-partitioned pass.
// dst must not alias u.
func (g *Graph) MulL(dst, u *mat.Dense) *mat.Dense {
	r, c := u.Dims()
	if r != g.n {
		panic(fmt.Sprintf("spatial: MulL rows %d, graph has %d", r, g.n))
	}
	if dst == nil {
		dst = mat.NewDense(r, c)
	}
	ud, dd := u.Data(), dst.Data()
	mat.ParallelRange(g.n, (g.n+2*g.Edges())*c, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			d := g.deg[i]
			ui := ud[i*c : (i+1)*c]
			di := dd[i*c : (i+1)*c]
			for k, v := range ui {
				di[k] = d * v
			}
			for _, j := range g.Neighbors(i) {
				uj := ud[int(j)*c : (int(j)+1)*c]
				for k, v := range uj {
					di[k] -= v
				}
			}
		}
	})
	return dst
}

// WalkD stores D·u into dst and returns Tr(UᵀLU), from one serial pass over
// the edges (mat.GraphWalk): the bits of MulD and of QuadForm. The walk runs
// on one goroutine, because QuadForm's sum is a single dependent chain.
// dst must not alias u.
func (g *Graph) WalkD(dst, u *mat.Dense) float64 { return g.walk(dst, u, false) }

// WalkL stores L·u into dst and returns Tr(UᵀLU), as WalkD does: the bits
// of MulL and of QuadForm. dst must not alias u.
func (g *Graph) WalkL(dst, u *mat.Dense) float64 { return g.walk(dst, u, true) }

func (g *Graph) walk(dst, u *mat.Dense, laplacian bool) float64 {
	r, c := u.Dims()
	if dr, dc := dst.Dims(); r != g.n || dr != r || dc != c {
		panic(fmt.Sprintf("spatial: walk of %dx%d into %dx%d, graph has %d rows", r, c, dr, dc, g.n))
	}
	return mat.GraphWalk(dst.Data(), u.Data(), c, g.ptr, g.adj, laplacian)
}

// QuadForm returns Tr(UᵀLU) = ½ Σ_ij d_ij ‖u_i − u_j‖², the spatial
// regularizer O_SR of Section II-C. It is always ≥ 0.
func (g *Graph) QuadForm(u *mat.Dense) float64 {
	r, c := u.Dims()
	if r != g.n {
		panic(fmt.Sprintf("spatial: QuadForm rows %d, graph has %d", r, g.n))
	}
	ud := u.Data()
	var s float64
	for i := 0; i < g.n; i++ {
		ui := ud[i*c : (i+1)*c]
		for _, j := range g.Neighbors(i) {
			if int(j) < i {
				continue // count each undirected edge once
			}
			uj := ud[int(j)*c : (int(j)+1)*c]
			for k := 0; k < c; k++ {
				d := ui[k] - uj[k]
				s += d * d
			}
		}
	}
	return s
}

// DenseD materializes D as a dense matrix — for tests and tiny inputs only.
func (g *Graph) DenseD() *mat.Dense {
	d := mat.NewDense(g.n, g.n)
	for i := 0; i < g.n; i++ {
		for _, j := range g.Neighbors(i) {
			d.Set(i, int(j), 1)
		}
	}
	return d
}

// DenseL materializes L = W − D as a dense matrix — for tests only.
func (g *Graph) DenseL() *mat.Dense {
	l := mat.NewDense(g.n, g.n)
	for i := 0; i < g.n; i++ {
		l.Set(i, i, g.deg[i])
		for _, j := range g.Neighbors(i) {
			l.Set(i, int(j), -1)
		}
	}
	return l
}
