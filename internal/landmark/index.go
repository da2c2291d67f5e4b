package landmark

import (
	"errors"
	"math"
	"sort"

	"github.com/spatialmf/smfl/internal/mat"
	"github.com/spatialmf/smfl/internal/spatial"
)

// Index is the landmark-bucket spatial index over the N rows of SI. Every
// row lives in the bucket of its nearest landmark, each bucket packs its
// members into a small counting-sorted 2-D grid over the two
// highest-variance coordinates, and each landmark knows its nearest peer
// buckets (min(DefaultProbes, L) probes, its own included). A p-NN query
// spirals outward over the grid cells of its probe buckets, rejecting cells
// — and whole peer buckets — whose bounding boxes are farther than the
// running p-th-best distance. The projection is 1-Lipschitz, so the cell
// bounds are valid lower bounds in any dimension and the search is exact
// within the probed buckets. Construction is O(N log L) assignment plus
// O(N) grid packing instead of the exact path's full KD-tree build over N
// points followed by N tree searches.
type Index struct {
	probes    int         // buckets a query scans, its own included
	si        *mat.Dense  // referenced, read-only
	landmarks []int       // selected row indices, selection order
	coords    *mat.Dense  // L×d landmark coordinates (owned copy)
	primary   []int32     // nearest landmark per row
	px, py    int         // projection axes (py < 0: single-axis projection)
	buckets   [][]int32   // rows of each bucket, grid-cell order
	bpts      [][]float64 // packed member coordinates, grid-cell order
	grids     []bgrid     // per-bucket cell geometry
	bprobes   [][]int32   // per-bucket probe lists, own bucket first
}

// bgrid is one bucket's cell structure over the projection plane.
type bgrid struct {
	gx, gy int     // cell counts per axis (≥1)
	x0, y0 float64 // bbox origin in projection space
	wx, wy float64 // cell widths (> 0)
	start  []int32 // gx·gy+1 offsets into the bucket's member arrays
	order  [][]cellRef
}

// cellRef is one candidate cell in a per-cell visit list. d2 is the squared
// ring lower bound ((ρ−1)·min(wx,wy))², nondecreasing along the list, so a
// query stops at the first bound past τ.
type cellRef struct {
	d2 float64
	c  int32
}

// Build selects landmarks over si and buckets every row under its nearest
// landmark.
func Build(si *mat.Dense, cfg Config) (*Index, error) {
	n, d := si.Dims()
	sel, err := Select(si, cfg)
	if err != nil {
		return nil, err
	}
	l := len(sel)
	coords := mat.NewDense(l, d)
	for i, row := range sel {
		copy(coords.Row(i), si.Row(row))
	}
	ix := &Index{probes: min(DefaultProbes, cfg.landmarks(n)), si: si, landmarks: sel, coords: coords}
	// Projection axes: the two highest-variance coordinates. For the
	// paper's 2-D SI this is the identity; for higher-dimensional SI the
	// projected cell bounds stay valid lower bounds.
	ix.px, ix.py = projectionAxes(si)
	// Assignment pass: the nearest landmark per row by a two-level scan —
	// rows first rank the ⌈√L⌉ best-spread coarse pivots (the selection
	// prefix), then scan the landmarks of the two nearest pivot groups.
	// ~3√L distance evaluations per row over flat arrays, with no tree
	// descent; a rare miss only shifts a row to an adjacent bucket, which
	// the probe lists cover.
	ix.primary = make([]int32, n)
	c := int(math.Ceil(math.Sqrt(float64(l))))
	group := make([][]int32, c)
	for b := 0; b < l; b++ {
		bi, bd := 0, math.Inf(1)
		for g := 0; g < c; g++ {
			if d2 := sqDist(coords.Row(b), coords.Row(g)); d2 < bd {
				bi, bd = g, d2
			}
		}
		group[bi] = append(group[bi], int32(b))
	}
	work := n * (c + 2*(l/c+1)) * (2*d + 4)
	cd := coords.Data()
	mat.ParallelRange(n, work, func(lo, hi int) {
		if d == 2 {
			// Flat-array fast path for the paper's 2-D SI: no slice
			// headers or length-generic loops per distance evaluation.
			for i := lo; i < hi; i++ {
				x := si.Row(i)
				x0, x1 := x[0], x[1]
				g1, g2 := 0, -1
				d1, d2 := math.Inf(1), math.Inf(1)
				for g := 0; g < c; g++ {
					dx, dy := x0-cd[2*g], x1-cd[2*g+1]
					v := dx*dx + dy*dy
					if v < d1 {
						g2, d2 = g1, d1
						g1, d1 = g, v
					} else if v < d2 {
						g2, d2 = g, v
					}
				}
				bi, bd := int32(g1), d1
				for _, grp := range [2]int{g1, g2} {
					if grp < 0 {
						continue
					}
					for _, b := range group[grp] {
						dx, dy := x0-cd[2*b], x1-cd[2*b+1]
						if v := dx*dx + dy*dy; v < bd {
							bi, bd = b, v
						}
					}
				}
				ix.primary[i] = bi
			}
			return
		}
		for i := lo; i < hi; i++ {
			x := si.Row(i)
			g1, g2 := 0, -1
			d1, d2 := math.Inf(1), math.Inf(1)
			for g := 0; g < c; g++ {
				v := sqDist(x, coords.Row(g))
				if v < d1 {
					g2, d2 = g1, d1
					g1, d1 = g, v
				} else if v < d2 {
					g2, d2 = g, v
				}
			}
			bi, bd := int32(g1), d1
			for _, grp := range [2]int{g1, g2} {
				if grp < 0 {
					continue
				}
				for _, b := range group[grp] {
					if v := sqDist(x, coords.Row(int(b))); v < bd {
						bi, bd = b, v
					}
				}
			}
			ix.primary[i] = bi
		}
	})
	// Bucket pass: group rows by landmark, then counting-sort each bucket
	// into its grid cells with member coordinates packed contiguously so
	// query scans stream memory.
	counts := make([]int, l)
	for i := 0; i < n; i++ {
		counts[ix.primary[i]]++
	}
	members := make([][]int32, l)
	for b := range members {
		members[b] = make([]int32, 0, counts[b])
	}
	for i := 0; i < n; i++ {
		members[ix.primary[i]] = append(members[ix.primary[i]], int32(i))
	}
	ix.buckets = make([][]int32, l)
	ix.bpts = make([][]float64, l)
	ix.grids = make([]bgrid, l)
	for b := range members {
		ix.packBucket(b, members[b], d)
	}
	// Probe lists: each bucket scans itself first, then its landmark's
	// nearest peer landmarks. L is small, so the L×L scan is negligible.
	q := ix.probes
	ix.bprobes = make([][]int32, l)
	type ld struct {
		d2 float64
		b  int32
	}
	cand := make([]ld, 0, l)
	for b := 0; b < l; b++ {
		cand = cand[:0]
		for o := 0; o < l; o++ {
			if o != b {
				cand = append(cand, ld{sqDist(coords.Row(b), coords.Row(o)), int32(o)})
			}
		}
		sort.Slice(cand, func(x, y int) bool {
			if cand[x].d2 != cand[y].d2 { //lint:ignore floatcmp deterministic tie-break needs exact equality
				return cand[x].d2 < cand[y].d2
			}
			return cand[x].b < cand[y].b
		})
		probes := make([]int32, 0, q)
		probes = append(probes, int32(b))
		for t := 0; t < q-1 && t < len(cand); t++ {
			probes = append(probes, cand[t].b)
		}
		ix.bprobes[b] = probes
	}
	return ix, nil
}

// projectionAxes picks the two highest-variance coordinates of si (one pass
// over the data). Returns py = -1 when si has a single column.
func projectionAxes(si *mat.Dense) (int, int) {
	n, d := si.Dims()
	if d == 1 {
		return 0, -1
	}
	sum := make([]float64, d)
	sum2 := make([]float64, d)
	for i := 0; i < n; i++ {
		for j, v := range si.Row(i) {
			sum[j] += v
			sum2[j] += v * v
		}
	}
	ax, ay := 0, 1
	var vx, vy float64 = -1, -1
	for j := 0; j < d; j++ {
		v := sum2[j] - sum[j]*sum[j]/float64(n)
		if v > vx {
			ay, vy = ax, vx
			ax, vx = j, v
		} else if v > vy {
			ay, vy = j, v
		}
	}
	return ax, ay
}

// proj maps a full-dimension point to the projection plane.
func (ix *Index) proj(x []float64) (float64, float64) {
	if ix.py < 0 {
		return x[ix.px], 0
	}
	return x[ix.px], x[ix.py]
}

// packBucket counting-sorts one bucket's members into grid cells, packing
// rows and coordinates in cell order. Cell count targets ~8 members per
// cell so a query touches a handful of candidates per ring.
func (ix *Index) packBucket(b int, rows []int32, d int) {
	m := len(rows)
	g := bgrid{gx: 1, gy: 1, wx: 1, wy: 1, start: nil}
	if m > 0 {
		xlo, ylo := math.Inf(1), math.Inf(1)
		xhi, yhi := math.Inf(-1), math.Inf(-1)
		for _, r := range rows {
			px, py := ix.proj(ix.si.Row(int(r)))
			xlo, xhi = math.Min(xlo, px), math.Max(xhi, px)
			ylo, yhi = math.Min(ylo, py), math.Max(yhi, py)
		}
		side := int(math.Sqrt(float64(m) / 8))
		if side < 1 {
			side = 1
		} else if side > 32 {
			side = 32 // bound the per-bucket visit lists on degenerate bucketings
		}
		g.gx, g.gy = side, side
		if ix.py < 0 {
			g.gy = 1
		}
		g.x0, g.y0 = xlo, ylo
		g.wx = (xhi - xlo) / float64(g.gx)
		g.wy = (yhi - ylo) / float64(g.gy)
		if g.wx <= 0 {
			g.wx, g.gx = 1, 1
		}
		if g.wy <= 0 {
			g.wy, g.gy = 1, 1
		}
	}
	ncell := g.gx * g.gy
	g.start = make([]int32, ncell+1)
	cid := make([]int32, m)
	for t, r := range rows {
		px, py := ix.proj(ix.si.Row(int(r)))
		c := g.cell(px, py)
		cid[t] = int32(c)
		g.start[c+1]++
	}
	for c := 0; c < ncell; c++ {
		g.start[c+1] += g.start[c]
	}
	sorted := make([]int32, m)
	pk := make([]float64, m*d)
	cur := make([]int32, ncell)
	copy(cur, g.start[:ncell])
	for t, r := range rows {
		at := cur[cid[t]]
		cur[cid[t]]++
		sorted[at] = r
		copy(pk[int(at)*d:(int(at)+1)*d], ix.si.Row(int(r)))
	}
	// Visit lists: for each cell, the non-empty cells of the grid in ring
	// order — home cell, then straight ring-1 neighbors before diagonals,
	// then outer rings row-scanned. d2 carries the monotone ring lower
	// bound, so a query walks the list with one comparison per entry
	// instead of re-deriving ring geometry. Built by enumeration, no sort.
	wmin := g.wx
	if g.gy > 1 && g.wy < wmin {
		wmin = g.wy
	}
	maxRing := g.gx
	if g.gy > maxRing {
		maxRing = g.gy
	}
	g.order = make([][]cellRef, ncell)
	var ring1 = [8][2]int{{0, -1}, {-1, 0}, {1, 0}, {0, 1}, {-1, -1}, {1, -1}, {-1, 1}, {1, 1}}
	for c := 0; c < ncell; c++ {
		cx, cy := c%g.gx, c/g.gx
		refs := make([]cellRef, 0, ncell)
		add := func(ox, oy int, d2 float64) {
			if ox < 0 || ox >= g.gx || oy < 0 || oy >= g.gy {
				return
			}
			o := oy*g.gx + ox
			if g.start[o+1] > g.start[o] {
				refs = append(refs, cellRef{d2, int32(o)})
			}
		}
		add(cx, cy, 0)
		for _, off := range ring1 {
			add(cx+off[0], cy+off[1], 0)
		}
		for ring := 2; ring < maxRing; ring++ {
			lb := float64(ring-1) * wmin
			lb *= lb
			ylo, yhi := cy-ring, cy+ring
			for oy := ylo; oy <= yhi; oy++ {
				if oy != ylo && oy != yhi {
					add(cx-ring, oy, lb)
					add(cx+ring, oy, lb)
					continue
				}
				for ox := cx - ring; ox <= cx+ring; ox++ {
					add(ox, oy, lb)
				}
			}
		}
		g.order[c] = refs
	}
	ix.buckets[b] = sorted
	ix.bpts[b] = pk
	ix.grids[b] = g
}

// cell returns the clamped cell id of a projected point.
func (g *bgrid) cell(px, py float64) int {
	cx := int((px - g.x0) / g.wx)
	if cx < 0 {
		cx = 0
	} else if cx >= g.gx {
		cx = g.gx - 1
	}
	cy := int((py - g.y0) / g.wy)
	if cy < 0 {
		cy = 0
	} else if cy >= g.gy {
		cy = g.gy - 1
	}
	return cy*g.gx + cx
}

// bboxDist2 returns the squared distance from a projected point to the
// grid's bounding box (0 inside).
func (g *bgrid) bboxDist2(px, py float64) float64 {
	dx := math.Max(0, math.Max(g.x0-px, px-(g.x0+float64(g.gx)*g.wx)))
	dy := math.Max(0, math.Max(g.y0-py, py-(g.y0+float64(g.gy)*g.wy)))
	return dx*dx + dy*dy
}

// cand is one scored neighbor candidate during a query (squared distance).
type cand struct {
	d2  float64
	row int32
}

// searchRow collects the approximate p nearest rows to row i from the grid
// cells of its landmark's probe buckets, spending at most budget distance
// evaluations once p candidates are held. best is the caller's scratch,
// returned re-sliced; entries are sorted by (dist², row).
func (ix *Index) searchRow(i, p, budget int, best []cand) []cand {
	x := ix.si.Row(i)
	d := len(x)
	qx, qy := ix.proj(x)
	best = best[:0]
	tau2 := math.Inf(1) // squared p-th best distance
	evals := 0
	for _, b := range ix.bprobes[ix.primary[i]] {
		if evals >= budget && len(best) == p {
			break
		}
		g := &ix.grids[b]
		if len(best) == p && g.bboxDist2(qx, qy) > tau2 {
			continue // whole peer bucket farther than the p-th best
		}
		rows, pts := ix.buckets[b], ix.bpts[b]
		// Walk the query cell's precomputed visit list: non-empty cells in
		// ascending box-to-box lower-bound order. The query sits in (or,
		// for peer buckets, clamps into) the home cell, so each bound is a
		// valid lower bound on any member's distance and the first bound
		// past τ ends the bucket.
		home := g.cell(qx, qy)
		for _, ref := range g.order[home] {
			if len(best) == p && (ref.d2 > tau2 || evals >= budget) {
				break
			}
			if len(best) == p && int(ref.c) != home {
				// Exact point-to-box bound for this cell: tighter than the
				// precomputed box-to-box 0 of touching neighbors, so cells
				// on the query's far side are skipped without spending
				// budget on their members.
				cx, cy := int(ref.c)%g.gx, int(ref.c)/g.gx
				dx := g.x0 + float64(cx)*g.wx - qx
				if v := qx - (g.x0 + float64(cx+1)*g.wx); v > dx {
					dx = v
				}
				if dx < 0 {
					dx = 0
				}
				dy := g.y0 + float64(cy)*g.wy - qy
				if v := qy - (g.y0 + float64(cy+1)*g.wy); v > dy {
					dy = v
				}
				if dy < 0 {
					dy = 0
				}
				if dx*dx+dy*dy > tau2 {
					continue
				}
			}
			for at := g.start[ref.c]; at < g.start[ref.c+1]; at++ {
				j := rows[at]
				if int(j) == i {
					continue
				}
				// Packed, sequential candidate coordinates: the hot loop
				// streams memory and works in squared distances, so no
				// sqrt is paid per candidate. The d==2 branch avoids the
				// per-candidate subslice on the paper's 2-D SI.
				var dj2 float64
				if d == 2 {
					dx := x[0] - pts[2*int(at)]
					dy := x[1] - pts[2*int(at)+1]
					dj2 = dx*dx + dy*dy
				} else {
					pt := pts[int(at)*d : (int(at)+1)*d]
					for k, v := range pt {
						dd := x[k] - v
						dj2 += dd * dd
					}
				}
				evals++
				if len(best) == p && (dj2 > tau2 || (dj2 == tau2 && j >= best[p-1].row)) { //lint:ignore floatcmp deterministic tie-break needs exact equality
					continue
				}
				ins := len(best)
				if ins < p {
					best = append(best, cand{})
				} else {
					ins = p - 1
				}
				for ins > 0 && (best[ins-1].d2 > dj2 || (best[ins-1].d2 == dj2 && best[ins-1].row > j)) { //lint:ignore floatcmp deterministic tie-break needs exact equality
					best[ins] = best[ins-1]
					ins--
				}
				best[ins] = cand{dj2, j}
				if len(best) == p {
					tau2 = best[p-1].d2
				}
			}
		}
	}
	return best
}

// PNNGraph builds the approximate symmetric p-NN graph, emitting the same
// CSR structure as spatial.BuildGraph so the fused fit loop is unchanged.
func (ix *Index) PNNGraph(p int) (*spatial.Graph, error) {
	n, _ := ix.si.Dims()
	if p <= 0 {
		return nil, errors.New("landmark: p must be positive")
	}
	// Distance evaluations per query once p candidates are held. Interior
	// rows satisfy the budget inside their own bucket's grid and never touch
	// peer buckets, while boundary rows spill over — the budget is what
	// keeps graph construction linear in N at a small constant.
	budget := max(4*p, 40)
	nbrs := make([][]int32, n)
	flat := make([]int32, n*p) // one backing array, not n small lists
	work := n * (64 + 10*budget)
	mat.ParallelRange(n, work, func(lo, hi int) {
		best := make([]cand, 0, p)
		for i := lo; i < hi; i++ {
			best = ix.searchRow(i, p, budget, best)
			lst := flat[i*p : i*p+len(best)]
			for t, c := range best {
				lst[t] = c.row
			}
			nbrs[i] = lst
		}
	})
	return spatial.NewGraphFromNeighbors(nbrs), nil
}

// NewPlacer extracts the O(L)-sized warm-start model: the landmark
// coordinates and the landmark rows of the trained coefficient matrix u
// (N×k, row-aligned with si). The Placer references nothing of size N.
func (ix *Index) NewPlacer(u *mat.Dense) *Placer {
	coeff := mat.NewDense(len(ix.landmarks), u.Cols())
	for i, row := range ix.landmarks {
		copy(coeff.Row(i), u.Row(row))
	}
	return &Placer{coords: ix.coords.Clone(), coeff: coeff, probes: ix.probes}
}
