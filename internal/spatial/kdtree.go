// Package spatial builds the p-nearest-neighbor similarity graph over
// spatial information SI (Formula 3 of the paper), its degree matrix W
// (Formula 4) and the graph Laplacian L = W − D, and provides the sparse
// products DU, WU, LU needed by the SMF/SMFL multiplicative updates.
//
// Neighbor search is backed by a KD-tree (expected O(N log N) construction
// of the whole graph for low-dimensional SI); an exact brute-force mode is
// kept both as a correctness oracle and for fidelity with the paper's
// O(N²L) Proposition 1 analysis.
package spatial

import (
	"fmt"
	"sort"
)

// kdNode is one node of the KD-tree over point indices.
type kdNode struct {
	point       int // index into the point set
	axis        int
	left, right *kdNode
}

// KDTree indexes points in R^dim for k-nearest-neighbor queries.
type KDTree struct {
	pts  [][]float64
	dim  int
	root *kdNode
}

// NewKDTree builds a balanced KD-tree over pts. All points must share the
// same dimensionality. The point slices are referenced, not copied.
func NewKDTree(pts [][]float64) *KDTree {
	if len(pts) == 0 {
		return &KDTree{}
	}
	dim := len(pts[0])
	for i, p := range pts {
		if len(p) != dim {
			panic(fmt.Sprintf("spatial: point %d has dim %d, want %d", i, len(p), dim))
		}
	}
	idx := make([]int, len(pts))
	for i := range idx {
		idx[i] = i
	}
	t := &KDTree{pts: pts, dim: dim}
	t.root = t.build(idx, 0)
	return t
}

func (t *KDTree) build(idx []int, depth int) *kdNode {
	if len(idx) == 0 {
		return nil
	}
	axis := depth % t.dim
	sort.Slice(idx, func(a, b int) bool { return t.pts[idx[a]][axis] < t.pts[idx[b]][axis] })
	mid := len(idx) / 2
	n := &kdNode{point: idx[mid], axis: axis}
	n.left = t.build(idx[:mid], depth+1)
	n.right = t.build(idx[mid+1:], depth+1)
	return n
}

// neighborHeap is a bounded max-heap of (dist², index) ordered by KNNScratch
// itself (open-coded sifts, no container/heap boxing).
type neighborHeap []neighbor

type neighbor struct {
	dist2 float64
	idx   int
}

// KNNScratch holds the reusable state of one KNN search — the bounded
// neighbor max-heap, the deferred-subtree stack, and the result buffer —
// so batched graph builds do a whole query stream with zero allocations.
// The zero value is ready to use; a scratch must not be shared between
// concurrent queries.
type KNNScratch struct {
	heap  neighborHeap
	stack []kdFrame
	out   []int
}

// kdFrame is a deferred far-side subtree with the squared distance from the
// query to the splitting plane that guards it.
type kdFrame struct {
	node *kdNode
	d2   float64
}

// KNNInto returns the indices of the k nearest points to q, excluding any
// index equal to exclude (pass -1 to keep all). Results are sorted by
// increasing distance (ties by index). Fewer than k indices are returned
// when the tree is small. s holds all intermediate state; the returned
// slice is owned by s and valid only until its next use.
func (t *KDTree) KNNInto(s *KNNScratch, q []float64, k, exclude int) []int {
	if t.root == nil || k <= 0 {
		return nil
	}
	if len(q) != t.dim {
		panic(fmt.Sprintf("spatial: query dim %d, want %d", len(q), t.dim))
	}
	s.heap = s.heap[:0]
	s.stack = append(s.stack[:0], kdFrame{node: t.root})
	for len(s.stack) > 0 {
		f := s.stack[len(s.stack)-1]
		s.stack = s.stack[:len(s.stack)-1]
		// Prune a deferred subtree when its splitting plane is no closer
		// than the current worst neighbor (checked at pop time, after the
		// heap has tightened further).
		if len(s.heap) == k && f.d2 >= s.heap[0].dist2 {
			continue
		}
		// Descend the near side iteratively, deferring far children.
		for n := f.node; n != nil; {
			if n.point != exclude {
				s.offer(neighbor{dist2(q, t.pts[n.point]), n.point}, k)
			}
			diff := q[n.axis] - t.pts[n.point][n.axis]
			near, far := n.left, n.right
			if diff > 0 {
				near, far = n.right, n.left
			}
			if far != nil && (len(s.heap) < k || diff*diff < s.heap[0].dist2) {
				s.stack = append(s.stack, kdFrame{far, diff * diff})
			}
			n = near
		}
	}
	// Insertion sort by (dist², index): k is small and the result must be
	// deterministic under ties.
	h := s.heap
	for i := 1; i < len(h); i++ {
		x := h[i]
		j := i - 1
		for j >= 0 && (h[j].dist2 > x.dist2 || (h[j].dist2 == x.dist2 && h[j].idx > x.idx)) { //lint:ignore floatcmp deterministic tie-break needs exact equality
			h[j+1] = h[j]
			j--
		}
		h[j+1] = x
	}
	s.out = s.out[:0]
	for _, nb := range h {
		s.out = append(s.out, nb.idx)
	}
	return s.out
}

// offer inserts nb into the bounded max-heap, displacing the current worst
// when full. Open-coded sift up/down avoids container/heap's interface
// boxing, which would allocate on every visited node.
func (s *KNNScratch) offer(nb neighbor, k int) {
	h := s.heap
	if len(h) < k {
		h = append(h, nb)
		i := len(h) - 1
		for i > 0 {
			p := (i - 1) / 2
			if h[p].dist2 >= h[i].dist2 {
				break
			}
			h[i], h[p] = h[p], h[i]
			i = p
		}
		s.heap = h
		return
	}
	if nb.dist2 >= h[0].dist2 {
		return
	}
	h[0] = nb
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		big := i
		if l < len(h) && h[l].dist2 > h[big].dist2 {
			big = l
		}
		if r < len(h) && h[r].dist2 > h[big].dist2 {
			big = r
		}
		if big == i {
			break
		}
		h[i], h[big] = h[big], h[i]
		i = big
	}
}

func dist2(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// bruteKNN is the exact reference used in tests and brute-force graph mode.
func bruteKNN(pts [][]float64, q []float64, k, exclude int) []int {
	type cand struct {
		d2  float64
		idx int
	}
	cands := make([]cand, 0, len(pts))
	for i, p := range pts {
		if i == exclude {
			continue
		}
		cands = append(cands, cand{dist2(q, p), i})
	}
	sort.Slice(cands, func(a, b int) bool {
		if cands[a].d2 != cands[b].d2 { //lint:ignore floatcmp deterministic tie-break needs exact equality
			return cands[a].d2 < cands[b].d2
		}
		return cands[a].idx < cands[b].idx
	})
	if k > len(cands) {
		k = len(cands)
	}
	out := make([]int, k)
	for i := 0; i < k; i++ {
		out[i] = cands[i].idx
	}
	return out
}
