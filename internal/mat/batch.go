package mat

import "fmt"

// This file holds the mini-batch machinery behind the stochastic updaters:
// a deterministic row-block sampler over the CSR index of Ω, and the fused
// gather/scatter kernels that apply one projected SGD step to the sampled
// rows while accumulating the batch's V-direction. The kernels read row data
// through the RowSource seam (source.go), so the dense in-memory path and
// the out-of-core shard store share every line of arithmetic. Everything
// here is a pure function of (source, factors, sampler state, pool size),
// which is what lets checkpointed stochastic fits resume bit-identically.

// BatchSampler draws deterministic mini-batches of observed cells for the
// stochastic updaters. Batches are row blocks: each epoch reshuffles the
// rows with a seeded permutation and cuts it greedily into consecutive
// blocks of at least the target observed-cell count (per the CSR index of
// Ω), so one epoch's batches visit every observed cell exactly once and
// each batch is a uniformly random row set. Each batch then lists its rows
// in ascending order, so a row-sharded source pins each shard at most once
// per worker chunk. Within a batch V is fixed and a row's U step reads only
// that row, so the order affects only the summation order (rounding) of
// the batch's V-direction. The whole sampler position is a single uint64 —
// Reshuffle is a pure function of it — so checkpoints persist it and
// epoch-granularity rollbacks rewind it without replaying history.
type BatchSampler struct {
	indptr []int // CSR row pointer of Ω (length n+1)
	target int
	state  uint64

	perm    []int32
	batchOf []int32 // batch index of each row in the current epoch
	starts  []int   // batch b covers perm[starts[b]:starts[b+1]]
	next    []int   // per-batch placement cursor (Reshuffle scratch)
	cells   []int   // observed cells in batch b
}

// NewBatchSamplerSource builds a sampler over the source's observed set
// targeting targetCells observed cells per batch (clamped to at least 1).
// state seeds the permutation stream; equal states yield identical epoch
// sequences. The sampler reads only Ω's per-row counts (the CSR row
// pointer), never the values, so dense and out-of-core sources over the
// same mask yield identical epoch layouts.
func NewBatchSamplerSource(src RowSource, targetCells int, state uint64) *BatchSampler {
	if targetCells < 1 {
		targetCells = 1
	}
	indptr := src.RowPtr()
	n := len(indptr) - 1
	return &BatchSampler{indptr: indptr, target: targetCells, state: state,
		perm: make([]int32, n), batchOf: make([]int32, n)}
}

// State returns the sampler position. Snapshot it before an epoch's
// Reshuffle to make that epoch replayable, and persist it in checkpoints.
func (s *BatchSampler) State() uint64 { return s.state }

// SetState rewinds (or fast-forwards) the sampler to a previously observed
// position; the next Reshuffle continues exactly as it did from there.
func (s *BatchSampler) SetState(st uint64) { s.state = st }

// splitmix64 advances s and returns the next value of the splitmix64
// sequence — the same generator the trainer's jitter stream uses.
func splitmix64(s *uint64) uint64 {
	*s += 0x9e3779b97f4a7c15
	z := *s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4b5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Reshuffle advances the state by one epoch and regenerates the permutation
// and batch boundaries. The permutation restarts from identity every call,
// so the epoch layout is a pure function of the post-advance state: restore
// State() and Reshuffle again to reproduce an epoch bit-for-bit.
func (s *BatchSampler) Reshuffle() {
	local := splitmix64(&s.state)
	for i := range s.perm {
		s.perm[i] = int32(i)
	}
	for i := len(s.perm) - 1; i > 0; i-- {
		j := int(splitmix64(&local) % uint64(i+1))
		s.perm[i], s.perm[j] = s.perm[j], s.perm[i]
	}
	s.starts = append(s.starts[:0], 0)
	s.cells = s.cells[:0]
	acc := 0
	for p, row := range s.perm {
		s.batchOf[row] = int32(len(s.cells))
		acc += s.indptr[row+1] - s.indptr[row]
		if acc >= s.target && p+1 < len(s.perm) {
			s.starts = append(s.starts, p+1)
			s.cells = append(s.cells, acc)
			acc = 0
		}
	}
	s.starts = append(s.starts, len(s.perm))
	s.cells = append(s.cells, acc)

	// Counting placement: walking rows in ascending order and appending each
	// to its batch's next slot leaves every batch sorted, in O(n).
	s.next = append(s.next[:0], s.starts[:len(s.cells)]...)
	for row, b := range s.batchOf {
		s.perm[s.next[b]] = int32(row)
		s.next[b]++
	}
}

// NumBatches returns the number of batches in the current epoch (call after
// Reshuffle).
func (s *BatchSampler) NumBatches() int { return len(s.starts) - 1 }

// Batch returns the row indices of batch b in ascending order. The slice
// aliases the sampler's permutation and is valid until the next Reshuffle.
func (s *BatchSampler) Batch(b int) []int32 { return s.perm[s.starts[b]:s.starts[b+1]] }

// BatchCells returns the observed-cell count of batch b — the SVRG weight
// |B|/|Ω| numerator.
func (s *BatchSampler) BatchCells(b int) int { return s.cells[b] }

// BatchScratch holds the reusable per-chunk buffers of the stochastic
// kernels: one K×M gradient partial, per-row prediction rows and one
// K-vector U-gradient per worker chunk. Allocate one per fit and reuse it
// across every batch; the kernels grow it on demand.
type BatchScratch struct {
	partials [][]float64
	preds    [][]float64
	apreds   [][]float64
	grads    [][]float64
}

// NewBatchScratch returns an empty scratch; the kernels size it lazily.
func NewBatchScratch() *BatchScratch { return &BatchScratch{} }

func (sc *BatchScratch) ensure(nc, k, cols int, anchor bool) {
	for len(sc.partials) < nc {
		sc.partials = append(sc.partials, nil)
		sc.preds = append(sc.preds, nil)
		sc.apreds = append(sc.apreds, nil)
		sc.grads = append(sc.grads, nil)
	}
	for ci := 0; ci < nc; ci++ {
		if len(sc.partials[ci]) < k*cols {
			sc.partials[ci] = make([]float64, k*cols)
		}
		if len(sc.preds[ci]) < cols {
			sc.preds[ci] = make([]float64, cols)
		}
		if anchor && len(sc.apreds[ci]) < cols {
			sc.apreds[ci] = make([]float64, cols)
		}
		if len(sc.grads[ci]) < k {
			sc.grads[ci] = make([]float64, k)
		}
	}
}

// StochasticStepSource applies one projected mini-batch step over the given
// rows of src and stores the batch's V-direction into gv (K×M, overwritten):
//
//	u_i ← max(0, u_i + 2·lr·Σ_{j∈Ω_i} e_ij·v_j)        (per sampled row i)
//	gv[r][j] = Σ_{i∈rows, j∈Ω_i, j≥startCol} e'_ij·u_i[r]
//
// where e_ij is the residual x_ij − u_i·v_j at the row's pre-step factors
// and e'_ij the residual at its updated u_i — the same Gauss-Seidel order
// as the full-sweep gradient-descent updater, which is what makes a batch
// covering all of Ω reproduce it. Because batches are whole rows, each
// row's U-gradient is exact (every cell of Ω_i is present), so only the
// V-direction is stochastic. When au/av are non-nil (SVRG), gv additionally
// subtracts the anchor's batch V-direction Σ ẽ_ij·ũ_i[r]; the caller adds
// back the weighted full anchor gradient from VGradObservedSource. Columns
// below startCol (frozen landmarks) are never written. Rows are partitioned
// onto the worker pool; per-chunk partials combine in chunk order, so
// results are deterministic for a fixed pool size. The chunk partition
// depends only on (row count, |Ω|·K work, pool size), so equal dense and
// out-of-core sources produce Float64bits-identical results.
func StochasticStepSource(src RowSource, gv, u, v *Dense, rows []int32, lr float64, startCol int, au, av *Dense, sc *BatchScratch) {
	stochAccum(src, gv, u, v, au, av, rows, lr, true, startCol, sc)
}

// VGradObservedSource stores the full observed V-direction at the given
// factors into gv (K×M, overwritten), without touching u:
//
//	gv[r][j] = Σ_{(i,j)∈Ω, j≥startCol} (x_ij − u_i·v_j)·u_i[r]
//
// This is the SVRG anchor's full gradient snapshot, recomputed once per
// anchor refresh in a single |Ω|·K pass (no N×M intermediate).
func VGradObservedSource(src RowSource, gv, u, v *Dense, startCol int, sc *BatchScratch) {
	stochAccum(src, gv, u, v, nil, nil, nil, 0, false, startCol, sc)
}

// stochAccum is the shared kernel behind StochasticStepSource (rows != nil,
// update) and VGradObservedSource (all rows, accumulate only). rows across a
// batch are distinct, so parallel chunks write disjoint u rows. Each chunk
// acquires its own row reader; shard-backed readers pin one shard at a time,
// so the transient memory of a chunk is bounded by one shard regardless of N.
func stochAccum(src RowSource, gv, u, v, au, av *Dense, rows []int32, lr float64, update bool, startCol int, sc *BatchScratch) {
	srcRows, cols := src.Dims()
	k := u.cols
	if u.rows != srcRows || v.rows != k || v.cols != cols {
		panic(fmt.Sprintf("mat: stochastic step %dx%d · %dx%d vs source %dx%d",
			u.rows, u.cols, v.rows, v.cols, srcRows, cols))
	}
	if gv.rows != k || gv.cols != cols {
		panic(dimErr("stochastic step gv", gv, v))
	}
	if (au == nil) != (av == nil) {
		panic("mat: stochastic step needs both anchors or neither")
	}
	if au != nil && (au.rows != u.rows || au.cols != k || av.rows != k || av.cols != cols) {
		panic("mat: stochastic step anchor shape mismatch")
	}
	indptr := src.RowPtr()
	n := srcRows
	ncells := src.NumObserved()
	if rows != nil {
		n = len(rows)
		ncells = 0
		for _, r := range rows {
			ncells += indptr[r+1] - indptr[r]
		}
	}
	workPer := 4 // pred + gradU + pred' + scatter, k mul-adds each
	if au != nil {
		workPer = 6 // plus the anchor's pred + scatter
	}
	nc := ChunksFor(n, ncells*k*workPer)
	sc.ensure(nc, k, cols, au != nil)
	ParallelChunks(n, nc, func(ci, lo, hi int) {
		rd := src.Reader()
		defer rd.Release()
		part := sc.partials[ci][:k*cols]
		clear(part)
		pred := sc.preds[ci][:cols]
		grad := sc.grads[ci][:k]
		var apred []float64
		if au != nil {
			apred = sc.apreds[ci][:cols]
		}
		for p := lo; p < hi; p++ {
			i := p
			if rows != nil {
				i = int(rows[p])
			}
			xi, jsr := rd.Row(i)
			if len(jsr) == 0 {
				continue
			}
			ui := u.data[i*k : (i+1)*k]
			if update {
				RowMulAt(pred, ui, v.data, cols, jsr)
				for _, j := range jsr {
					pred[j] = xi[j] - pred[j]
				}
				RowMulBTAt(grad, pred, v.data, cols, jsr)
				for r, g := range grad {
					nv := ui[r] + 2*lr*g
					if nv < 0 {
						nv = 0
					}
					ui[r] = nv
				}
			}
			// V-direction at the (updated) row coefficients. jsr is sorted,
			// so the frozen landmark columns are a prefix to skip once.
			js := jsr
			for len(js) > 0 && int(js[0]) < startCol {
				js = js[1:]
			}
			if len(js) == 0 {
				continue
			}
			RowMulAt(pred, ui, v.data, cols, js)
			for _, j := range js {
				pred[j] = xi[j] - pred[j]
			}
			if au != nil {
				ai := au.data[i*k : (i+1)*k]
				RowMulAt(apred, ai, av.data, cols, js)
				for _, j := range js {
					apred[j] = xi[j] - apred[j]
				}
				for r := 0; r < k; r++ {
					uir, air := ui[r], ai[r]
					pr := part[r*cols : (r+1)*cols]
					for _, j := range js {
						pr[j] += pred[j]*uir - apred[j]*air
					}
				}
			} else {
				for r := 0; r < k; r++ {
					uir := ui[r]
					pr := part[r*cols : (r+1)*cols]
					for _, j := range js {
						pr[j] += pred[j] * uir
					}
				}
			}
		}
	})
	gd := gv.data
	clear(gd)
	for ci := 0; ci < nc; ci++ {
		part := sc.partials[ci][:k*cols]
		for t, pv := range part {
			gd[t] += pv
		}
	}
}
