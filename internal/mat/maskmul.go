package mat

import (
	"fmt"
	"math/bits"
)

// DenseCutover is the observed-density threshold at which the fused masked
// kernels fall back to their dense counterparts. Below it, evaluating only
// the observed entries is cheaper; at or above it the dense ikj matmul wins
// through better streaming, despite computing entries that the mask
// immediately discards.
const DenseCutover = 0.85

// Density returns |Ω| / (rows·cols), the fraction of observed entries.
// An empty mask reports density 1.
func (m *Mask) Density() float64 {
	n := m.rows * m.cols
	if n == 0 {
		return 1
	}
	return float64(m.Count()) / float64(n)
}

// AppendObservedCols appends the observed column indices of row i, ascending,
// to js and returns the extended slice. It walks set bits with
// TrailingZeros64, so the cost is proportional to the words spanned plus the
// observed count, not to the row width.
func (m *Mask) AppendObservedCols(js []int32, i int) []int32 {
	if i < 0 || i >= m.rows {
		panic(fmt.Sprintf("mat: mask row %d out of range %d", i, m.rows))
	}
	base := i * m.cols
	end := base + m.cols
	for wi := base >> 6; wi<<6 < end; wi++ {
		w := m.words[wi]
		if w == 0 {
			continue
		}
		off := wi << 6
		if off < base {
			w &= ^uint64(0) << uint(base-off)
		}
		if end-off < 64 {
			w &= 1<<uint(end-off) - 1
		}
		for w != 0 {
			js = append(js, int32(off+bits.TrailingZeros64(w)-base))
			w &= w - 1
		}
	}
	return js
}

// rowIdx returns the CSR index of Ω, building and caching it on first use.
// One build costs a single pass over the bitset; the fused kernels then read
// each row's observed-column list directly instead of re-scanning mask words
// every call. The build is goroutine-safe via double-checked locking: the
// fast path is a single atomic load, and concurrent first uses block on one
// builder rather than each redundantly scanning the bitset. Observe/Hide
// still invalidate by storing nil, so a mutation between uses triggers one
// fresh build.
func (m *Mask) rowIdx() *maskIndex {
	if ix := m.index.Load(); ix != nil {
		return ix
	}
	m.indexMu.Lock()
	defer m.indexMu.Unlock()
	if ix := m.index.Load(); ix != nil {
		return ix
	}
	ix := &maskIndex{
		indptr: make([]int, m.rows+1),
		idx:    make([]int32, 0, m.Count()),
	}
	for i := 0; i < m.rows; i++ {
		ix.indptr[i] = len(ix.idx)
		ix.idx = m.AppendObservedCols(ix.idx, i)
	}
	ix.indptr[m.rows] = len(ix.idx)
	m.index.Store(ix)
	return ix
}

// RowIndex returns Ω in CSR form: row i's observed columns, ascending, are
// cols[ptr[i]:ptr[i+1]]. The slices are the mask's cached index, shared and
// read-only. Observe and Hide make the mask build a new index; they never
// change slices already handed out.
func (m *Mask) RowIndex() (ptr []int, cols []int32) {
	ix := m.rowIdx()
	return ix.indptr, ix.idx
}

// ProjectMul stores R_Ω(u·v) into dst (allocated if nil) and returns dst,
// evaluating only the observed entries instead of materializing the full
// u·v. Each row is one RowMulAt, k-outer and 4-wide over the factor rows,
// gathering on the row's observed column list, so per-iteration cost scales
// with |Ω|·k. When the mask density reaches DenseCutover it switches to the
// dense Mul followed by an in-place projection. dst must not alias u or v.
func (m *Mask) ProjectMul(dst, u, v *Dense) *Dense {
	if u.rows != m.rows || v.cols != m.cols || u.cols != v.rows {
		panic(fmt.Sprintf("mat: ProjectMul %dx%d · %dx%d vs mask %dx%d",
			u.rows, u.cols, v.rows, v.cols, m.rows, m.cols))
	}
	if dst == nil {
		dst = NewDense(m.rows, m.cols)
	}
	if dst.rows != m.rows || dst.cols != m.cols {
		panic(dimErr("ProjectMul dst", dst, &Dense{rows: m.rows, cols: m.cols}))
	}
	if m.rows*m.cols == 0 {
		return dst
	}
	if m.Density() >= DenseCutover {
		Mul(dst, u, v)
		return m.Project(dst, dst)
	}
	k := u.cols
	cols := m.cols
	ix := m.rowIdx()
	ParallelRange(m.rows, len(ix.idx)*k, func(lo, hi int) {
		clear(dst.data[lo*cols : hi*cols])
		for i := lo; i < hi; i++ {
			RowMulAt(dst.data[i*cols:(i+1)*cols], u.data[i*k:(i+1)*k], v.data, cols, ix.idx[ix.indptr[i]:ix.indptr[i+1]])
		}
	})
	return dst
}

// MulBTObserved stores R_Ω(a)·bᵀ into dst (allocated if nil) and returns
// dst, skipping the unobserved entries of a entirely. a is R×C and b is K×C,
// giving an R×K product. a must be supported on Ω (for example the output of
// ProjectMul or Project): off-Ω entries must be exact zeros, which makes the
// result equal MulBT(dst, a, b) while doing only |Ω|·K of its R·C·K
// multiply-adds, one RowMulBTAt per row. Near-full masks (density ≥ DenseCutover) delegate to the
// streaming MulBT, which beats the gathered walk there. dst must not alias a
// or b.
func (m *Mask) MulBTObserved(dst, a, b *Dense) *Dense {
	if a.rows != m.rows || a.cols != m.cols {
		panic(fmt.Sprintf("mat: MulBTObserved a %dx%d vs mask %dx%d", a.rows, a.cols, m.rows, m.cols))
	}
	if b.cols != m.cols {
		panic(dimErr("MulBTObserved", a, b))
	}
	if m.Density() >= DenseCutover {
		return MulBT(dst, a, b)
	}
	dst = mulDst(dst, a.rows, b.rows)
	k := b.rows
	cols := m.cols
	ix := m.rowIdx()
	ParallelRange(m.rows, len(ix.idx)*k, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			RowMulBTAt(dst.data[i*k:(i+1)*k], a.data[i*cols:(i+1)*cols], b.data, cols, ix.idx[ix.indptr[i]:ix.indptr[i+1]])
		}
	})
	return dst
}

// MaskedFrob2Mul returns ‖R_Ω(x − u·v)‖²_F without materializing u·v,
// fusing the reconstruction-error evaluation into one masked pass. The
// reduction is accumulated per worker chunk and combined in chunk order, so
// results are deterministic for a fixed pool size.
func (m *Mask) MaskedFrob2Mul(x, u, v *Dense) float64 {
	if x.rows != m.rows || x.cols != m.cols {
		panic(fmt.Sprintf("mat: MaskedFrob2Mul data %dx%d vs mask %dx%d", x.rows, x.cols, m.rows, m.cols))
	}
	return maskedFrob2Mul(NewDenseSource(x, m), u, v)
}

// MaskedFrob2MulSource is MaskedFrob2Mul over a RowSource. Both run the same
// kernel with the same chunk partition (same row count, same |Ω|·K work
// estimate), so equal sources reduce to Float64bits-identical objectives.
func MaskedFrob2MulSource(src RowSource, u, v *Dense) float64 {
	return maskedFrob2Mul(src, u, v)
}

// maskedFrob2Mul is the kernel behind both fused objectives: the sum over Ω
// of (x_ij − (u·v)_ij)², with each row's (u·v)_ij from RowMulAt.
func maskedFrob2Mul(src RowSource, u, v *Dense) float64 {
	n, cols := src.Dims()
	if u.rows != n || v.cols != cols || u.cols != v.rows {
		panic(fmt.Sprintf("mat: MaskedFrob2Mul %dx%d · %dx%d vs source %dx%d",
			u.rows, u.cols, v.rows, v.cols, n, cols))
	}
	if n == 0 || cols == 0 {
		return 0
	}
	k := u.cols
	return ParallelReduce(n, src.NumObserved()*k, func(lo, hi int) float64 {
		rd := src.Reader()
		defer rd.Release()
		pred := make([]float64, cols)
		var s float64
		for i := lo; i < hi; i++ {
			xi, jsr := rd.Row(i)
			RowMulAt(pred, u.data[i*k:(i+1)*k], v.data, cols, jsr)
			for _, j := range jsr {
				d := xi[j] - pred[j]
				s += d * d
			}
		}
		return s
	})
}

// RowMulAt stores (u·V)_j into p[j] for every column j in js, where V is the
// len(u)×m matrix with data v: one row of R_Ω(u·V), the observed-cell
// gather. The order is ProjectMul's: p[j] starts at zero, each block of four
// coefficients adds ((a0·v0 + a1·v1) + a2·v2) + a3·v3 to it, then each
// remaining coefficient adds a·v. No coefficient is skipped, and p outside
// js is left alone. len(p) must not exceed m.
//
// The first block stores 0 + its sum, which is those bits (0 + −0 is +0)
// without a pass that zeroes p first. The loops advance u and v rather than
// index them, and fourRows reslices each V row to len(p), so that the j
// loops keep their index in a register.
func RowMulAt(p, u, v []float64, m int, js []int32) {
	stored := false // a block has stored p[j]
	for ; len(u) >= 4; u, v = u[4:], v[4*m:] {
		a0, a1, a2, a3 := u[0], u[1], u[2], u[3]
		v0, v1, v2, v3 := fourRows(v, m, len(p))
		if stored {
			for _, j := range js {
				p[j] += a0*v0[j] + a1*v1[j] + a2*v2[j] + a3*v3[j]
			}
		} else {
			for _, j := range js {
				p[j] = 0 + (a0*v0[j] + a1*v1[j] + a2*v2[j] + a3*v3[j])
			}
			stored = true
		}
	}
	if !stored {
		for _, j := range js {
			p[j] = 0
		}
	}
	for ; len(u) > 0; u, v = u[1:], v[m:] {
		av := u[0]
		vt := v[:m][:len(p)]
		for _, j := range js {
			p[j] += av * vt[j]
		}
	}
}

// RowMulBTAt stores Σ_{j∈js} a_j·V_rj into dst[r] for every r < len(dst),
// where V is the len(dst)×m matrix with data v: one row of R_Ω(a)·Vᵀ, the
// observed dot. Each dst[r] is one running sum over js in order, as
// MulBTObserved sums; four rows share a pass over js, which changes no sum.
// len(a) must not exceed m. The loops are shaped as RowMulAt's.
func RowMulBTAt(dst, a, v []float64, m int, js []int32) {
	for ; len(dst) >= 4; dst, v = dst[4:], v[4*m:] {
		b0, b1, b2, b3 := fourRows(v, m, len(a))
		var s0, s1, s2, s3 float64
		for _, j := range js {
			av := a[j]
			s0 += av * b0[j]
			s1 += av * b1[j]
			s2 += av * b2[j]
			s3 += av * b3[j]
		}
		dst[0], dst[1], dst[2], dst[3] = s0, s1, s2, s3
	}
	for ; len(dst) > 0; dst, v = dst[1:], v[m:] {
		bt := v[:m][:len(a)]
		var s float64
		for _, j := range js {
			s += a[j] * bt[j]
		}
		dst[0] = s
	}
}

// fourRows returns the first four rows of the matrix with data v and row
// length m, each cut to its first n ≤ m entries, so that one bounds check
// on an index below n covers a load from all four.
func fourRows(v []float64, m, n int) (v0, v1, v2, v3 []float64) {
	return v[:m][:n], v[m : 2*m][:n], v[2*m : 3*m][:n], v[3*m : 4*m][:n]
}
