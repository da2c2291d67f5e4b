package mat

import (
	"fmt"
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
)

// Mask records which entries of an N×M matrix are observed (the set Ω in the
// paper). Its complement is the unobserved/dirty set Ψ. The mask is a bitset:
// bit (i*M+j) set means (i,j) ∈ Ω.
type Mask struct {
	rows, cols int
	words      []uint64
	// index lazily caches the observed columns per row in CSR form for the
	// fused masked kernels, which walk Ω once per training iteration. It is
	// invalidated by Observe/Hide; indexMu serializes the build so a burst of
	// concurrent first uses (e.g. pooled workers hitting a fresh mask) runs
	// exactly one O(rows·cols) scan instead of one per goroutine.
	index   atomic.Pointer[maskIndex]
	indexMu sync.Mutex
}

// maskIndex is a CSR view of Ω: row i's observed columns are
// idx[indptr[i]:indptr[i+1]].
type maskIndex struct {
	indptr []int
	idx    []int32
}

// NewMask returns an all-unobserved mask of the given shape.
func NewMask(rows, cols int) *Mask {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("mat: negative mask dimension %dx%d", rows, cols))
	}
	n := rows * cols
	return &Mask{rows: rows, cols: cols, words: make([]uint64, (n+63)/64)}
}

// NewMaskWords returns a rows×cols mask that adopts words as its bitset: bit
// (i*cols+j) set means (i,j) ∈ Ω. words must hold exactly ⌈rows·cols/64⌉
// words, with every bit past rows·cols clear, and the caller must not write
// it afterwards. A reader that sets Ω's bits as it parses builds its mask
// this way without a second copy.
func NewMaskWords(rows, cols int, words []uint64) *Mask {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("mat: negative mask dimension %dx%d", rows, cols))
	}
	n := rows * cols
	if len(words) != (n+63)/64 {
		panic(fmt.Sprintf("mat: %d mask words for %dx%d", len(words), rows, cols))
	}
	if rem := n % 64; rem != 0 && words[len(words)-1]>>rem != 0 {
		panic(fmt.Sprintf("mat: mask bits set past %dx%d", rows, cols))
	}
	return &Mask{rows: rows, cols: cols, words: words}
}

// FullMask returns an all-observed mask of the given shape.
func FullMask(rows, cols int) *Mask {
	m := NewMask(rows, cols)
	n := rows * cols
	for i := range m.words {
		m.words[i] = ^uint64(0)
	}
	if rem := n % 64; rem != 0 && len(m.words) > 0 {
		m.words[len(m.words)-1] = (uint64(1) << rem) - 1
	}
	return m
}

// Dims returns the mask shape.
func (m *Mask) Dims() (r, c int) { return m.rows, m.cols }

func (m *Mask) idx(i, j int) int {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("mat: mask index (%d,%d) out of range %dx%d", i, j, m.rows, m.cols))
	}
	return i*m.cols + j
}

// Observed reports whether (i,j) ∈ Ω.
func (m *Mask) Observed(i, j int) bool {
	k := m.idx(i, j)
	return m.words[k>>6]&(1<<(uint(k)&63)) != 0
}

// Observe marks (i,j) as observed.
func (m *Mask) Observe(i, j int) {
	k := m.idx(i, j)
	m.words[k>>6] |= 1 << (uint(k) & 63)
	m.dropIndex()
}

// Hide marks (i,j) as unobserved.
func (m *Mask) Hide(i, j int) {
	k := m.idx(i, j)
	m.words[k>>6] &^= 1 << (uint(k) & 63)
	m.dropIndex()
}

// dropIndex discards the cached CSR index, if one was built. With none built
// it is a plain load: an unconditional atomic store is an XCHG on amd64, and
// masks built cell by cell (InjectMissing) call Hide once per hidden cell.
func (m *Mask) dropIndex() {
	if m.index.Load() != nil {
		m.index.Store(nil)
	}
}

// Count returns |Ω|, the number of observed entries.
func (m *Mask) Count() int {
	var n int
	for _, w := range m.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// CountHidden returns |Ψ| = rows*cols − |Ω|.
func (m *Mask) CountHidden() int { return m.rows*m.cols - m.Count() }

// Complement returns a new mask with every entry flipped (Ψ as a mask).
func (m *Mask) Complement() *Mask {
	out := NewMask(m.rows, m.cols)
	for i, w := range m.words {
		out.words[i] = ^w
	}
	if rem := (m.rows * m.cols) % 64; rem != 0 && len(out.words) > 0 {
		out.words[len(out.words)-1] &= (uint64(1) << rem) - 1
	}
	return out
}

// Clone returns a deep copy of the mask.
func (m *Mask) Clone() *Mask {
	out := NewMask(m.rows, m.cols)
	copy(out.words, m.words)
	return out
}

// RowObserved reports whether every entry of row i is observed.
func (m *Mask) RowObserved(i int) bool {
	for j := 0; j < m.cols; j++ {
		if !m.Observed(i, j) {
			return false
		}
	}
	return true
}

// ColObservedCount returns the number of observed entries in column j.
func (m *Mask) ColObservedCount(j int) int {
	var n int
	for i := 0; i < m.rows; i++ {
		if m.Observed(i, j) {
			n++
		}
	}
	return n
}

// Project stores R_Ω(x) into dst (allocated if nil): observed entries are
// copied, unobserved zeroed. Returns dst. dst may alias x.
func (m *Mask) Project(dst, x *Dense) *Dense {
	if x.rows != m.rows || x.cols != m.cols {
		panic(fmt.Sprintf("mat: Project shape %dx%d vs mask %dx%d", x.rows, x.cols, m.rows, m.cols))
	}
	if dst == nil {
		dst = NewDense(m.rows, m.cols)
	}
	if dst.rows != m.rows || dst.cols != m.cols {
		panic(dimErr("Project dst", dst, x))
	}
	n := m.rows * m.cols
	// Word-at-a-time: fully observed words become a block copy, fully
	// hidden words a block zero; only mixed words walk individual bits.
	// Chunking on word boundaries keeps the pooled ranges disjoint.
	ParallelRange(len(m.words), n, func(wlo, whi int) {
		for wi := wlo; wi < whi; wi++ {
			w := m.words[wi]
			lo := wi * 64
			hi := lo + 64
			if hi > n {
				hi = n
			}
			switch {
			case w == 0:
				for k := lo; k < hi; k++ {
					dst.data[k] = 0
				}
			case w == ^uint64(0) && hi-lo == 64:
				copy(dst.data[lo:hi], x.data[lo:hi])
			default:
				for k := lo; k < hi; k++ {
					if w&(1<<(uint(k)&63)) != 0 {
						dst.data[k] = x.data[k]
					} else {
						dst.data[k] = 0
					}
				}
			}
		}
	})
	return dst
}

// KeepObserved projects part of row i onto Ω in place: it stores +0 into
// p[t] unless (i, lo+t) ∈ Ω and leaves the observed entries' bits as they
// are, NaN and ±Inf included. It reads the row's bits straight from the
// bitset, 64 columns per word, and masks each entry's bits with no branch
// per cell.
func (m *Mask) KeepObserved(p []float64, i, lo int) {
	if i < 0 || i >= m.rows || lo < 0 || len(p) > m.cols-lo {
		panic(fmt.Sprintf("mat: KeepObserved row %d columns [%d, %d) out of range %dx%d", i, lo, lo+len(p), m.rows, m.cols))
	}
	k := uint(i*m.cols + lo) // the bit of (i, lo)
	for len(p) > 0 {
		w := m.words[k>>6] >> (k & 63)
		n := min(len(p), int(64-k&63))
		for t, v := range p[:n] {
			p[t] = math.Float64frombits(math.Float64bits(v) & -(w & 1))
			w >>= 1
		}
		p, k = p[n:], k+uint(n)
	}
}

// Recover implements Formula 8 of the paper:
// X̂ = R_Ω(x) + R_Ψ(pred) — observed entries keep x, the rest come from pred.
// It returns a new matrix; RecoverInto reuses pred's.
func (m *Mask) Recover(x, pred *Dense) *Dense {
	return m.RecoverInto(pred.Clone(), x)
}

// RecoverInto is Recover in place: it overwrites pred's observed entries with
// x's and returns pred, so a caller that has just formed the prediction needs
// no second matrix.
func (m *Mask) RecoverInto(pred, x *Dense) *Dense {
	if x.rows != m.rows || x.cols != m.cols || pred.rows != m.rows || pred.cols != m.cols {
		panic("mat: Recover shape mismatch")
	}
	n := m.rows * m.cols
	for wi, w := range m.words {
		lo := wi * 64
		if n-lo < 64 {
			w &= 1<<uint(n-lo) - 1
		} else if w == ^uint64(0) {
			copy(pred.data[lo:lo+64], x.data[lo:lo+64])
			continue
		}
		for ; w != 0; w &= w - 1 {
			k := lo + bits.TrailingZeros64(w)
			pred.data[k] = x.data[k]
		}
	}
	return pred
}

// MaskedFrob2 returns ‖R_Ω(a−b)‖²_F without allocating the difference.
func (m *Mask) MaskedFrob2(a, b *Dense) float64 {
	if a.rows != m.rows || a.cols != m.cols || b.rows != m.rows || b.cols != m.cols {
		panic("mat: MaskedFrob2 shape mismatch")
	}
	var s float64
	n := m.rows * m.cols
	for k := 0; k < n; k++ {
		if m.words[k>>6]&(1<<(uint(k)&63)) != 0 {
			d := a.data[k] - b.data[k]
			s += d * d
		}
	}
	return s
}

// MaskedWeightedFrob2 returns Σ_{(i,j)∈Ω} w_ij (a_ij − b_ij)², the weighted
// reconstruction error of the confidence-weighted factorization extension.
func (m *Mask) MaskedWeightedFrob2(a, b, w *Dense) float64 {
	if a.rows != m.rows || a.cols != m.cols || b.rows != m.rows || b.cols != m.cols || w.rows != m.rows || w.cols != m.cols {
		panic("mat: MaskedWeightedFrob2 shape mismatch")
	}
	var s float64
	n := m.rows * m.cols
	for k := 0; k < n; k++ {
		if m.words[k>>6]&(1<<(uint(k)&63)) != 0 {
			d := a.data[k] - b.data[k]
			s += w.data[k] * d * d
		}
	}
	return s
}

// Equal reports whether two masks have identical shape and bits.
func (m *Mask) Equal(o *Mask) bool {
	if m.rows != o.rows || m.cols != o.cols {
		return false
	}
	for i, w := range m.words {
		if w != o.words[i] {
			return false
		}
	}
	return true
}
