// Package mat provides the dense-matrix and observation-mask kernel used by
// every numerical component of the SMFL reproduction. Matrices are row-major
// float64 with explicit dimensions; all operations validate shapes and panic
// on mismatch, mirroring the contract of the standard library's slice
// indexing rather than returning errors from hot inner loops.
package mat

import (
	"fmt"
	"math"
	"strings"
)

// Dense is a row-major dense matrix of float64 values.
//
// The zero value is an empty 0×0 matrix. Use NewDense to allocate and
// FromRows to build from literal data.
type Dense struct {
	rows, cols int
	data       []float64
}

// NewDense allocates an r×c matrix of zeros.
func NewDense(r, c int) *Dense {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("mat: negative dimension %dx%d", r, c))
	}
	return &Dense{rows: r, cols: c, data: make([]float64, r*c)}
}

// NewDenseData wraps data (length r*c, row-major) without copying.
func NewDenseData(r, c int, data []float64) *Dense {
	if len(data) != r*c {
		panic(fmt.Sprintf("mat: data length %d does not match %dx%d", len(data), r, c))
	}
	return &Dense{rows: r, cols: c, data: data}
}

// FromRows builds a matrix from a slice of equal-length rows, copying data.
func FromRows(rows [][]float64) *Dense {
	r := len(rows)
	if r == 0 {
		return NewDense(0, 0)
	}
	c := len(rows[0])
	m := NewDense(r, c)
	for i, row := range rows {
		if len(row) != c {
			panic(fmt.Sprintf("mat: ragged row %d: len %d, want %d", i, len(row), c))
		}
		copy(m.data[i*c:(i+1)*c], row)
	}
	return m
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Dense {
	m := NewDense(n, n)
	for i := 0; i < n; i++ {
		m.data[i*n+i] = 1
	}
	return m
}

// Dims returns the row and column counts.
func (m *Dense) Dims() (r, c int) { return m.rows, m.cols }

// Rows returns the number of rows.
func (m *Dense) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Dense) Cols() int { return m.cols }

// At returns the element at row i, column j.
func (m *Dense) At(i, j int) float64 {
	m.check(i, j)
	return m.data[i*m.cols+j]
}

// Set assigns the element at row i, column j.
func (m *Dense) Set(i, j int, v float64) {
	m.check(i, j)
	m.data[i*m.cols+j] = v
}

func (m *Dense) check(i, j int) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("mat: index (%d,%d) out of range %dx%d", i, j, m.rows, m.cols))
	}
}

// Row returns a mutable view of row i (no copy).
func (m *Dense) Row(i int) []float64 {
	if i < 0 || i >= m.rows {
		panic(fmt.Sprintf("mat: row %d out of range %d", i, m.rows))
	}
	return m.data[i*m.cols : (i+1)*m.cols]
}

// Data returns the backing row-major slice (no copy).
func (m *Dense) Data() []float64 { return m.data }

// Clone returns a deep copy.
func (m *Dense) Clone() *Dense {
	out := NewDense(m.rows, m.cols)
	copy(out.data, m.data)
	return out
}

// CopyFrom overwrites m with src's contents. Shapes must match.
func (m *Dense) CopyFrom(src *Dense) {
	if m.rows != src.rows || m.cols != src.cols {
		panic(dimErr("CopyFrom", m, src))
	}
	copy(m.data, src.data)
}

// Slice returns a copy of the submatrix rows [r0,r1) and columns [c0,c1).
func (m *Dense) Slice(r0, r1, c0, c1 int) *Dense {
	if r0 < 0 || r1 > m.rows || c0 < 0 || c1 > m.cols || r0 > r1 || c0 > c1 {
		panic(fmt.Sprintf("mat: bad slice [%d:%d,%d:%d] of %dx%d", r0, r1, c0, c1, m.rows, m.cols))
	}
	out := NewDense(r1-r0, c1-c0)
	for i := r0; i < r1; i++ {
		copy(out.Row(i-r0), m.data[i*m.cols+c0:i*m.cols+c1])
	}
	return out
}

// T returns the transpose as a new matrix.
func (m *Dense) T() *Dense {
	out := NewDense(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		ri := m.data[i*m.cols : (i+1)*m.cols]
		for j, v := range ri {
			out.data[j*out.cols+i] = v
		}
	}
	return out
}

// Fill sets every element to v.
func (m *Dense) Fill(v float64) {
	for i := range m.data {
		m.data[i] = v
	}
}

// Zero resets every element to 0.
func (m *Dense) Zero() { m.Fill(0) }

// IsFinite reports whether every element is neither NaN nor ±Inf.
func (m *Dense) IsFinite() bool {
	for _, v := range m.data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// String renders the matrix for debugging; large matrices are elided.
func (m *Dense) String() string {
	const maxShow = 8
	var b strings.Builder
	fmt.Fprintf(&b, "Dense %dx%d", m.rows, m.cols)
	if m.rows == 0 || m.cols == 0 {
		return b.String()
	}
	b.WriteString(" [\n")
	for i := 0; i < m.rows && i < maxShow; i++ {
		b.WriteString("  ")
		for j := 0; j < m.cols && j < maxShow; j++ {
			fmt.Fprintf(&b, "%9.4g ", m.At(i, j))
		}
		if m.cols > maxShow {
			b.WriteString("...")
		}
		b.WriteString("\n")
	}
	if m.rows > maxShow {
		b.WriteString("  ...\n")
	}
	b.WriteString("]")
	return b.String()
}

func dimErr(op string, a, b *Dense) string {
	return fmt.Sprintf("mat: %s dimension mismatch %dx%d vs %dx%d", op, a.rows, a.cols, b.rows, b.cols)
}
