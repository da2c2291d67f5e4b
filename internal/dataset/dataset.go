// Package dataset provides the tabular spatial-data container used across
// the SMFL reproduction: column-named matrices whose first L columns are
// spatial information (SI), min-max normalization, missing-value and error
// injection for the imputation/repair experiments, CSV I/O, and seeded
// synthetic generators standing in for the paper's four real-world datasets
// (see DESIGN.md §2 for the substitution rationale).
package dataset

import (
	"errors"
	"fmt"
	"math"

	"github.com/spatialmf/smfl/internal/mat"
)

// Dataset is an N×M spatial table. The first L columns are the spatial
// information SI (latitude/longitude in the paper's running example).
type Dataset struct {
	Name    string
	Columns []string
	L       int // number of leading spatial-information columns
	X       *mat.Dense
}

// New validates and assembles a Dataset.
func New(name string, columns []string, l int, x *mat.Dense) (*Dataset, error) {
	_, m := x.Dims()
	if len(columns) != m {
		return nil, fmt.Errorf("dataset: %d column names for %d columns", len(columns), m)
	}
	if l < 0 || l > m {
		return nil, fmt.Errorf("dataset: L=%d out of range [0,%d]", l, m)
	}
	return &Dataset{Name: name, Columns: columns, L: l, X: x}, nil
}

// Dims returns the table shape.
func (d *Dataset) Dims() (n, m int) { return d.X.Dims() }

// Clone deep-copies the dataset.
func (d *Dataset) Clone() *Dataset {
	cols := make([]string, len(d.Columns))
	copy(cols, d.Columns)
	return &Dataset{Name: d.Name, Columns: cols, L: d.L, X: d.X.Clone()}
}

// Head returns a copy of the first n rows (fewer if the table is shorter).
func (d *Dataset) Head(n int) *Dataset {
	rows, cols := d.X.Dims()
	if n > rows {
		n = rows
	}
	out := d.Clone()
	out.X = d.X.Slice(0, n, 0, cols)
	return out
}

// Normalizer rescales columns to [0,1] by min-max (Section IV-A1) and can
// invert the mapping.
type Normalizer struct {
	Mins, Maxs []float64
}

// NewNormalizer rehydrates a Normalizer from previously fitted stats (e.g.
// the ones a served model carries in core.Model.Norm), validating that they
// are finite, equal-length, and ordered.
func NewNormalizer(mins, maxs []float64) (*Normalizer, error) {
	if len(mins) != len(maxs) {
		return nil, fmt.Errorf("dataset: %d mins for %d maxs", len(mins), len(maxs))
	}
	if len(mins) == 0 {
		return nil, errors.New("dataset: Normalizer needs at least one column")
	}
	for j := range mins {
		if math.IsNaN(mins[j]) || math.IsInf(mins[j], 0) || math.IsNaN(maxs[j]) || math.IsInf(maxs[j], 0) {
			return nil, fmt.Errorf("dataset: non-finite normalization stat at column %d", j)
		}
		if maxs[j] < mins[j] {
			return nil, fmt.Errorf("dataset: column %d max %v < min %v", j, maxs[j], mins[j])
		}
	}
	return &Normalizer{Mins: mins, Maxs: maxs}, nil
}

// FitNormalizer computes per-column min/max over observed entries only.
// A nil mask means all entries are observed. It makes one row-order pass over
// x's data, reading each row's observed columns from Ω's bits; each column
// still meets its cells in row order, so the stats are the column-by-column
// scan's. Of the columns with a non-finite observed value or none observed,
// the lowest is reported, at its first non-finite row if it has one.
func FitNormalizer(x *mat.Dense, mask *mat.Mask) (*Normalizer, error) {
	n, m := x.Dims()
	if mask != nil {
		if mr, mc := mask.Dims(); mr != n || mc != m {
			return nil, fmt.Errorf("dataset: mask is %dx%d, data %dx%d", mr, mc, n, m)
		}
	}
	nz := &Normalizer{Mins: make([]float64, m), Maxs: make([]float64, m)}
	for j := range nz.Mins {
		nz.Mins[j], nz.Maxs[j] = math.Inf(1), math.Inf(-1)
	}
	cols := make([]int32, 0, m)
	if mask == nil {
		for j := 0; j < m; j++ {
			cols = append(cols, int32(j))
		}
	}
	bad, badRow := m, 0 // lowest column holding a non-finite observed value
	data := x.Data()
	for i := 0; i < n; i++ {
		row := data[i*m : i*m+m]
		if mask != nil {
			cols = mask.AppendObservedCols(cols[:0], i)
		}
		for _, j := range cols {
			v := row[j]
			if math.IsNaN(v) || math.IsInf(v, 0) {
				if int(j) < bad {
					bad, badRow = int(j), i
				}
				continue
			}
			if v < nz.Mins[j] {
				nz.Mins[j] = v
			}
			if v > nz.Maxs[j] {
				nz.Maxs[j] = v
			}
		}
	}
	for j := 0; j < m; j++ {
		if j == bad {
			return nil, fmt.Errorf("dataset: non-finite value at (%d,%d)", badRow, j)
		}
		if math.IsInf(nz.Mins[j], 1) {
			return nil, fmt.Errorf("dataset: column %d has no observed entries", j)
		}
	}
	return nz, nil
}

// Apply rescales x in place to [0,1]; constant columns map to 0.5. It walks
// x's data in row order, with the per-cell arithmetic of a column-by-column
// pass.
func (nz *Normalizer) Apply(x *mat.Dense) {
	_, m := x.Dims()
	if m != len(nz.Mins) {
		panic("dataset: Normalizer column count mismatch")
	}
	mins, maxs := nz.Mins, nz.Maxs[:m]
	data := x.Data()
	for lo := 0; lo < len(data); lo += m {
		row := data[lo : lo+m]
		for j, v := range row {
			span := maxs[j] - mins[j]
			if span == 0 { //lint:ignore floatcmp degenerate constant-column guard
				row[j] = 0.5
				continue
			}
			row[j] = (v - mins[j]) / span
		}
	}
}

// Invert maps x back to original units in place, in row order like Apply.
func (nz *Normalizer) Invert(x *mat.Dense) {
	_, m := x.Dims()
	if m != len(nz.Mins) {
		panic("dataset: Normalizer column count mismatch")
	}
	mins, maxs := nz.Mins, nz.Maxs[:m]
	data := x.Data()
	for lo := 0; lo < len(data); lo += m {
		row := data[lo : lo+m]
		for j, v := range row {
			span := maxs[j] - mins[j]
			if span == 0 { //lint:ignore floatcmp degenerate constant-column guard
				row[j] = mins[j]
				continue
			}
			row[j] = v*span + mins[j]
		}
	}
}

// Normalize rescales the dataset in place and returns the fitted Normalizer.
func (d *Dataset) Normalize() (*Normalizer, error) {
	nz, err := FitNormalizer(d.X, nil)
	if err != nil {
		return nil, err
	}
	nz.Apply(d.X)
	return nz, nil
}

// FillColumnMeans replaces hidden entries of x with the mean of the observed
// entries in the same column (in place). The paper uses this to initialize
// missing SI cells before computing the similarity matrix D (Section II-C).
func FillColumnMeans(x *mat.Dense, mask *mat.Mask) error {
	n, m := x.Dims()
	for j := 0; j < m; j++ {
		var sum float64
		var cnt int
		for i := 0; i < n; i++ {
			if mask.Observed(i, j) {
				sum += x.At(i, j)
				cnt++
			}
		}
		if cnt == 0 {
			return errors.New("dataset: column has no observed entries to average")
		}
		mean := sum / float64(cnt)
		for i := 0; i < n; i++ {
			if !mask.Observed(i, j) {
				x.Set(i, j, mean)
			}
		}
	}
	return nil
}
