package dataset

import (
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"strconv"

	"github.com/spatialmf/smfl/internal/mat"
)

// WriteCSV writes the dataset with a header row to w.
func (d *Dataset) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(d.Columns); err != nil {
		return err
	}
	n, m := d.Dims()
	rec := make([]string, m)
	for i := 0; i < n; i++ {
		row := d.X.Row(i)
		for j := 0; j < m; j++ {
			rec[j] = strconv.FormatFloat(row[j], 'g', -1, 64)
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// SaveCSV writes the dataset to a file path.
func (d *Dataset) SaveCSV(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := d.WriteCSV(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadCSV parses a headered numeric CSV into a Dataset with the given name
// and spatial-column count l. Empty cells are not supported here — use
// ReadCSVMasked when the file may contain missing values.
func ReadCSV(r io.Reader, name string, l int) (*Dataset, error) {
	ds, mask, err := ReadCSVMasked(r, name, l)
	if err != nil {
		return nil, err
	}
	if mask.CountHidden() > 0 {
		return nil, fmt.Errorf("dataset: %d empty cells; use ReadCSVMasked", mask.CountHidden())
	}
	return ds, nil
}

// ReadCSVMasked parses a headered numeric CSV, treating empty cells (and the
// literal strings "NA"/"nan") as missing. It returns the dataset (missing
// cells hold 0) and the observation mask Ω.
func ReadCSVMasked(r io.Reader, name string, l int) (*Dataset, *mat.Mask, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	header, err := cr.Read()
	if err != nil {
		return nil, nil, fmt.Errorf("dataset: reading header: %w", err)
	}
	m := len(header)
	var rows [][]float64
	var missing [][2]int
	for line := 1; ; line++ {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, nil, fmt.Errorf("dataset: line %d: %w", line, err)
		}
		if len(rec) != m {
			return nil, nil, fmt.Errorf("dataset: line %d has %d fields, want %d", line, len(rec), m)
		}
		row := make([]float64, m)
		for j, s := range rec {
			if s == "" || s == "NA" || s == "nan" || s == "NaN" {
				missing = append(missing, [2]int{len(rows), j})
				continue
			}
			v, err := strconv.ParseFloat(s, 64)
			if err != nil {
				return nil, nil, fmt.Errorf("dataset: line %d field %d: %w", line, j, err)
			}
			row[j] = v
		}
		rows = append(rows, row)
	}
	x := mat.FromRows(rows)
	ds, err := New(name, header, l, x)
	if err != nil {
		return nil, nil, err
	}
	mask := mat.FullMask(len(rows), m)
	for _, ij := range missing {
		mask.Hide(ij[0], ij[1])
	}
	return ds, mask, nil
}

// LoadCSV reads a dataset from a file path.
func LoadCSV(path, name string, l int) (*Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadCSV(f, name, l)
}
