package dataset

import (
	"bufio"
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"strconv"

	"github.com/spatialmf/smfl/internal/mat"
)

// RowWriter writes a numeric table as CSV: the header through encoding/csv,
// then one line per row whose fields are strconv.AppendFloat(v, 'g', -1, 64),
// built in one reused buffer behind a bufio.Writer. Such fields never need
// quoting, so the bytes are csv.Writer's, without a string per field.
type RowWriter struct {
	w    *bufio.Writer
	line []byte
}

// NewRowWriter buffers the header columns for w and returns a writer for
// the rows. Nothing reaches w before a full buffer or Flush, as with
// csv.Writer, so a caller that fails before Flush leaves a stream untouched.
func NewRowWriter(w io.Writer, columns []string) (*RowWriter, error) {
	var header bytes.Buffer
	cw := csv.NewWriter(&header)
	if err := cw.Write(columns); err != nil {
		return nil, err
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return nil, err
	}
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(header.Bytes()); err != nil {
		return nil, err
	}
	return &RowWriter{w: bw}, nil
}

// Write writes one row.
func (rw *RowWriter) Write(row []float64) error {
	line := rw.line[:0]
	for j, v := range row {
		if j > 0 {
			line = append(line, ',')
		}
		line = strconv.AppendFloat(line, v, 'g', -1, 64)
	}
	rw.line = append(line, '\n')
	_, err := rw.w.Write(rw.line)
	return err
}

// Flush writes any buffered rows to the underlying writer.
func (rw *RowWriter) Flush() error { return rw.w.Flush() }

// WriteCSV writes the dataset with a header row to w.
func (d *Dataset) WriteCSV(w io.Writer) error {
	rw, err := NewRowWriter(w, d.Columns)
	if err != nil {
		return err
	}
	n, _ := d.Dims()
	for i := 0; i < n; i++ {
		if err := rw.Write(d.X.Row(i)); err != nil {
			return err
		}
	}
	return rw.Flush()
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

// csvBlockRows is the row count of ReadCSVMasked's blocks: the table grows
// by one block at a time, never by reallocating what it has read.
const csvBlockRows = 512

// ReadCSVMasked parses a headered numeric CSV, treating empty cells (and the
// literal strings "NA", "nan" and "NaN") as missing. It returns the dataset
// (missing cells hold 0) and the observation mask Ω. Lines are numbered from
// the first data record in errors.
//
// Each cell is parsed once, straight into a block of csvBlockRows rows, and
// its Ω bit is set as it parses. encoding/csv reuses one record slice, so
// the only allocation per row is the record's string; the blocks are copied
// into the table once, at the end.
func ReadCSVMasked(r io.Reader, name string, l int) (*Dataset, *mat.Mask, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	cr.ReuseRecord = true
	rec, err := cr.Read()
	if err != nil {
		return nil, nil, fmt.Errorf("dataset: reading header: %w", err)
	}
	header := append([]string(nil), rec...)
	m := len(header)
	var blocks [][]float64
	var words []uint64 // Ω, grown a row at a time
	n := 0
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
		if n%csvBlockRows == 0 {
			blocks = append(blocks, make([]float64, csvBlockRows*m))
		}
		row := blocks[len(blocks)-1][n%csvBlockRows*m:][:m]
		base := n * m
		for len(words) < (base+m+63)/64 {
			words = append(words, 0)
		}
		for j, s := range rec {
			if s == "" || s == "NA" || s == "nan" || s == "NaN" {
				continue
			}
			v, err := strconv.ParseFloat(s, 64)
			if err != nil {
				return nil, nil, fmt.Errorf("dataset: line %d field %d: %w", line, j, err)
			}
			row[j] = v
			k := base + j
			words[k>>6] |= 1 << (uint(k) & 63)
		}
		n++
	}
	if n == 0 {
		// A 0×0 table, which New refuses for naming more columns than it has.
		m = 0
	}
	data := make([]float64, n*m)
	for b, blk := range blocks {
		copy(data[b*csvBlockRows*m:], blk)
	}
	ds, err := New(name, header, l, mat.NewDenseData(n, m, data))
	if err != nil {
		return nil, nil, err
	}
	return ds, mat.NewMaskWords(n, m, words), nil
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
