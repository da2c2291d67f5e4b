package dataset

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"

	"github.com/spatialmf/smfl/internal/mat"
)

// readCSVMaskedRef is the reader ReadCSVMasked replaced, kept as the
// reference the differential tests compare against: one []float64 per row,
// a list of missing cells, FromRows and one Mask.Hide per missing cell.
func readCSVMaskedRef(r io.Reader, name string, l int) (*Dataset, *mat.Mask, error) {
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

// csvSeeds are the inputs the reader must treat exactly as the reference
// does, and the fuzz target's seed corpus.
var csvSeeds = []string{
	"\"Lat\",\"Lon\",\"A\"\r\n\"1.5\",2,\"-3e2\"\r\n\r\n4,5,6\r\n\n7,8,9",
	"Lat,Lon,A,B\n1,2,,NA\nnan,NaN,3,\n,,,\n",
	"a,b\n1\n",
	"a,b\n1,2,3\n",
	"a,b\n1,xyz\n",
	"a,b\n1,1e400\n",
	"a,b\n1,-1e400\n",
	"a,b\n1,Inf\n2,-0\n",
	"a,b\n1,\"2\n",
	"a,b,c\n",
	"a,b,c",
	"",
	"x\n1\n\n2\n3\n",
	"x\n\n",
	"Lat,Lon,A\n0x1p-2,1_000,+.5\n",
	"Lat,Lon,A\n 1,2 ,3\n",
}

// sameRead fails t unless the reader and the reference agree on in: the
// same error text, or the same name, columns, L, X bits and Ω bits.
func sameRead(t *testing.T, in string, l int) {
	t.Helper()
	gd, gm, gerr := ReadCSVMasked(strings.NewReader(in), "t", l)
	wd, wm, werr := readCSVMaskedRef(strings.NewReader(in), "t", l)
	if fmt.Sprint(gerr) != fmt.Sprint(werr) {
		t.Fatalf("%q, l=%d: error %v, reference %v", in, l, gerr, werr)
	}
	if werr != nil {
		return
	}
	if gd.Name != wd.Name || gd.L != wd.L || !slices.Equal(gd.Columns, wd.Columns) {
		t.Fatalf("%q: header %q L=%d, reference %q L=%d", in, gd.Columns, gd.L, wd.Columns, wd.L)
	}
	gn, gc := gd.Dims()
	wn, wc := wd.Dims()
	if gn != wn || gc != wc {
		t.Fatalf("%q: %dx%d table, reference %dx%d", in, gn, gc, wn, wc)
	}
	for k, v := range wd.X.Data() {
		if math.Float64bits(gd.X.Data()[k]) != math.Float64bits(v) {
			t.Fatalf("%q: cell %d is %v, reference %v", in, k, gd.X.Data()[k], v)
		}
	}
	gb, _ := gm.MarshalBinary()
	wb, _ := wm.MarshalBinary()
	if !bytes.Equal(gb, wb) {
		t.Fatalf("%q: Ω differs from the reference", in)
	}
}

func TestReadCSVMaskedMatchesReference(t *testing.T) {
	for _, in := range csvSeeds {
		for _, l := range []int{0, 1, 3} {
			sameRead(t, in, l)
		}
	}
	// Tables that span several row blocks, with a partial last block.
	rng := rand.New(rand.NewSource(11))
	for _, shape := range [][2]int{{csvBlockRows, 1}, {2*csvBlockRows + 37, 5}, {3*csvBlockRows - 1, 64}} {
		var b strings.Builder
		b.WriteString("c0")
		for j := 1; j < shape[1]; j++ {
			fmt.Fprintf(&b, ",c%d", j)
		}
		b.WriteByte('\n')
		for i := 0; i < shape[0]; i++ {
			for j := 0; j < shape[1]; j++ {
				if j > 0 {
					b.WriteByte(',')
				}
				if rng.Float64() < 0.7 {
					b.WriteString(strconv.FormatFloat(rng.NormFloat64()*1e3, 'g', -1, 64))
				}
			}
			b.WriteByte('\n')
		}
		sameRead(t, b.String(), 0)
	}
}

func FuzzReadCSVMasked(f *testing.F) {
	for _, in := range csvSeeds {
		f.Add(in, 1)
	}
	f.Fuzz(func(t *testing.T, in string, l int) {
		sameRead(t, in, l)
	})
}

// The column-by-column normalizer the row-order passes replaced, kept as the
// bit reference.
func fitNormalizerRef(x *mat.Dense, mask *mat.Mask) (*Normalizer, error) {
	n, m := x.Dims()
	nz := &Normalizer{Mins: make([]float64, m), Maxs: make([]float64, m)}
	for j := 0; j < m; j++ {
		lo, hi := math.Inf(1), math.Inf(-1)
		for i := 0; i < n; i++ {
			if mask != nil && !mask.Observed(i, j) {
				continue
			}
			v := x.At(i, j)
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("dataset: non-finite value at (%d,%d)", i, j)
			}
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		if math.IsInf(lo, 1) {
			return nil, fmt.Errorf("dataset: column %d has no observed entries", j)
		}
		nz.Mins[j], nz.Maxs[j] = lo, hi
	}
	return nz, nil
}

func applyRef(nz *Normalizer, x *mat.Dense) {
	n, m := x.Dims()
	for j := 0; j < m; j++ {
		span := nz.Maxs[j] - nz.Mins[j]
		for i := 0; i < n; i++ {
			if span == 0 { //lint:ignore floatcmp degenerate constant-column guard
				x.Set(i, j, 0.5)
				continue
			}
			x.Set(i, j, (x.At(i, j)-nz.Mins[j])/span)
		}
	}
}

func invertRef(nz *Normalizer, x *mat.Dense) {
	n, m := x.Dims()
	for j := 0; j < m; j++ {
		span := nz.Maxs[j] - nz.Mins[j]
		for i := 0; i < n; i++ {
			if span == 0 { //lint:ignore floatcmp degenerate constant-column guard
				x.Set(i, j, nz.Mins[j])
				continue
			}
			x.Set(i, j, x.At(i, j)*span+nz.Mins[j])
		}
	}
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if math.Float64bits(a[k]) != math.Float64bits(b[k]) {
			return false
		}
	}
	return true
}

func TestNormalizerMatchesColumnReference(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	const n, m = 300, 9
	x := mat.NewDense(n, m)
	for i := 0; i < n; i++ {
		for j := 0; j < m; j++ {
			x.Set(i, j, rng.NormFloat64()*math.Pow(10, float64(j-4)))
		}
		x.Set(i, 2, 7.25) // a constant column
		// ±0 ties: column 5's min is a zero of either sign, and column 6
		// holds only zeros, so its min, max and span are signed zeros.
		z := 0.0
		if i%2 == 1 {
			z = math.Copysign(0, -1)
		}
		x.Set(i, 5, math.Abs(x.At(i, 5)))
		if i%3 != 2 {
			x.Set(i, 5, z)
		}
		x.Set(i, 6, z)
	}
	mask := mat.FullMask(n, m)
	for i := 0; i < n; i++ {
		for j := 0; j < m; j++ {
			if rng.Float64() < 0.4 {
				mask.Hide(i, j)
			}
		}
	}
	for _, mk := range []*mat.Mask{nil, mask} {
		got, err := FitNormalizer(x, mk)
		if err != nil {
			t.Fatal(err)
		}
		want, err := fitNormalizerRef(x, mk)
		if err != nil {
			t.Fatal(err)
		}
		if !sameBits(got.Mins, want.Mins) || !sameBits(got.Maxs, want.Maxs) {
			t.Fatalf("stats %v %v, reference %v %v", got.Mins, got.Maxs, want.Mins, want.Maxs)
		}
		a, b := x.Clone(), x.Clone()
		got.Apply(a)
		applyRef(want, b)
		if !sameBits(a.Data(), b.Data()) {
			t.Fatal("Apply differs from the column reference")
		}
		a.Set(0, 0, 1.5) // off the unit range, as predictions can be
		b.Set(0, 0, 1.5)
		got.Invert(a)
		invertRef(want, b)
		if !sameBits(a.Data(), b.Data()) {
			t.Fatal("Invert differs from the column reference")
		}
	}
}

func TestFitNormalizerErrorPrecedence(t *testing.T) {
	// The lowest failing column wins; within it the first non-finite row,
	// else "no observed entries".
	const n, m = 6, 5
	for _, tc := range []struct {
		name string
		bad  [][2]int // cells set to NaN
		hide []int    // columns hidden entirely
		want string
	}{
		{"hidden column below a NaN", [][2]int{{2, 3}}, []int{1}, "column 1 has no observed entries"},
		{"NaN below a hidden column", [][2]int{{4, 1}}, []int{3}, "non-finite value at (4,1)"},
		{"first NaN row of the column", [][2]int{{5, 2}, {3, 2}, {0, 4}}, nil, "non-finite value at (3,2)"},
		{"later row, lower column", [][2]int{{0, 3}, {5, 0}}, nil, "non-finite value at (5,0)"},
	} {
		x := mat.NewDense(n, m)
		for k := range x.Data() {
			x.Data()[k] = float64(k)
		}
		for _, c := range tc.bad {
			x.Set(c[0], c[1], math.NaN())
		}
		mask := mat.FullMask(n, m)
		for _, j := range tc.hide {
			for i := 0; i < n; i++ {
				mask.Hide(i, j)
			}
		}
		_, err := FitNormalizer(x, mask)
		_, ref := fitNormalizerRef(x, mask)
		if err == nil || fmt.Sprint(err) != fmt.Sprint(ref) || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: %v, reference %v, want %q", tc.name, err, ref, tc.want)
		}
	}
	if _, err := FitNormalizer(mat.NewDense(2, 3), mat.FullMask(3, 2)); err == nil {
		t.Fatal("a mask of another shape was accepted")
	}
}

func TestWriteCSVMatchesCSVWriter(t *testing.T) {
	x := mat.FromRows([][]float64{
		{0, math.Copysign(0, -1), 1e21, -1e-7},
		{math.NaN(), math.Inf(1), math.Inf(-1), math.MaxFloat64},
		{0.1, 1.0 / 3, 5e-324, -123456789.125},
	})
	d, err := New("w", []string{"Lat", "Lon, quoted", `say "x"`, " lead"}, 2, x)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	cw := csv.NewWriter(&want)
	cw.Write(d.Columns)
	for i := 0; i < 3; i++ {
		rec := make([]string, 4)
		for j, v := range d.X.Row(i) {
			rec[j] = strconv.FormatFloat(v, 'g', -1, 64)
		}
		cw.Write(rec)
	}
	cw.Flush()
	var got bytes.Buffer
	if err := d.WriteCSV(&got); err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Fatalf("WriteCSV wrote\n%s\ncsv.Writer writes\n%s", got.String(), want.String())
	}
	// Like csv.Writer, a RowWriter holds a short output until Flush, so a
	// caller that fails a row before flushing leaves a stream untouched.
	var sink bytes.Buffer
	rw, err := NewRowWriter(&sink, d.Columns)
	if err != nil {
		t.Fatal(err)
	}
	if err := rw.Write(d.X.Row(0)); err != nil || sink.Len() != 0 {
		t.Fatalf("%d bytes reached the writer before Flush (err %v)", sink.Len(), err)
	}
}

// benchTable is a generated table at a workload's shape with rate of its
// non-SI cells hidden, written as the CSV `smfl convert` and `smfl impute`
// read: hidden cells blank.
func benchTable(b *testing.B, n, m int, rate float64) (*Dataset, []byte) {
	b.Helper()
	res, err := Generate(Spec{
		Name: "bench", N: n, M: m, L: 2,
		Latents: 5, Bumps: 8, Clusters: 6, Noise: 0.2, Private: 0.3, Seed: 7,
	})
	if err != nil {
		b.Fatal(err)
	}
	mask, err := InjectMissing(res.Data, MissingSpec{Rate: rate, Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	buf.WriteString(strings.Join(res.Data.Columns, ","))
	buf.WriteByte('\n')
	for i := 0; i < n; i++ {
		for j, v := range res.Data.X.Row(i) {
			if j > 0 {
				buf.WriteByte(',')
			}
			if mask.Observed(i, j) {
				buf.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
			}
		}
		buf.WriteByte('\n')
	}
	return res.Data, buf.Bytes()
}

// BenchmarkReadCSVMasked reads fit-store's table (20,000 × 50, 90% of the
// non-SI cells blank) and fit-dense's (10,000 × 7, 20% blank).
func BenchmarkReadCSVMasked(b *testing.B) {
	for _, bc := range []struct {
		name string
		n, m int
		rate float64
	}{
		{"store-20000x50", 20000, 50, 0.9},
		{"dense-10000x7", 10000, 7, 0.2},
	} {
		b.Run(bc.name, func(b *testing.B) {
			_, in := benchTable(b, bc.n, bc.m, bc.rate)
			b.SetBytes(int64(len(in)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := ReadCSVMasked(bytes.NewReader(in), "bench", 2); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkWriteCSV writes fit-dense's 10,000 × 7 table.
func BenchmarkWriteCSV(b *testing.B) {
	d, _ := benchTable(b, 10000, 7, 0.2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := d.WriteCSV(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}
