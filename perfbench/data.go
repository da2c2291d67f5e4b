package main

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"strconv"

	"github.com/spatialmf/smfl/internal/dataset"
	"github.com/spatialmf/smfl/internal/mat"
)

// Table shapes and the serving mix. Every input is a pure function of the
// run's --seed; the programs see only the files and requests made from them.
const (
	denseRows    = 10000 // fit-dense training rows (Vehicle shape: 7 columns, 2 SI)
	denseHidden  = 0.2   // share of non-SI cells hidden in fit-dense and serve-impute
	denseMaxIter = 200   // -maxiter: the fit runs to the cap on every seed, so work per job is fixed
	storeRows    = 20000 // fit-store training rows (50 columns, 2 SI)
	storeCols    = 50
	storeHidden  = 0.9
	storeEpochs  = 3
	serveRows    = 5000 // training rows of serve-impute's model (Vehicle shape)
	holdoutRows  = 1000 // rows kept out of training to build requests from
	heavyRows    = 64
	heavyHidden  = 0.3 // share of non-SI cells a heavy request leaves blank
	tableSeed    = 1   // seed of the tables' fields and held-out split (see makeTable)
	lightPool    = 512 // distinct light request bodies
	heavyPool    = 96  // distinct heavy request bodies
)

// table is one generated workload input: the training block with its
// hidden cells, and held-out rows for requests, all in original units.
type table struct {
	columns []string
	truth   *mat.Dense // training rows, every cell
	mask    *mat.Mask  // observed training cells
	holdout *mat.Dense // held-out rows, every cell
}

// makeTable splits a generated dataset into training and held-out rows by a
// seeded permutation and hides a share of the training table's non-SI cells.
// The generated fields and the held-out rows are those of seed tableSeed
// on every run, like a fixed dataset with a fixed test split: the run's seed
// draws the hidden cells, the requests and the arrival schedule. Fits then
// do the same work and reach comparable RMSE on every seed, so the spread
// across seeds measures the program, not the luck of a random terrain or of
// which outlier rows were held out.
func makeTable(ds *dataset.Dataset, train int, hidden float64, seed int64) (*table, error) {
	n, m := ds.Dims()
	if n < train+holdoutRows {
		return nil, fmt.Errorf("generated %d rows, need %d", n, train+holdoutRows)
	}
	perm := rand.New(rand.NewSource(tableSeed)).Perm(n)
	isHold := make([]bool, n)
	for _, i := range perm[:holdoutRows] {
		isHold[i] = true
	}
	t := &table{columns: ds.Columns, truth: mat.NewDense(train, m), holdout: mat.NewDense(holdoutRows, m)}
	ti, hi := 0, 0
	for i := 0; i < n && ti < train; i++ {
		if isHold[i] {
			copy(t.holdout.Row(hi), ds.X.Row(i))
			hi++
			continue
		}
		copy(t.truth.Row(ti), ds.X.Row(i))
		ti++
	}
	tds, err := dataset.New(ds.Name, ds.Columns, ds.L, t.truth)
	if err != nil {
		return nil, err
	}
	t.mask, err = dataset.InjectMissing(tds, dataset.MissingSpec{Rate: hidden, Seed: seed + 1})
	return t, err
}

// vehicleTable is the Vehicle-shaped table used by fit-dense and
// serve-impute.
func vehicleTable(train int, seed int64) (*table, error) {
	res, err := dataset.Vehicle(float64(train+holdoutRows)/100000, tableSeed)
	if err != nil {
		return nil, err
	}
	return makeTable(res.Data, train, denseHidden, seed)
}

// wideTable is fit-store's 50-column table, the shape of the repository's
// store sweep.
func wideTable(seed int64) (*table, error) {
	res, err := dataset.Generate(dataset.Spec{
		Name: "Synthetic", N: storeRows + holdoutRows, M: storeCols, L: siCols,
		Latents: 5, Bumps: 8, Clusters: 6, Noise: 0.2, Private: 0.3, Seed: tableSeed,
	})
	if err != nil {
		return nil, err
	}
	return makeTable(res.Data, storeRows, storeHidden, seed)
}

// writeMaskedCSV writes the training table with hidden cells left blank, the
// input format of `smfl impute` and `smfl convert`.
func writeMaskedCSV(path string, t *table) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	cw := csv.NewWriter(f)
	if err := cw.Write(t.columns); err != nil {
		f.Close()
		return err
	}
	n, m := t.truth.Dims()
	rec := make([]string, m)
	for i := 0; i < n; i++ {
		row := t.truth.Row(i)
		for j := range rec {
			rec[j] = ""
			if t.mask.Observed(i, j) {
				rec[j] = strconv.FormatFloat(row[j], 'g', -1, 64)
			}
		}
		if err := cw.Write(rec); err != nil {
			f.Close()
			return err
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// checkImputed reads an imputed CSV and checks it against the training
// table: every cell parses and is finite, observed cells echo the input, and
// it returns the RMSE over hidden cells on the min–max scale of mins/maxs
// together with the RMSE of column-mean imputation on the same cells.
func checkImputed(path string, t *table, mins, maxs []float64) (rmse, meanRMSE float64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	ds, mask, err := dataset.ReadCSVMasked(f, path, siCols)
	if err != nil {
		return 0, 0, err
	}
	n, m := t.truth.Dims()
	if on, om := ds.Dims(); on != n || om != m {
		return 0, 0, fmt.Errorf("imputed table is %dx%d, want %dx%d", on, om, n, m)
	}
	if mask.CountHidden() != 0 {
		return 0, 0, fmt.Errorf("imputed table has %d blank cells", mask.CountHidden())
	}
	colMean := make([]float64, m)
	for j := 0; j < m; j++ {
		s, c := 0.0, 0
		for i := 0; i < n; i++ {
			if t.mask.Observed(i, j) {
				s += t.truth.At(i, j)
				c++
			}
		}
		colMean[j] = s / float64(c)
	}
	var se, seMean float64
	cells := 0
	for i := 0; i < n; i++ {
		got, want := ds.X.Row(i), t.truth.Row(i)
		for j := 0; j < m; j++ {
			if math.IsNaN(got[j]) || math.IsInf(got[j], 0) {
				return 0, 0, fmt.Errorf("cell (%d,%d) is %v", i, j, got[j])
			}
			span := maxs[j] - mins[j]
			if t.mask.Observed(i, j) {
				if math.Abs(got[j]-want[j]) > echoTol*math.Max(span, 1) {
					return 0, 0, fmt.Errorf("observed cell (%d,%d) = %v, input %v", i, j, got[j], want[j])
				}
				continue
			}
			e := (got[j] - want[j]) / span
			em := (colMean[j] - want[j]) / span
			se += e * e
			seMean += em * em
			cells++
		}
	}
	if cells == 0 {
		return 0, 0, fmt.Errorf("no hidden cells to score")
	}
	return math.Sqrt(se / float64(cells)), math.Sqrt(seMean / float64(cells)), nil
}

// echoTol bounds how far an observed cell may move through the program's
// normalize → invert round trip, relative to its column's range.
const echoTol = 1e-9

// reqItem is one request of the serving mix: rows of held-out truth and the
// cells the request leaves blank.
type reqItem struct {
	truth  [][]float64
	hidden [][]bool
}

// requestPools draws the light and heavy request pools from the held-out
// rows. A held-out row is eligible only inside the training range of every
// column (the server rejects values below the training minimum by
// contract). Light requests hide one non-SI cell; heavy requests hide each
// non-SI cell with probability heavyHidden, keeping at least one observed.
func requestPools(t *table, mins, maxs []float64, seed int64) (items [2][]reqItem, bodies [2][][]byte, err error) {
	rows, m := t.holdout.Dims()
	var eligible []int
	for i := 0; i < rows; i++ {
		ok := true
		for j, v := range t.holdout.Row(i) {
			if v < mins[j] || v > maxs[j] {
				ok = false
				break
			}
		}
		if ok {
			eligible = append(eligible, i)
		}
	}
	if len(eligible) < heavyRows {
		return items, bodies, fmt.Errorf("only %d held-out rows inside the training range", len(eligible))
	}
	rng := rand.New(rand.NewSource(seed + 3))
	draw := func(nrows int, heavy bool) reqItem {
		it := reqItem{}
		for r := 0; r < nrows; r++ {
			row := append([]float64(nil), t.holdout.Row(eligible[rng.Intn(len(eligible))])...)
			hid := make([]bool, m)
			if heavy {
				blank := false
				for j := siCols; j < m; j++ {
					hid[j] = rng.Float64() < heavyHidden
					blank = blank || hid[j]
				}
				if !blank {
					hid[siCols+rng.Intn(m-siCols)] = true
				}
			} else {
				hid[siCols+rng.Intn(m-siCols)] = true
			}
			observed := false
			for j := siCols; j < m; j++ {
				observed = observed || !hid[j]
			}
			if !observed {
				hid[siCols+rng.Intn(m-siCols)] = false
			}
			it.truth = append(it.truth, row)
			it.hidden = append(it.hidden, hid)
		}
		return it
	}
	for c, spec := range []struct{ n, rows int }{{lightPool, 1}, {heavyPool, heavyRows}} {
		for i := 0; i < spec.n; i++ {
			it := draw(spec.rows, c == classHeavy)
			body, err := requestBody(it)
			if err != nil {
				return items, bodies, err
			}
			items[c] = append(items[c], it)
			bodies[c] = append(bodies[c], body)
		}
	}
	return items, bodies, nil
}

// requestBody encodes a request: hidden cells are JSON nulls.
func requestBody(it reqItem) ([]byte, error) {
	rows := make([][]*float64, len(it.truth))
	for r, row := range it.truth {
		rows[r] = make([]*float64, len(row))
		for j := range row {
			if !it.hidden[r][j] {
				rows[r][j] = &row[j]
			}
		}
	}
	return json.Marshal(map[string]any{"rows": rows})
}
