package experiments

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"

	"github.com/spatialmf/smfl/internal/core"
	"github.com/spatialmf/smfl/internal/dataset"
	"github.com/spatialmf/smfl/internal/impute"
	"github.com/spatialmf/smfl/internal/metrics"
)

// methodOutcome is one cell of an imputation table: an averaged RMS or an
// OOT/OOM marker.
type methodOutcome struct {
	rms  float64
	note string // "", "OOT", "OOM", or "ERR"
}

func (m methodOutcome) String() string {
	if m.note != "" {
		return m.note
	}
	return fmtRMS(m.rms)
}

// runImputer averages the hidden-entry RMS of one imputer over o.Runs
// injections, honoring the wall-clock budget and resource-limit errors.
// key names the cell for the journal: a journaled cell is returned without
// recomputation, a freshly computed one is recorded before returning.
// Cancellation (Options.Ctx) propagates as a non-nil error wrapping
// core.ErrInterrupted — unlike method failures, which are table cells
// ("ERR", "OOT", "OOM"), an interrupt abandons the table.
func (o Options) runImputer(key string, imp impute.Imputer, ds *dataset.Dataset, spec dataset.MissingSpec) (methodOutcome, error) {
	if o.Journal != nil {
		if out, ok := o.Journal.Lookup(key); ok {
			o.logf("%s: %s (journaled, skipped)", key, out)
			return out, nil
		}
	}
	done := func(out methodOutcome) (methodOutcome, error) {
		if o.Journal != nil {
			if err := o.Journal.Record(key, out); err != nil {
				return out, fmt.Errorf("experiments: journal %s: %w", key, err)
			}
		}
		return out, nil
	}
	var total float64
	for r := 0; r < o.Runs; r++ {
		if o.Ctx != nil {
			if err := o.Ctx.Err(); err != nil {
				return methodOutcome{}, fmt.Errorf("experiments: %s: %w: %w", key, core.ErrInterrupted, err)
			}
		}
		spec.Seed = o.Seed + int64(r)
		mask, err := dataset.InjectMissing(ds, spec)
		if err != nil {
			return done(methodOutcome{note: "ERR"})
		}
		start := time.Now()
		out, err := imp.Impute(ds.X, mask, ds.L)
		if err != nil {
			if errors.Is(err, core.ErrInterrupted) {
				return methodOutcome{}, fmt.Errorf("experiments: %s: %w", key, err)
			}
			var rle *impute.ResourceLimitError
			if errors.As(err, &rle) {
				return done(methodOutcome{note: rle.Kind})
			}
			return done(methodOutcome{note: "ERR"})
		}
		rms, err := metrics.RMSOverHidden(out, ds.X, mask)
		if err != nil {
			return done(methodOutcome{note: "ERR"})
		}
		total += rms
		if time.Since(start) > o.Budget {
			if r == 0 {
				return done(methodOutcome{note: "OOT"})
			}
			return done(methodOutcome{rms: total / float64(r+1)})
		}
	}
	return done(methodOutcome{rms: total / float64(o.Runs)})
}

// cellKey builds a stable journal key from an experiment ID and the cell
// coordinates, e.g. "table7/Lake/SMFL/30%".
func cellKey(parts ...string) string {
	return strings.Join(parts, "/")
}

// imputationTable is the shared engine behind Tables IV and V: one row per
// dataset, one column per method, with the missing-injection columns chosen
// by spatialAlsoMissing. id prefixes the journal keys.
func (o Options) imputationTable(id, title string, spatialAlsoMissing bool) (*Table, error) {
	o = o.withDefaults()
	t := &Table{Title: title}
	t.Header = append([]string{"Dataset"}, paperMethodNames()...)
	for _, name := range dataset.PaperDatasets {
		res, err := o.paperDataset(name, o.Seed)
		if err != nil {
			return nil, err
		}
		ds := res.Data
		_, m := ds.Dims()
		spec := dataset.MissingSpec{Rate: missingRate, KeepCompleteRows: keepRows(ds)}
		if spatialAlsoMissing {
			cols := make([]int, m)
			for j := range cols {
				cols[j] = j
			}
			spec.Columns = cols
		}
		row := []string{name}
		for _, imp := range impute.PaperBaselines(o.Seed, o.mfConfig(m, o.Seed)) {
			out, err := o.runImputer(cellKey(id, name, imp.Name()), imp, ds, spec)
			if err != nil {
				return nil, err
			}
			o.logf("%s / %s: %s", name, imp.Name(), out)
			row = append(row, out.String())
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

func paperMethodNames() []string {
	names := make([]string, 0, 12)
	for _, imp := range impute.PaperBaselines(0, core.Config{K: 2}) {
		names = append(names, imp.Name())
	}
	return names
}

// keepRows mirrors the paper's extraction of 100 complete tuples, scaled
// down with the dataset.
func keepRows(ds *dataset.Dataset) int {
	n, _ := ds.Dims()
	k := n / 10
	if k > 100 {
		k = 100
	}
	if k < 10 {
		k = 10
	}
	return k
}

// Table4 reproduces Table IV: imputation RMS of all twelve methods on the
// four datasets at 10% missing rate (non-SI columns).
func Table4(o Options) (*Table, error) {
	return o.imputationTable("table4", "Table IV: imputation RMS (missing rate 10%, SI observed)", false)
}

// Table5 reproduces Table V: as Table IV but the spatial-information columns
// are injected with missing values too.
func Table5(o Options) (*Table, error) {
	return o.imputationTable("table5", "Table V: imputation RMS when spatial information is also missing", true)
}

// Table7 reproduces Table VII: NMF/SMF/SMFL RMS across missing rates
// 10%..50% on Economic, Farm and Lake.
func Table7(o Options) (*Table, error) {
	o = o.withDefaults()
	rates := []float64{0.1, 0.2, 0.3, 0.4, 0.5}
	t := &Table{
		Title:  "Table VII: NMF/SMF/SMFL imputation RMS by missing rate",
		Header: []string{"Dataset", "Algorithm", "10%", "20%", "30%", "40%", "50%"},
	}
	for _, name := range []string{"Economic", "Farm", "Lake"} {
		res, err := o.paperDataset(name, o.Seed)
		if err != nil {
			return nil, err
		}
		ds := res.Data
		_, m := ds.Dims()
		for _, method := range []core.Method{core.NMF, core.SMF, core.SMFL} {
			imp := &impute.MF{Method: method, Cfg: o.mfConfig(m, o.Seed)}
			row := []string{name, method.String()}
			for _, rate := range rates {
				spec := dataset.MissingSpec{Rate: rate, KeepCompleteRows: keepRows(ds)}
				out, err := o.runImputer(cellKey("table7", name, method.String(), fmt.Sprintf("%.0f%%", rate*100)), imp, ds, spec)
				if err != nil {
					return nil, err
				}
				o.logf("%s / %s / %.0f%%: %s", name, method, rate*100, out)
				row = append(row, out.String())
			}
			t.Rows = append(t.Rows, row)
		}
	}
	return t, nil
}

// Table3 reproduces Table III: the dataset summary (tuples, columns, example
// attribute names) at the configured scale.
func Table3(o Options) (*Table, error) {
	o = o.withDefaults()
	t := &Table{
		Title:  "Table III: dataset summary",
		Header: []string{"Dataset", "Tuples", "Columns", "Examples of additional columns"},
	}
	for _, name := range dataset.PaperDatasets {
		res, err := o.paperDataset(name, o.Seed)
		if err != nil {
			return nil, err
		}
		n, m := res.Data.Dims()
		examples := ""
		for j := res.Data.L; j < m && j < res.Data.L+2; j++ {
			examples += res.Data.Columns[j] + ", "
		}
		t.Rows = append(t.Rows, []string{name, itoa(n), itoa(m), examples + "..."})
	}
	return t, nil
}

func itoa(v int) string { return strconv.Itoa(v) }
