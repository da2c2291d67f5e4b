package experiments

import (
	"fmt"

	"github.com/spatialmf/smfl/internal/core"
	"github.com/spatialmf/smfl/internal/dataset"
	"github.com/spatialmf/smfl/internal/impute"
)

// sweepDatasets are the two datasets the paper's sensitivity figures plot.
var sweepDatasets = []string{"Economic", "Lake"}

// paramSweep runs SMF and SMFL over a parameter grid, producing one row per
// (dataset, method) and one column per grid value. id prefixes the journal
// keys.
func (o Options) paramSweep(id, title, param string, values []string, configure func(cfg *core.Config, idx int)) (*Table, error) {
	o = o.withDefaults()
	t := &Table{Title: title, Header: append([]string{"Dataset", "Method"}, values...)}
	for _, name := range sweepDatasets {
		res, err := o.paperDataset(name, o.Seed)
		if err != nil {
			return nil, err
		}
		ds := res.Data
		_, m := ds.Dims()
		for _, method := range []core.Method{core.SMF, core.SMFL} {
			row := []string{name, method.String()}
			for idx := range values {
				cfg := o.mfConfig(m, o.Seed)
				configure(&cfg, idx)
				imp := &impute.MF{Method: method, Cfg: cfg}
				spec := dataset.MissingSpec{Rate: missingRate, KeepCompleteRows: keepRows(ds)}
				out, err := o.runImputer(cellKey(id, name, method.String(), values[idx]), imp, ds, spec)
				if err != nil {
					return nil, err
				}
				o.logf("%s / %s / %s=%s: %s", name, method, param, values[idx], out)
				row = append(row, out.String())
			}
			t.Rows = append(t.Rows, row)
		}
	}
	return t, nil
}

// Fig6 reproduces Fig. 6: RMS while varying the spatial regularization
// weight λ from 0.001 to 10.
func Fig6(o Options) (*Table, error) {
	lambdas := []float64{0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5, 10}
	labels := make([]string, len(lambdas))
	for i, l := range lambdas {
		labels[i] = fmt.Sprintf("%g", l)
	}
	return o.paramSweep("fig6", "Fig. 6: varying the regularization parameter λ", "λ", labels,
		func(cfg *core.Config, idx int) { cfg.Lambda = lambdas[idx] })
}

// Fig7 reproduces Fig. 7: RMS while varying the number of spatial nearest
// neighbors p from 1 to 10.
func Fig7(o Options) (*Table, error) {
	ps := []int{1, 2, 3, 4, 5, 6, 8, 10}
	labels := make([]string, len(ps))
	for i, p := range ps {
		labels[i] = fmt.Sprintf("%d", p)
	}
	return o.paramSweep("fig7", "Fig. 7: varying the number of spatial nearest neighbors p", "p", labels,
		func(cfg *core.Config, idx int) { cfg.P = ps[idx] })
}

// Fig8 reproduces Fig. 8: RMS while varying the number of landmarks K.
func Fig8(o Options) (*Table, error) {
	ks := []int{2, 4, 6, 8, 10, 15, 20}
	labels := make([]string, len(ks))
	for i, k := range ks {
		labels[i] = fmt.Sprintf("%d", k)
	}
	return o.paramSweep("fig8", "Fig. 8: varying the number of landmarks K", "K", labels,
		func(cfg *core.Config, idx int) { cfg.K = ks[idx] })
}
