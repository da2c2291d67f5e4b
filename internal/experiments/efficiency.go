package experiments

import (
	"errors"
	"fmt"
	"time"

	"github.com/spatialmf/smfl/internal/core"
	"github.com/spatialmf/smfl/internal/dataset"
	"github.com/spatialmf/smfl/internal/impute"
)

// Fig9 reproduces Fig. 9: wall-clock time of the methods while varying the
// number of tuples, on the Economic and Lake shapes. One row per
// (dataset, method), one column per size.
func Fig9(o Options) (*Table, error) {
	o = o.withDefaults()
	// Tuple counts scale with o.Scale so the experiment stays laptop-sized.
	fractions := []float64{0.25, 0.5, 0.75, 1}
	t := &Table{Title: "Fig. 9: time cost (seconds) vs number of tuples"}

	methods := func(m int, seed int64) []impute.Imputer {
		return []impute.Imputer{
			&impute.KNNE{},
			&impute.DLM{},
			&impute.MC{},
			&impute.SoftImpute{},
			&impute.Iterative{},
			&impute.GAIN{Seed: seed},
			&impute.MF{Method: core.SMF, Cfg: o.mfConfig(m, seed)},
			&impute.MF{Method: core.SMFL, Cfg: o.mfConfig(m, seed)},
		}
	}

	for _, name := range []string{"Economic", "Lake"} {
		full, err := o.paperDataset(name, o.Seed)
		if err != nil {
			return nil, err
		}
		n, m := full.Data.Dims()
		if len(t.Header) == 0 {
			hdr := []string{"Dataset", "Method"}
			for _, f := range fractions {
				hdr = append(hdr, fmt.Sprintf("N=%d", int(float64(n)*f)))
			}
			t.Header = hdr
		}
		for _, imp := range methods(m, o.Seed) {
			row := []string{name, imp.Name()}
			for _, f := range fractions {
				sz := int(float64(n) * f)
				if sz < 10 {
					sz = 10
				}
				ds := full.Data.Head(sz)
				mask, err := dataset.InjectMissing(ds, dataset.MissingSpec{
					Rate: missingRate, Seed: o.Seed, KeepCompleteRows: keepRows(ds),
				})
				if err != nil {
					return nil, err
				}
				start := time.Now()
				_, err = imp.Impute(ds.X, mask, ds.L)
				elapsed := time.Since(start)
				cell := fmt.Sprintf("%.3f", elapsed.Seconds())
				if err != nil {
					var rle *impute.ResourceLimitError
					if errors.As(err, &rle) {
						cell = rle.Kind
					} else {
						cell = "ERR"
					}
				}
				row = append(row, cell)
				if elapsed > o.Budget {
					break
				}
			}
			o.logf("Fig9 / %s / %s: %v", name, imp.Name(), row[2:])
			t.Rows = append(t.Rows, row)
		}
	}
	return t, nil
}
