package experiments

import (
	"github.com/spatialmf/smfl/internal/dataset"
	"github.com/spatialmf/smfl/internal/metrics"
	"github.com/spatialmf/smfl/internal/repair"
)

// Table6 reproduces Table VI: repair RMS of Baran, HoloClean (stand-ins, see
// DESIGN.md §2) and the NMF/SMF/SMFL family at 10% error rate. The dirty
// mask Ψ is the injected-error set, matching the paper's use of an external
// detector's output.
func Table6(o Options) (*Table, error) {
	o = o.withDefaults()
	t := &Table{
		Title:  "Table VI: repair RMS (error rate 10%)",
		Header: []string{"Dataset", "Baran", "HoloClean", "NMF", "SMF", "SMFL"},
	}
	for _, name := range dataset.PaperDatasets {
		res, err := o.paperDataset(name, o.Seed)
		if err != nil {
			return nil, err
		}
		ds := res.Data
		_, m := ds.Dims()
		row := []string{name}
		for _, rep := range repair.PaperRepairers(o.Seed, o.mfConfig(m, o.Seed)) {
			out := o.runRepairer(rep, ds)
			o.logf("%s / %s: %s", name, rep.Name(), out)
			row = append(row, out.String())
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

func (o Options) runRepairer(rep repair.Repairer, ds *dataset.Dataset) methodOutcome {
	var total float64
	for r := 0; r < o.Runs; r++ {
		corrupted, dirty, err := dataset.InjectErrors(ds, dataset.ErrorSpec{
			Rate: errorRate, Seed: o.Seed + int64(r), SpareSI: true,
		})
		if err != nil {
			return methodOutcome{note: "ERR"}
		}
		repaired, err := rep.Repair(corrupted, dirty, ds.L)
		if err != nil {
			return methodOutcome{note: "ERR"}
		}
		rms, err := metrics.RMSOverSet(repaired, ds.X, dirty)
		if err != nil {
			return methodOutcome{note: "ERR"}
		}
		total += rms
	}
	return methodOutcome{rms: total / float64(o.Runs)}
}
