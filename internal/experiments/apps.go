package experiments

import (
	"fmt"

	"github.com/spatialmf/smfl/internal/cluster"
	"github.com/spatialmf/smfl/internal/core"
	"github.com/spatialmf/smfl/internal/dataset"
	"github.com/spatialmf/smfl/internal/impute"
	"github.com/spatialmf/smfl/internal/mat"
	"github.com/spatialmf/smfl/internal/route"
)

// Fig4a reproduces Fig. 4a: accumulated-fuel error of each imputation method
// in the vehicle route-planning application. Fuel-rate cells are hidden, the
// methods fill them, and routes are costed on the imputed vs true tables.
func Fig4a(o Options) (*Table, error) {
	o = o.withDefaults()
	res, err := o.paperDataset("Vehicle", o.Seed)
	if err != nil {
		return nil, err
	}
	ds := res.Data
	n, m := ds.Dims()
	fuelCol := m - 1
	stops := 15
	if stops > n/4 {
		stops = n / 4
	}
	routes, err := route.SampleRoutes(ds.X, 20, stops, o.Seed)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  "Fig. 4a: accumulated fuel-consumption error in route planning (Vehicle)",
		Header: []string{"Method", "FuelError"},
	}
	methods := []impute.Imputer{
		impute.Mean{},
		&impute.KNNE{},
		&impute.DLM{},
		&impute.SoftImpute{},
		&impute.Iterative{},
		&impute.MF{Method: core.NMF, Cfg: o.mfConfig(m, o.Seed)},
		&impute.MF{Method: core.SMF, Cfg: o.mfConfig(m, o.Seed)},
		&impute.MF{Method: core.SMFL, Cfg: o.mfConfig(m, o.Seed)},
	}
	for _, imp := range methods {
		var total float64
		runs := 0
		failed := false
		for r := 0; r < o.Runs; r++ {
			mask, err := dataset.InjectMissing(ds, dataset.MissingSpec{
				Rate: 0.3, Columns: []int{fuelCol}, Seed: o.Seed + int64(r),
			})
			if err != nil {
				return nil, err
			}
			out, err := imp.Impute(ds.X, mask, ds.L)
			if err != nil {
				failed = true
				break
			}
			fe, err := route.FuelError(ds.X, out, routes, fuelCol)
			if err != nil {
				return nil, err
			}
			total += fe
			runs++
		}
		cell := "ERR"
		if !failed && runs > 0 {
			cell = fmt.Sprintf("%.4f", total/float64(runs))
		}
		o.logf("Fig4a / %s: %s", imp.Name(), cell)
		t.Rows = append(t.Rows, []string{imp.Name(), cell})
	}
	return t, nil
}

// Fig4b reproduces Fig. 4b: clustering accuracy of PCA, k-means and the MF
// family on the Lake dataset, against the generator's ground-truth regions.
func Fig4b(o Options) (*Table, error) {
	o = o.withDefaults()
	res, err := o.paperDataset("Lake", o.Seed)
	if err != nil {
		return nil, err
	}
	ds := res.Data
	_, m := ds.Dims()
	k := maxLabel(res.Labels) + 1
	mask, err := dataset.InjectMissing(ds, dataset.MissingSpec{Rate: missingRate, Seed: o.Seed})
	if err != nil {
		return nil, err
	}
	cfg := o.mfConfig(m, o.Seed)
	clusterers := []cluster.Clusterer{
		&cluster.PCAClusterer{Seed: o.Seed},
		&cluster.KMeansClusterer{Seed: o.Seed},
		&cluster.MFClusterer{Method: core.NMF, Cfg: cfg},
		&cluster.MFClusterer{Method: core.SMF, Cfg: cfg},
		&cluster.MFClusterer{Method: core.SMFL, Cfg: cfg},
	}
	t := &Table{
		Title:  "Fig. 4b: clustering accuracy with missing values (Lake)",
		Header: []string{"Method", "Accuracy"},
	}
	for _, c := range clusterers {
		labels, err := c.Cluster(ds.X, mask, ds.L, k)
		cell := "ERR"
		if err == nil {
			acc, aerr := cluster.Accuracy(res.Labels, labels)
			if aerr == nil {
				cell = fmt.Sprintf("%.3f", acc)
			}
		}
		o.logf("Fig4b / %s: %s", c.Name(), cell)
		t.Rows = append(t.Rows, []string{c.Name(), cell})
	}
	return t, nil
}

func maxLabel(labels []int) int {
	m := 0
	for _, l := range labels {
		if l > m {
			m = l
		}
	}
	return m
}

// Fig5 reproduces Fig. 5: the spatial locations of the learned features for
// SMF-GD, SMF-Multi and SMFL, summarized as the fraction of features inside
// the observation bounding box plus the raw coordinates.
func Fig5(o Options) (*Table, error) {
	o = o.withDefaults()
	res, err := o.paperDataset("Lake", o.Seed)
	if err != nil {
		return nil, err
	}
	ds := res.Data
	n, m := ds.Dims()
	mask, err := dataset.InjectMissing(ds, dataset.MissingSpec{Rate: missingRate, Seed: o.Seed})
	if err != nil {
		return nil, err
	}
	si := ds.X.Slice(0, n, 0, ds.L)
	loX, hiX := mat.Min(si.Slice(0, n, 0, 1)), mat.Max(si.Slice(0, n, 0, 1))
	loY, hiY := mat.Min(si.Slice(0, n, 1, 2)), mat.Max(si.Slice(0, n, 1, 2))

	type variant struct {
		name    string
		method  core.Method
		updater core.Updater
	}
	variants := []variant{
		{"SMF-GD", core.SMF, core.GradientDescent},
		{"SMF-Multi", core.SMF, core.Multiplicative},
		{"SMFL", core.SMFL, core.Multiplicative},
	}
	t := &Table{
		Title:  "Fig. 5: learned feature locations vs observation bounding box (Lake)",
		Header: []string{"Variant", "InsideBox", "Locations (x;y)"},
	}
	for _, v := range variants {
		cfg := o.mfConfig(m, o.Seed)
		cfg.Updater = v.updater
		model, err := core.Fit(ds.X, mask, ds.L, v.method, cfg)
		if err != nil {
			return nil, err
		}
		locs := model.FeatureLocations()
		k, _ := locs.Dims()
		inside := 0
		var coords string
		for r := 0; r < k; r++ {
			x, y := locs.At(r, 0), locs.At(r, 1)
			if x >= loX && x <= hiX && y >= loY && y <= hiY {
				inside++
			}
			coords += fmt.Sprintf("(%.2f;%.2f) ", x, y)
		}
		o.logf("Fig5 / %s: %d/%d inside", v.name, inside, k)
		t.Rows = append(t.Rows, []string{v.name, fmt.Sprintf("%d/%d", inside, k), coords})
	}
	return t, nil
}

// Fig1 reproduces Fig. 1: the scatter of data observations (colored by fuel
// consumption rate) against the spatial locations of features learned by
// NMF, SMF and SMFL on the Vehicle dataset. Rows are CSV-ready points with a
// Series column, the machine-readable form of the paper's map figure.
func Fig1(o Options) (*Table, error) {
	o = o.withDefaults()
	res, err := o.paperDataset("Vehicle", o.Seed)
	if err != nil {
		return nil, err
	}
	ds := res.Data
	n, m := ds.Dims()
	mask, err := dataset.InjectMissing(ds, dataset.MissingSpec{Rate: missingRate, Seed: o.Seed})
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  "Fig. 1: observations and learned feature locations (Vehicle)",
		Header: []string{"Series", "X", "Y", "Value"},
	}
	fuelCol := m - 1
	// Subsample observations so the table stays plottable.
	step := n/200 + 1
	for i := 0; i < n; i += step {
		t.Rows = append(t.Rows, []string{
			"observation",
			fmt.Sprintf("%.4f", ds.X.At(i, 0)),
			fmt.Sprintf("%.4f", ds.X.At(i, 1)),
			fmt.Sprintf("%.4f", ds.X.At(i, fuelCol)),
		})
	}
	for _, method := range []core.Method{core.NMF, core.SMF, core.SMFL} {
		model, err := core.Fit(ds.X, mask, ds.L, method, o.mfConfig(m, o.Seed))
		if err != nil {
			return nil, err
		}
		locs := model.FeatureLocations()
		k, _ := locs.Dims()
		for r := 0; r < k; r++ {
			t.Rows = append(t.Rows, []string{
				method.String(),
				fmt.Sprintf("%.4f", locs.At(r, 0)),
				fmt.Sprintf("%.4f", locs.At(r, 1)),
				"",
			})
		}
		o.logf("Fig1 / %s: %d features", method, k)
	}
	return t, nil
}
