package experiments

import (
	"fmt"
	"time"

	"github.com/spatialmf/smfl/internal/core"
	"github.com/spatialmf/smfl/internal/dataset"
	"github.com/spatialmf/smfl/internal/impute"
	"github.com/spatialmf/smfl/internal/landmark"
	"github.com/spatialmf/smfl/internal/spatial"
)

// AblationLandmarkSource (DESIGN.md A3, beyond the paper) compares the
// K-means landmark generator against random observed points and a uniform
// grid over the bounding box.
func AblationLandmarkSource(o Options) (*Table, error) {
	o = o.withDefaults()
	sources := []struct {
		name string
		src  core.LandmarkSource
	}{
		{"KMeansCenters", core.KMeansCenters},
		{"RandomObservations", core.RandomObservations},
		{"UniformGrid", core.UniformGrid},
	}
	t := &Table{
		Title:  "Ablation A3: landmark source (SMFL imputation RMS)",
		Header: []string{"Dataset", "KMeansCenters", "RandomObservations", "UniformGrid"},
	}
	for _, name := range sweepDatasets {
		res, err := o.paperDataset(name, o.Seed)
		if err != nil {
			return nil, err
		}
		ds := res.Data
		_, m := ds.Dims()
		row := []string{name}
		for _, s := range sources {
			cfg := o.mfConfig(m, o.Seed)
			cfg.LandmarkSource = s.src
			imp := &impute.MF{Method: core.SMFL, Cfg: cfg}
			spec := dataset.MissingSpec{Rate: missingRate, KeepCompleteRows: keepRows(ds)}
			out, err := o.runImputer(cellKey("ablation-landmark-source", name, s.name), imp, ds, spec)
			if err != nil {
				return nil, err
			}
			o.logf("A3 / %s / %s: %s", name, s.name, out)
			row = append(row, out.String())
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// AblationUpdater (DESIGN.md A4) compares the multiplicative rules against
// plain projected gradient descent, for SMF and SMFL.
func AblationUpdater(o Options) (*Table, error) {
	o = o.withDefaults()
	t := &Table{
		Title:  "Ablation A4: multiplicative vs gradient-descent updates (imputation RMS)",
		Header: []string{"Dataset", "SMF-Multi", "SMF-GD", "SMFL-Multi", "SMFL-GD"},
	}
	for _, name := range sweepDatasets {
		res, err := o.paperDataset(name, o.Seed)
		if err != nil {
			return nil, err
		}
		ds := res.Data
		_, m := ds.Dims()
		row := []string{name}
		for _, method := range []core.Method{core.SMF, core.SMFL} {
			for _, upd := range []core.Updater{core.Multiplicative, core.GradientDescent} {
				cfg := o.mfConfig(m, o.Seed)
				cfg.Updater = upd
				imp := &impute.MF{Method: method, Cfg: cfg}
				spec := dataset.MissingSpec{Rate: missingRate, KeepCompleteRows: keepRows(ds)}
				out, err := o.runImputer(cellKey("ablation-updater", name, method.String(), updaterName(upd)), imp, ds, spec)
				if err != nil {
					return nil, err
				}
				row = append(row, out.String())
			}
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

func updaterName(u core.Updater) string {
	if u == core.GradientDescent {
		return "GD"
	}
	return "Multi"
}

// AblationGraphBuild (DESIGN.md A5, engineering) times the three p-NN graph
// construction backends — exact KD-tree, exact brute force (Proposition 1),
// and the sub-quadratic landmark index — and reports the landmark graph's
// edge recall against the exact graph.
func AblationGraphBuild(o Options) (*Table, error) {
	o = o.withDefaults()
	t := &Table{
		Title:  "Ablation A5: neighbor-graph construction time (seconds)",
		Header: []string{"N", "KDTree", "BruteForce", "Landmark", "LandmarkRecall"},
	}
	res, err := o.paperDataset("Economic", o.Seed)
	if err != nil {
		return nil, err
	}
	n, _ := res.Data.Dims()
	for _, f := range []float64{0.25, 0.5, 1} {
		sz := int(float64(n) * f)
		if sz < 10 {
			sz = 10
		}
		si := res.Data.X.Slice(0, sz, 0, res.Data.L)
		row := []string{fmt.Sprintf("%d", sz)}
		var exact *spatial.Graph
		for _, mode := range []spatial.BuildMode{spatial.KDTreeMode, spatial.BruteForceMode} {
			start := time.Now()
			g, err := spatial.BuildGraph(si, 3, mode)
			if err != nil {
				return nil, err
			}
			if mode == spatial.KDTreeMode {
				exact = g
			}
			row = append(row, fmt.Sprintf("%.4f", time.Since(start).Seconds()))
		}
		start := time.Now()
		ix, err := landmark.Build(si, landmark.Config{Seed: o.Seed})
		if err != nil {
			return nil, err
		}
		approx, err := ix.PNNGraph(3)
		if err != nil {
			return nil, err
		}
		row = append(row, fmt.Sprintf("%.4f", time.Since(start).Seconds()),
			fmt.Sprintf("%.3f", edgeRecall(exact, approx)))
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// edgeRecall is the fraction of exact-graph edges present in the approximate
// graph.
func edgeRecall(exact, approx *spatial.Graph) float64 {
	hits, total := 0, 0
	for i := 0; i < exact.N(); i++ {
		for _, j := range exact.Neighbors(i) {
			if int32(i) < j {
				total++
				if approx.Connected(i, int(j)) {
					hits++
				}
			}
		}
	}
	if total == 0 {
		return 1
	}
	return float64(hits) / float64(total)
}

// Registry maps experiment IDs to their regenerators, in paper order.
var Registry = []struct {
	ID   string
	Desc string
	Run  func(Options) (*Table, error)
}{
	{"fig1", "Fig. 1: observation/feature location scatter (CSV for plotting)", Fig1},
	{"table3", "Table III: dataset summary at the configured scale", Table3},
	{"table4", "Table IV: imputation RMS, 12 methods x 4 datasets", Table4},
	{"table5", "Table V: imputation RMS with missing spatial information", Table5},
	{"table6", "Table VI: repair RMS, 5 methods x 4 datasets", Table6},
	{"table7", "Table VII: NMF/SMF/SMFL vs missing rate", Table7},
	{"fig4a", "Fig. 4a: route-planning fuel error", Fig4a},
	{"fig4b", "Fig. 4b: clustering accuracy", Fig4b},
	{"fig5", "Fig. 5: learned feature locations", Fig5},
	{"fig6", "Fig. 6: varying lambda", Fig6},
	{"fig7", "Fig. 7: varying p", Fig7},
	{"fig8", "Fig. 8: varying K", Fig8},
	{"fig9", "Fig. 9: time cost vs tuples", Fig9},
	{"ablation-landmark-source", "A3: landmark source ablation", AblationLandmarkSource},
	{"ablation-updater", "A4: multiplicative vs gradient descent", AblationUpdater},
	{"ablation-graph", "A5: KD-tree vs brute-force graph build", AblationGraphBuild},
}

// ByID returns the registered experiment with the given ID, or nil.
func ByID(id string) func(Options) (*Table, error) {
	for _, e := range Registry {
		if e.ID == id {
			return e.Run
		}
	}
	return nil
}
