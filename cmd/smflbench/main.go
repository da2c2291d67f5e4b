// Command smflbench times the training and fold-in hot paths across the four
// paper datasets and a sweep of missing rates, writing the results as JSON.
// It is the repeatable harness behind the checked-in BENCH_fit.json snapshot:
//
//	smflbench -scale 0.05 -rates 0.1,0.5,0.9 -out BENCH_fit.json
//
// Times are medians over -runs repetitions of core.Fit (method SMFL unless
// -method overrides) plus a batched FoldIn of -foldrows fresh rows, so one
// file captures both halves of the serving story. -spatial-index switches
// the fits onto the landmark graph path, and -graph-ns sweeps p-NN graph
// construction alone across row counts, timing the Proposition-1 quadratic
// scan (extrapolated), the KD-tree build, and the landmark index side by
// side with the landmark graph's edge recall. The worker-pool width
// (SMFL_WORKERS or GOMAXPROCS) is recorded alongside the numbers because the
// pooled kernels make timings machine-dependent.
//
// -stochastic adds the mini-batch updater sweep: on a synthetic -stoch-n × 50
// table at 90% missing it times full-sweep gradient descent once, then
// sgd/svrg across -stoch-batches batch sizes, recording ms/epoch and the
// epochs each stochastic run needs to reach the GD baseline's final
// objective ("epochs to tolerance") — the wall-clock-to-equal-quality
// comparison behind the stochastic updaters. Setting SMFL_LARGE=1 appends
// rows at -stoch-large-n rows (default batch size only), the million-row
// regime the stochastic family exists for. -store times the same SGD fit
// over the dense matrix and over a shard store at three memory budgets.
// Their times are medians over -runs fits as well, and every run of a cell
// must end on the same final-objective bits.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/spatialmf/smfl/internal/atomicfile"
	"github.com/spatialmf/smfl/internal/core"
	"github.com/spatialmf/smfl/internal/dataset"
	"github.com/spatialmf/smfl/internal/faultinject"
	"github.com/spatialmf/smfl/internal/landmark"
	"github.com/spatialmf/smfl/internal/mat"
	"github.com/spatialmf/smfl/internal/spatial"
	"github.com/spatialmf/smfl/internal/store"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "smflbench: %v\n", err)
		os.Exit(1)
	}
}

// Report is the top-level JSON document.
type Report struct {
	GoVersion    string        `json:"go_version"`
	GOOS         string        `json:"goos"`
	GOARCH       string        `json:"goarch"`
	Workers      int           `json:"workers"`
	Scale        float64       `json:"scale"`
	Method       string        `json:"method"`
	K            int           `json:"k"`
	MaxIter      int           `json:"maxiter"`
	Runs         int           `json:"runs"`
	SpatialIndex string        `json:"spatial_index"`
	Results      []Result      `json:"results"`
	GraphSweep   []GraphResult `json:"graph_sweep,omitempty"`
	Stochastic   []StochResult `json:"stochastic,omitempty"`
	Store        []StoreResult `json:"store,omitempty"`
}

// StoreResult is one row of the out-of-core storage sweep: the same SGD fit
// over the in-memory dense matrix ("dense") and over the shard store
// ("mmap") at several memory budgets, expressed as a fraction of the data
// size on disk. The trajectories are bit-identical by construction (the
// sweep verifies final objectives match), so the only deltas are ms/epoch —
// the streaming overhead — and the store's residency counters.
type StoreResult struct {
	Rows           int     `json:"rows"`
	Cols           int     `json:"cols"`
	MissingRate    float64 `json:"missing_rate"`
	Backend        string  `json:"backend"`
	BudgetFraction float64 `json:"budget_fraction,omitempty"`
	MemBudgetBytes int64   `json:"mem_budget_bytes,omitempty"`
	Epochs         int     `json:"epochs"`
	MsPerEpoch     float64 `json:"ms_per_epoch"`
	PeakResident   int64   `json:"peak_resident_bytes,omitempty"`
	Evictions      int64   `json:"evictions,omitempty"`
	ShardMaps      int64   `json:"shard_maps,omitempty"`
	FinalObjective float64 `json:"final_objective"`
}

// StochResult is one row of the stochastic-updater sweep: one updater ×
// batch-size cell on a synthetic N×50 table at 90% missing. EpochsToTol is
// the first epoch whose training objective is at or below the full-sweep GD
// baseline's final objective (0 = never reached it); WallToTolMillis is
// MsPerEpoch × EpochsToTol, and SpeedupVsGD divides the GD baseline's total
// wall-clock by it — the wall-clock-to-equal-quality headline number. The GD
// baseline itself appears as a row with Updater "gd" and SpeedupVsGD 1.
type StochResult struct {
	Rows            int     `json:"rows"`
	Cols            int     `json:"cols"`
	MissingRate     float64 `json:"missing_rate"`
	Updater         string  `json:"updater"`
	BatchCells      int     `json:"batch_cells,omitempty"`
	LearningRate    float64 `json:"lr"`
	Epochs          int     `json:"epochs"`
	MsPerEpoch      float64 `json:"ms_per_epoch"`
	EpochsToTol     int     `json:"epochs_to_tol"`
	WallToTolMillis float64 `json:"wall_to_tol_ms"`
	SpeedupVsGD     float64 `json:"speedup_vs_gd"`
	FinalObjective  float64 `json:"final_objective"`
}

// GraphResult is one row of the graph-construction sweep: all three p-NN
// backends over the same clustered synthetic SI. The quadratic time is
// extrapolated from a query sample (running all N Proposition-1 scans at
// large N would take minutes); the other two are measured outright.
type GraphResult struct {
	N                  int     `json:"n"`
	P                  int     `json:"p"`
	QuadraticMillisEst float64 `json:"quadratic_ms_est"`
	KDTreeMillis       float64 `json:"kdtree_ms"`
	LandmarkMillis     float64 `json:"landmark_ms"`
	LandmarkRecall     float64 `json:"landmark_recall"`
}

// Result is one dataset × missing-rate cell.
type Result struct {
	Dataset      string  `json:"dataset"`
	Rows         int     `json:"rows"`
	Cols         int     `json:"cols"`
	MissingRate  float64 `json:"missing_rate"`
	FitMillis    float64 `json:"fit_ms"`
	FitIters     int     `json:"fit_iters"`
	FoldInRows   int     `json:"foldin_rows"`
	FoldInMicros float64 `json:"foldin_us_per_row"`
}

// run executes the sweep; factored out of main for tests.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("smflbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	names := fs.String("datasets", strings.Join(dataset.PaperDatasets, ","), "comma-separated dataset names")
	rates := fs.String("rates", "0.1,0.5,0.9", "comma-separated missing rates in [0,1)")
	scale := fs.Float64("scale", 0.05, "dataset size relative to the paper's")
	methodName := fs.String("method", "SMFL", "NMF | SMF | SMFL")
	k := fs.Int("k", 6, "latent features / landmarks")
	maxIter := fs.Int("maxiter", 100, "iteration cap per fit")
	runs := fs.Int("runs", 3, "repetitions per cell (median reported)")
	foldRows := fs.Int("foldrows", 32, "rows folded in per cell (0 disables)")
	seed := fs.Int64("seed", 1, "RNG seed")
	spatialIndex := fs.String("spatial-index", "exact", "p-NN graph backend for the fit cells: exact | landmark")
	graphNs := fs.String("graph-ns", "1000,10000,50000", "graph-construction sweep sizes (empty disables)")
	stochastic := fs.Bool("stochastic", false, "run the mini-batch updater sweep (gd baseline vs sgd/svrg)")
	stochN := fs.Int("stoch-n", 20000, "row count of the stochastic sweep's synthetic table")
	stochLargeN := fs.Int("stoch-large-n", 1000000, "extra stochastic sweep row count when SMFL_LARGE=1")
	stochBatches := fs.String("stoch-batches", "8192,32768", "batch sizes (observed cells) swept per stochastic updater")
	stochEpochs := fs.Int("stoch-epochs", 60, "epoch cap per stochastic sweep fit")
	storeSweep := fs.Bool("store", false, "run the out-of-core storage sweep (dense vs mmap shard store)")
	storeN := fs.Int("store-n", 20000, "row count of the storage sweep's synthetic table")
	out := fs.String("out", "", "output JSON path (default stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	method, err := core.ParseMethod(*methodName)
	if err != nil {
		return err
	}
	six, err := core.ParseSpatialIndex(*spatialIndex)
	if err != nil {
		return err
	}
	if *runs < 1 {
		return errors.New("-runs must be at least 1")
	}

	rep := Report{
		GoVersion:    runtime.Version(),
		GOOS:         runtime.GOOS,
		GOARCH:       runtime.GOARCH,
		Workers:      mat.Workers(),
		Scale:        *scale,
		Method:       strings.ToUpper(*methodName),
		K:            *k,
		MaxIter:      *maxIter,
		Runs:         *runs,
		SpatialIndex: six.String(),
	}
	for _, name := range splitList(*names) {
		for _, rateStr := range splitList(*rates) {
			rate, err := strconv.ParseFloat(rateStr, 64)
			if err != nil {
				return fmt.Errorf("bad rate %q: %v", rateStr, err)
			}
			res, err := benchCell(name, *scale, rate, method, *k, *maxIter, *runs, *foldRows, *seed, six)
			if err != nil {
				return err
			}
			fmt.Fprintf(stderr, "smflbench: %-9s rate=%.2f fit=%.1fms iters=%d\n",
				name, rate, res.FitMillis, res.FitIters)
			rep.Results = append(rep.Results, res)
		}
	}
	for _, nStr := range splitList(*graphNs) {
		n, err := strconv.Atoi(nStr)
		if err != nil {
			return fmt.Errorf("bad graph sweep size %q: %v", nStr, err)
		}
		g, err := benchGraph(n, 10, *seed)
		if err != nil {
			return err
		}
		fmt.Fprintf(stderr, "smflbench: graph N=%-6d quadratic≈%.0fms kdtree=%.1fms landmark=%.1fms recall=%.3f\n",
			g.N, g.QuadraticMillisEst, g.KDTreeMillis, g.LandmarkMillis, g.LandmarkRecall)
		rep.GraphSweep = append(rep.GraphSweep, g)
	}
	if *stochastic {
		var batches []int
		for _, bStr := range splitList(*stochBatches) {
			b, err := strconv.Atoi(bStr)
			if err != nil {
				return fmt.Errorf("bad stochastic batch size %q: %v", bStr, err)
			}
			batches = append(batches, b)
		}
		rows, err := benchStochastic(*stochN, batches, *k, *stochEpochs, *runs, *seed, stderr)
		if err != nil {
			return err
		}
		rep.Stochastic = append(rep.Stochastic, rows...)
		if os.Getenv("SMFL_LARGE") == "1" && *stochLargeN > 0 {
			// The large row demonstrates million-row scale at the default
			// batch size; the batch-size trade-off itself is swept above.
			rows, err := benchStochastic(*stochLargeN, []int{32768}, *k, *stochEpochs, *runs, *seed, stderr)
			if err != nil {
				return err
			}
			rep.Stochastic = append(rep.Stochastic, rows...)
		}
	}

	if *storeSweep {
		rows, err := benchStore(*storeN, *k, *stochEpochs, *runs, *seed, stderr)
		if err != nil {
			return err
		}
		rep.Store = append(rep.Store, rows...)
	}

	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	enc = append(enc, '\n')
	if *out == "" {
		_, err = stdout.Write(enc)
		return err
	}
	return atomicfile.Write(*out, 0o644, func(w io.Writer) error {
		_, err := w.Write(enc)
		return err
	}, faultinject.PersistWrite, faultinject.PersistRename, *out)
}

// benchGraph times the three p-NN graph backends over n clustered 2-D
// points. The Proposition-1 quadratic scan is timed over a deterministic
// sample of queries and extrapolated linearly (per-query cost is constant in
// the query index); KD-tree and landmark builds run in full.
func benchGraph(n, p int, seed int64) (GraphResult, error) {
	rng := rand.New(rand.NewSource(seed))
	const dim = 2
	centers := mat.RandomUniform(rng, 20, dim, -10, 10)
	si := mat.NewDense(n, dim)
	for i := 0; i < n; i++ {
		c := centers.Row(i % 20)
		for j := 0; j < dim; j++ {
			si.Set(i, j, c[j]+0.8*rng.NormFloat64())
		}
	}

	sample := 128
	if sample > n {
		sample = n
	}
	d2 := make([]float64, p)
	start := time.Now()
	for s := 0; s < sample; s++ {
		q := s * (n / sample)
		qx := si.Row(q)
		top := d2[:0]
		worst := 0
		for i := 0; i < n; i++ {
			if i == q {
				continue
			}
			var v float64
			for j, c := range si.Row(i) {
				dd := qx[j] - c
				v += dd * dd
			}
			if len(top) < p {
				top = append(top, v)
				if len(top) == p {
					for t := 1; t < p; t++ {
						if top[t] > top[worst] {
							worst = t
						}
					}
				}
				continue
			}
			if v < top[worst] {
				top[worst] = v
				worst = 0
				for t := 1; t < p; t++ {
					if top[t] > top[worst] {
						worst = t
					}
				}
			}
		}
	}
	quadEst := float64(time.Since(start).Microseconds()) / float64(sample) * float64(n) / 1e3

	start = time.Now()
	exact, err := spatial.BuildGraph(si, p, spatial.KDTreeMode)
	if err != nil {
		return GraphResult{}, err
	}
	kdMillis := float64(time.Since(start).Microseconds()) / 1e3

	start = time.Now()
	ix, err := landmark.Build(si, landmark.Config{Seed: seed})
	if err != nil {
		return GraphResult{}, err
	}
	approx, err := ix.PNNGraph(p)
	if err != nil {
		return GraphResult{}, err
	}
	lmMillis := float64(time.Since(start).Microseconds()) / 1e3

	hits, total := 0, 0
	for i := 0; i < n; i++ {
		for _, j := range exact.Neighbors(i) {
			if int32(i) < j {
				total++
				if approx.Connected(i, int(j)) {
					hits++
				}
			}
		}
	}
	recall := 1.0
	if total > 0 {
		recall = float64(hits) / float64(total)
	}
	return GraphResult{
		N: n, P: p,
		QuadraticMillisEst: quadEst,
		KDTreeMillis:       kdMillis,
		LandmarkMillis:     lmMillis,
		LandmarkRecall:     recall,
	}, nil
}

func benchCell(name string, scale, rate float64, method core.Method, k, maxIter, runs, foldRows int, seed int64, six core.SpatialIndex) (Result, error) {
	res, err := dataset.ByName(name, scale, seed)
	if err != nil {
		return Result{}, err
	}
	if _, err := res.Data.Normalize(); err != nil {
		return Result{}, err
	}
	mask, err := dataset.InjectMissing(res.Data, dataset.MissingSpec{Rate: rate, Seed: seed})
	if err != nil {
		return Result{}, err
	}
	n, m := res.Data.Dims()
	cfg := core.Config{K: k, Lambda: 0.1, P: 3, MaxIter: maxIter, Tol: 1e-9, Seed: seed, SpatialIndex: six}

	model, fitMillis, err := medianFit(runs, func() (*core.Model, error) {
		return core.Fit(res.Data.X, mask, res.Data.L, method, cfg)
	})
	if err != nil {
		return Result{}, err
	}

	out := Result{
		Dataset:     name,
		Rows:        n,
		Cols:        m,
		MissingRate: rate,
		FitMillis:   fitMillis,
		FitIters:    model.Iters,
	}
	if foldRows > 0 {
		if foldRows > n {
			foldRows = n
		}
		fresh := res.Data.X.Slice(0, foldRows, 0, m)
		foldTimes := make([]float64, runs)
		for r := 0; r < runs; r++ {
			start := time.Now()
			if _, err := model.FoldIn(fresh, nil, 50); err != nil {
				return Result{}, err
			}
			foldTimes[r] = float64(time.Since(start).Microseconds()) / float64(foldRows)
		}
		out.FoldInRows = foldRows
		out.FoldInMicros = median(foldTimes)
	}
	return out, nil
}

// medianFit runs fit runs times and returns the first run's model and the
// median wall-clock of the runs in milliseconds. The runs of one cell repeat
// one trajectory, so a run whose final objective has other bits than the
// first run's is an error, not a data point.
func medianFit(runs int, fit func() (*core.Model, error)) (*core.Model, float64, error) {
	var first *core.Model
	walls := make([]float64, runs)
	for r := range walls {
		start := time.Now()
		m, err := fit()
		if err != nil {
			return nil, 0, err
		}
		walls[r] = float64(time.Since(start).Microseconds()) / 1e3
		if first == nil {
			first = m
			continue
		}
		if got, want := finalObjective(m), finalObjective(first); math.Float64bits(got) != math.Float64bits(want) {
			return nil, 0, fmt.Errorf("run %d ended on objective %v, run 0 on %v: the fit is not deterministic", r, got, want)
		}
	}
	return first, median(walls), nil
}

func finalObjective(m *core.Model) float64 { return m.Objective[len(m.Objective)-1] }

// stochLR is the step size every stochastic sweep fit uses — the gradient
// family's documented default on [0,1]-normalized data (see
// experiments.mfConfig). The GD baseline does NOT share it: full-sweep
// column gradients sum |Ω|/M cells, so GD's stable step shrinks with the
// observed count, and benchmarking it at the family default would be a
// strawman. benchStochastic instead tunes GD over gdLRGrid (scaled inversely
// with |Ω| around the 1e5-cell reference where the grid was calibrated) and
// takes the best final objective as the baseline.
const stochLR = 5e-3

var gdLRGrid = []float64{5e-3, 1e-3, 2e-4, 4e-5, 8e-6, 1.6e-6}

// benchStochastic compares the mini-batch updaters against full-sweep
// gradient descent on one synthetic n×50 table at 90% missing. The GD
// baseline runs the full epoch budget once at each grid step size and the
// best final objective fixes the quality bar; each sgd/svrg × batch-size
// cell (all at the fixed family-default step) then reports how many epochs —
// and how much wall-clock — it needs to reach that bar. Every reported wall
// time, the chosen GD step's included, is the median of runs fits. Tol is
// set below reachability so every run exhausts the budget and ms/epoch is
// measured over the full trajectory.
func benchStochastic(n int, batches []int, k, epochs, runs int, seed int64, stderr io.Writer) ([]StochResult, error) {
	const cols, missing = 50, 0.9
	res, err := dataset.Generate(dataset.Spec{
		Name: "Synthetic", N: n, M: cols, L: 2,
		Latents: 5, Bumps: 8, Clusters: 6, Noise: 0.2, Private: 0.3, Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	if _, err := res.Data.Normalize(); err != nil {
		return nil, err
	}
	mask, err := dataset.InjectMissing(res.Data, dataset.MissingSpec{Rate: missing, Seed: seed})
	if err != nil {
		return nil, err
	}
	x := res.Data.X

	cfg := core.Config{
		K: k, Lambda: 0.1, MaxIter: epochs, Tol: 1e-15, Seed: seed,
		Updater: core.GradientDescent,
	}
	lrScale := 1e5 / float64(mask.Count())
	var gd *core.Model
	var gdObj, gdLR float64
	for _, base := range gdLRGrid {
		lr := base * lrScale
		gcfg := cfg
		gcfg.LearningRate = lr
		start := time.Now()
		m, err := core.Fit(x, mask, res.Data.L, core.NMF, gcfg)
		if err != nil {
			return nil, err
		}
		wall := float64(time.Since(start).Microseconds()) / 1e3
		obj := finalObjective(m)
		fmt.Fprintf(stderr, "smflbench: stochastic N=%-8d gd lr=%-8.2g obj %.4f after %d epochs (%.0fms)\n",
			n, lr, obj, m.Iters, wall)
		if gd == nil || obj < gdObj {
			gd, gdObj, gdLR = m, obj, lr
		}
	}
	gcfg := cfg
	gcfg.LearningRate = gdLR
	gd, gdWall, err := medianFit(runs, func() (*core.Model, error) {
		return core.Fit(x, mask, res.Data.L, core.NMF, gcfg)
	})
	if err != nil {
		return nil, err
	}
	rows := []StochResult{{
		Rows: n, Cols: cols, MissingRate: missing,
		Updater: "gd", LearningRate: gdLR, Epochs: gd.Iters,
		MsPerEpoch:  gdWall / float64(gd.Iters),
		EpochsToTol: gd.Iters, WallToTolMillis: gdWall,
		SpeedupVsGD: 1, FinalObjective: gdObj,
	}}
	fmt.Fprintf(stderr, "smflbench: stochastic N=%-8d gd    %8.2f ms/epoch, best obj %.4f at lr=%.2g\n",
		n, rows[0].MsPerEpoch, gdObj, gdLR)

	for _, up := range []core.Updater{core.SGD, core.SVRG} {
		for _, bc := range batches {
			scfg := cfg
			scfg.Updater = up
			scfg.BatchCells = bc
			scfg.LearningRate = stochLR
			m, wall, err := medianFit(runs, func() (*core.Model, error) {
				return core.Fit(x, mask, res.Data.L, core.NMF, scfg)
			})
			if err != nil {
				return nil, err
			}
			row := StochResult{
				Rows: n, Cols: cols, MissingRate: missing,
				Updater: up.String(), BatchCells: bc, LearningRate: stochLR, Epochs: m.Iters,
				MsPerEpoch:     wall / float64(m.Iters),
				FinalObjective: finalObjective(m),
			}
			for i, o := range m.Objective {
				if o <= gdObj {
					row.EpochsToTol = i + 1
					row.WallToTolMillis = row.MsPerEpoch * float64(row.EpochsToTol)
					row.SpeedupVsGD = gdWall / row.WallToTolMillis
					break
				}
			}
			fmt.Fprintf(stderr, "smflbench: stochastic N=%-8d %-5s %8.2f ms/epoch, batch=%d, %d epochs to gd objective (%.1fx)\n",
				n, row.Updater, row.MsPerEpoch, bc, row.EpochsToTol, row.SpeedupVsGD)
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// benchStore compares the SGD fit over the in-memory dense pair against the
// same fit streamed from the shard store at a sweep of memory budgets
// (fractions of the store's on-disk size). Final objectives must agree
// bitwise — that is the storage backend's core contract — so a mismatch is
// an error, not a data point. Each wall time is the median of runs fits,
// and each mmap run opens the store afresh, with a cold shard cache.
func benchStore(n, k, epochs, runs int, seed int64, stderr io.Writer) ([]StoreResult, error) {
	const cols, missing = 50, 0.9
	res, err := dataset.Generate(dataset.Spec{
		Name: "Synthetic", N: n, M: cols, L: 2,
		Latents: 5, Bumps: 8, Clusters: 6, Noise: 0.2, Private: 0.3, Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	if _, err := res.Data.Normalize(); err != nil {
		return nil, err
	}
	mask, err := dataset.InjectMissing(res.Data, dataset.MissingSpec{Rate: missing, Seed: seed})
	if err != nil {
		return nil, err
	}
	x := res.Data.X

	cfg := core.Config{
		K: k, Lambda: 0.1, MaxIter: epochs, Tol: 1e-15, Seed: seed,
		Updater: core.SGD, BatchCells: 32768, LearningRate: stochLR,
	}

	dense, denseWall, err := medianFit(runs, func() (*core.Model, error) {
		return core.Fit(x, mask, res.Data.L, core.NMF, cfg)
	})
	if err != nil {
		return nil, err
	}
	denseObj := finalObjective(dense)
	rows := []StoreResult{{
		Rows: n, Cols: cols, MissingRate: missing, Backend: "dense",
		Epochs: dense.Iters, MsPerEpoch: denseWall / float64(dense.Iters),
		FinalObjective: denseObj,
	}}
	fmt.Fprintf(stderr, "smflbench: store N=%-8d dense %8.2f ms/epoch\n", n, rows[0].MsPerEpoch)

	dir, err := os.MkdirTemp("", "smflbench-store-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	if err := store.Write(dir, x, mask, store.WriteOptions{}); err != nil {
		return nil, err
	}
	var diskBytes int64
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		if fi, err := e.Info(); err == nil {
			diskBytes += fi.Size()
		}
	}

	for _, frac := range []float64{1.0, 0.5, 0.25} {
		budget := int64(frac * float64(diskBytes))
		var stats store.Stats
		m, wall, err := medianFit(runs, func() (*core.Model, error) {
			st, err := store.Open(dir, store.Config{MemBudget: budget})
			if err != nil {
				return nil, err
			}
			defer st.Close()
			m, err := core.FitSource(st, res.Data.L, core.NMF, cfg)
			stats = st.Stats()
			return m, err
		})
		if err != nil {
			return nil, err
		}
		obj := finalObjective(m)
		//lint:ignore floatcmp the store sweep's whole point is bit-exact equality with the dense fit
		if obj != denseObj {
			return nil, fmt.Errorf("store sweep: mmap objective %v != dense %v at budget %d — bit-identity broken", obj, denseObj, budget)
		}
		row := StoreResult{
			Rows: n, Cols: cols, MissingRate: missing, Backend: "mmap",
			BudgetFraction: frac, MemBudgetBytes: budget,
			Epochs: m.Iters, MsPerEpoch: wall / float64(m.Iters),
			PeakResident: stats.PeakResident, Evictions: stats.Evictions, ShardMaps: stats.ShardMaps,
			FinalObjective: obj,
		}
		fmt.Fprintf(stderr, "smflbench: store N=%-8d mmap  %8.2f ms/epoch at %.0f%% budget (peak %d, evictions %d)\n",
			n, row.MsPerEpoch, frac*100, row.PeakResident, row.Evictions)
		rows = append(rows, row)
	}
	return rows, nil
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[len(s)/2]
}

func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}
