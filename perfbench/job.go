package main

import (
	"encoding/csv"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"os"
	"strconv"
	"time"

	"github.com/spatialmf/smfl/internal/core"
	"github.com/spatialmf/smfl/internal/dataset"
	"github.com/spatialmf/smfl/internal/kmeans"
	"github.com/spatialmf/smfl/internal/landmark"
	"github.com/spatialmf/smfl/internal/mat"
	"github.com/spatialmf/smfl/internal/spatial"
	"github.com/spatialmf/smfl/internal/store"
)

// A fit job is one child process doing what one CLI invocation does, so its
// peak RSS and GC belong to the measured program. The orchestrator runs jobs
// back to back with SMFL_WORKERS=1: counts then repeat exactly and a job
// needs one core. A job prints one JSON line, its jobReport, on stdout.

const siCols = 2 // both table shapes carry two spatial-information columns

// denseConfig is `smfl impute` with its CLI defaults (-k 10 -lambda 0.1 -p 3
// -seed 1 -updater multiplicative -spatial-index exact), except -maxiter.
func denseConfig() core.Config {
	return core.Config{
		K: 10, Lambda: 0.1, P: 3, Seed: 1, MaxIter: denseMaxIter,
		Updater: core.Multiplicative, SpatialIndex: core.SpatialExact,
		CheckpointEvery: 25,
	}
}

// storeConfig is `smfl impute -store mmap -spatial-index landmark -updater
// sgd -epochs storeEpochs` with the remaining CLI defaults.
func storeConfig() core.Config {
	return core.Config{
		K: 10, Lambda: 0.1, P: 3, Seed: 1, MaxIter: storeEpochs,
		Updater: core.SGD, SpatialIndex: core.SpatialLandmark,
		CheckpointEvery: 25,
	}
}

// jobReport is what a job process prints.
type jobReport struct {
	PipelineS float64            `json:"pipeline_s"`     // open input → .smfl written
	Objective uint64             `json:"objective_bits"` // Float64bits of the final objective
	Factors   uint64             `json:"factor_hash"`    // FNV-1a over U, V, C bits
	Workers   int                `json:"workers"`
	CalS      []float64          `json:"cal_s"` // calibrate before and after the pipeline
	Spans     []Span             `json:"spans,omitempty"`
	Layer     map[string]float64 `json:"layer,omitempty"`
}

// jobMain runs one job subcommand: job-dense or job-store.
func jobMain(kind string, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet(kind, flag.ContinueOnError)
	fs.SetOutput(stderr)
	in := fs.String("in", "", "input CSV (job-dense) or shard-store directory (job-store)")
	out := fs.String("out", "", "imputed CSV to write")
	modelPath := fs.String("model", "", ".smfl to write")
	budget := fs.Int64("mem-budget", 0, "job-store: shard-cache budget in bytes")
	trace := fs.String("trace", "", "record spans under this trace id and replay the layer calls")
	base := fs.Int64("span-base", 0, "first span id")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var tr *tracer
	if *trace != "" {
		tr = newTracer(*base)
	}
	var rep jobReport
	var err error
	before := calibrate()
	if kind == "job-dense" {
		rep, err = denseJob(*in, *out, *modelPath, tr, *trace)
	} else {
		rep, err = storeJob(*in, *out, *modelPath, *budget, tr, *trace)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench %s: %v\n", kind, err)
		return 1
	}
	rep.CalS = []float64{before.Seconds(), calibrate().Seconds()}
	rep.Workers = mat.Workers()
	rep.Spans = tr.take()
	if err := json.NewEncoder(stdout).Encode(rep); err != nil {
		fmt.Fprintf(stderr, "perfbench %s: %v\n", kind, err)
		return 1
	}
	return 0
}

// denseJob is the `smfl impute` dense path: read the CSV with blank cells,
// normalize, fit, recover, write the imputed CSV and save the model. With a
// tracer it records the job's span chain and afterwards replays the layer
// calls the fit made internally.
func denseJob(in, out, modelPath string, tr *tracer, trace string) (jobReport, error) {
	cfg := denseConfig()
	start := time.Now()
	job := tr.begin(trace, 0, "job")
	jid := job.ID()

	sp := tr.begin(trace, jid, "dataset.read_csv")
	f, err := os.Open(in)
	if err != nil {
		return jobReport{}, err
	}
	ds, mask, err := dataset.ReadCSVMasked(f, in, siCols)
	f.Close()
	if err != nil {
		return jobReport{}, err
	}
	sp.end(nil)

	sp = tr.begin(trace, jid, "dataset.normalize")
	nz, err := dataset.FitNormalizer(ds.X, mask)
	if err != nil {
		return jobReport{}, err
	}
	nz.Apply(ds.X)
	sp.end(nil)

	// core.Impute is exactly Fit followed by Recover; calling the two
	// separately lets the traced run time them apart.
	x := ds.X
	sp = tr.begin(trace, jid, "core.fit")
	model, err := core.Fit(x, mask, ds.L, core.SMFL, cfg)
	if err != nil {
		return jobReport{}, err
	}
	sp.end(map[string]float64{"iters": float64(model.Iters)})

	sp = tr.begin(trace, jid, "core.recover")
	xhat := model.Recover(x, mask)
	nz.Invert(xhat)
	sp.end(nil)

	sp = tr.begin(trace, jid, "dataset.write_csv")
	ds.X = xhat
	if err := ds.SaveCSV(out); err != nil {
		return jobReport{}, err
	}
	sp.end(nil)

	sp = tr.begin(trace, jid, "core.save")
	model.Norm = &core.Norm{Mins: nz.Mins, Maxs: nz.Maxs}
	if err := model.SaveFile(modelPath); err != nil {
		return jobReport{}, err
	}
	sp.end(nil)
	elapsed := time.Since(start)
	job.end(nil)

	rep := jobReport{
		PipelineS: elapsed.Seconds(),
		Objective: math.Float64bits(model.Objective[len(model.Objective)-1]),
		Factors:   factorHash(model),
	}
	if tr != nil {
		if rep.Layer, err = replayDense(tr, trace, x, mask, model, cfg); err != nil {
			return rep, fmt.Errorf("replay: %w", err)
		}
		if fi, err := os.Stat(modelPath); err == nil {
			rep.Layer["core.save_bytes"] = float64(fi.Size())
		}
	}
	return rep, nil
}

// storeJob is the `smfl impute -store mmap` path: open the shard store under
// a memory budget, fit from it, stream the imputed rows to CSV and save.
func storeJob(dir, out, modelPath string, budget int64, tr *tracer, trace string) (jobReport, error) {
	cfg := storeConfig()
	start := time.Now()
	job := tr.begin(trace, 0, "job")
	jid := job.ID()

	sp := tr.begin(trace, jid, "store.open")
	st, err := store.Open(dir, store.Config{MemBudget: budget})
	if err != nil {
		return jobReport{}, err
	}
	defer st.Close()
	mins, maxs, ok := st.Norm()
	if !ok {
		return jobReport{}, errors.New("store carries no normalization stats")
	}
	nz, err := dataset.NewNormalizer(mins, maxs)
	if err != nil {
		return jobReport{}, err
	}
	sp.end(nil)

	before := st.Stats()
	sp = tr.begin(trace, jid, "core.fitsource")
	model, err := core.FitSource(st, siCols, core.SMFL, cfg)
	if err != nil {
		return jobReport{}, err
	}
	after := st.Stats()
	sp.end(map[string]float64{
		"epochs":     float64(model.Iters),
		"shard_maps": float64(after.ShardMaps - before.ShardMaps),
		"evictions":  float64(after.Evictions - before.Evictions),
	})

	sp = tr.begin(trace, jid, "core.stream")
	if err := streamImputed(st, model, nz, out); err != nil {
		return jobReport{}, err
	}
	sp.end(nil)

	sp = tr.begin(trace, jid, "core.save")
	model.Norm = &core.Norm{Mins: nz.Mins, Maxs: nz.Maxs}
	if err := model.SaveFile(modelPath); err != nil {
		return jobReport{}, err
	}
	sp.end(nil)
	elapsed := time.Since(start)
	job.end(nil)

	rep := jobReport{
		PipelineS: elapsed.Seconds(),
		Objective: math.Float64bits(model.Objective[len(model.Objective)-1]),
		Factors:   factorHash(model),
	}
	if tr != nil {
		n, _ := st.Dims()
		shards := float64((n + st.ShardRows() - 1) / st.ShardRows())
		maps := float64(after.ShardMaps - before.ShardMaps)
		if rep.Layer, err = replayStore(tr, trace, st, model, cfg); err != nil {
			return rep, fmt.Errorf("replay: %w", err)
		}
		rep.Layer["store.shard_maps"] = maps
		rep.Layer["store.evictions"] = float64(after.Evictions - before.Evictions)
		rep.Layer["store.shards"] = shards
		rep.Layer["store.maps_per_shard_epoch"] = maps / (shards * float64(model.Iters))
		rep.Layer["store.peak_resident_mb"] = float64(after.PeakResident) / (1 << 20)
		if fi, err := os.Stat(modelPath); err == nil {
			rep.Layer["core.save_bytes"] = float64(fi.Size())
		}
	}
	return rep, nil
}

// streamImputed mirrors the CLI's streaming imputer: one completed row at a
// time, prediction u_i·V with observed cells restored from the store, mapped
// back to original units.
func streamImputed(st *store.Store, model *core.Model, nz *dataset.Normalizer, out string) error {
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	defer f.Close()
	n, m := st.Dims()
	names := st.Columns()
	if names == nil {
		names = make([]string, m)
		for j := range names {
			names[j] = "c" + strconv.Itoa(j)
		}
	}
	cw := csv.NewWriter(f)
	if err := cw.Write(names); err != nil {
		return err
	}
	rd := st.Reader()
	defer rd.Release()
	k, _ := model.V.Dims()
	vd := model.V.Data()
	rowBuf := mat.NewDense(1, m)
	pred := rowBuf.Row(0)
	rec := make([]string, m)
	for i := 0; i < n; i++ {
		ui := model.U.Row(i)
		for j := 0; j < m; j++ {
			s := 0.0
			for r := 0; r < k; r++ {
				s += ui[r] * vd[r*m+j]
			}
			pred[j] = s
		}
		xi, cols := rd.Row(i)
		for _, j := range cols {
			pred[j] = xi[j]
		}
		nz.Invert(rowBuf)
		for j := 0; j < m; j++ {
			rec[j] = strconv.FormatFloat(pred[j], 'g', -1, 64)
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return err
	}
	return f.Close()
}

// factorHash fingerprints a model's factors bit for bit.
func factorHash(m *core.Model) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, d := range []*mat.Dense{m.U, m.V, m.C} {
		if d == nil {
			continue
		}
		r, c := d.Dims()
		for _, v := range []uint64{uint64(r), uint64(c)} {
			putU64(buf[:], v)
			h.Write(buf[:])
		}
		for _, v := range d.Data() {
			putU64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	return h.Sum64()
}

func putU64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}

// Replays. The calls a fit makes inside core.Fit and core.FitSource are
// invisible from outside, so a traced job re-runs them on its own inputs
// after the job span has closed, each under its own span. Kernels are timed
// over kernelReps calls and reported as the median call.

const kernelReps = 15

// timeCalls runs fn reps times under spans named name and returns the
// median call duration, stopping at the first error.
func timeCalls(tr *tracer, trace string, parent int64, name string, reps int, fn func() error) (time.Duration, error) {
	durs := make([]float64, reps)
	for i := range durs {
		sp := tr.begin(trace, parent, name)
		t0 := time.Now()
		err := fn()
		durs[i] = float64(time.Since(t0))
		sp.end(nil)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
	}
	return time.Duration(median(durs)), nil
}

// kernel adapts a call that cannot fail to timeCalls.
func kernel(fn func()) func() error { return func() error { fn(); return nil } }

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// replayDense re-runs the dense fit's internal layer calls: the exact p-NN
// graph, K-means landmarks, and the per-iteration kernels at the fit's
// shapes.
func replayDense(tr *tracer, trace string, x *mat.Dense, mask *mat.Mask, model *core.Model, cfg core.Config) (map[string]float64, error) {
	root := tr.begin(trace, 0, "replay")
	rid := root.ID()
	defer root.end(nil)
	layer := make(map[string]float64)
	n, m := x.Dims()
	k := cfg.K

	si := x.Slice(0, n, 0, siCols) // SI is fully observed in the benchmark tables
	var g *spatial.Graph
	d, err := timeCalls(tr, trace, rid, "spatial.graph", 1, func() (err error) {
		g, err = spatial.BuildGraph(si, cfg.P, cfg.GraphMode)
		return err
	})
	if err != nil {
		return nil, err
	}
	layer["spatial.graph_ms"] = ms(d)
	layer["spatial.edges"] = float64(g.Edges())

	var km *kmeans.Result
	if d, err = timeCalls(tr, trace, rid, "kmeans.run", 1, func() (err error) {
		km, err = kmeans.Run(si, kmeans.Config{K: k, MaxIter: kmeans.DefaultMaxIter, Seed: cfg.Seed, Restarts: 1})
		return err
	}); err != nil {
		return nil, err
	}
	layer["kmeans.run_ms"] = ms(d)
	layer["kmeans.iters"] = float64(km.Iters)

	rx := mask.Project(nil, x)
	lu := mat.NewDense(n, k)
	uv := mat.NewDense(n, m)
	numU := mat.NewDense(n, k)
	for _, kc := range []struct {
		name string
		fn   func()
	}{
		{"spatial.mull", func() { g.MulL(lu, model.U) }},
		{"mat.projectmul", func() { mask.ProjectMul(uv, model.U, model.V) }},
		{"mat.mulbtobs", func() { mask.MulBTObserved(numU, rx, model.V) }},
		{"mat.frob2mul", func() { mask.MaskedFrob2Mul(x, model.U, model.V) }},
	} {
		d, _ := timeCalls(tr, trace, rid, kc.name, kernelReps, kernel(kc.fn))
		layer[kc.name+"_us"] = us(d)
	}

	omega := float64(mask.Count())
	flops, bytes := multiplicativeIterCost(float64(n), float64(m), float64(k), omega, float64(g.Edges()))
	layer["mat.observed_cells"] = omega
	layer["mat.flops_per_iter"] = flops
	layer["mat.bytes_per_iter"] = bytes
	return layer, nil
}

// multiplicativeIterCost is the computed (not measured) work of one
// multiplicative SMFL iteration from its shapes: six |Ω|·K gathers (two
// ProjectMul, two MulBTObserved, two column-restricted AᵀB), the fused
// objective, the D/W graph products and the quadratic form over E edges,
// and the element-wise U/V updates. Bytes count each gather's value and
// column index (12 B per observed cell) plus one read and one write of the
// N×K factor it touches, and the graph passes' N×K reads per edge endpoint.
func multiplicativeIterCost(n, m, k, omega, edges float64) (flops, bytes float64) {
	gather := 2 * k * omega
	flops = 6*gather + (2*k+3)*omega + 2*(n+2*edges)*k + 3*edges*k + 4*n*k + 3*n*k + 3*k*m
	bytes = 6*(12*omega+16*n*k) + 12*omega + 2*8*(n+2*edges)*k + 8*(n+2*edges)*k
	return flops, bytes
}

// replayStore re-runs the store fit's internal layer calls: the landmark
// index, its p-NN graph and coreset K-means, the per-epoch spatial pull, and
// the sampler and stochastic kernel over the opened store.
func replayStore(tr *tracer, trace string, st *store.Store, model *core.Model, cfg core.Config) (map[string]float64, error) {
	root := tr.begin(trace, 0, "replay")
	rid := root.ID()
	defer root.end(nil)
	layer := make(map[string]float64)
	n, m := st.Dims()
	k := cfg.K

	// The SI block, streamed from the store as the fit does (SI cells are
	// fully observed in the benchmark table).
	si := mat.NewDense(n, siCols)
	rd := st.Reader()
	for i := 0; i < n; i++ {
		xi, _ := rd.Row(i)
		copy(si.Row(i), xi[:siCols])
	}
	rd.Release()

	var ix *landmark.Index
	d, err := timeCalls(tr, trace, rid, "landmark.build", 1, func() (err error) {
		ix, err = landmark.Build(si, landmark.Config{Seed: cfg.Seed, MinLandmarks: k})
		return err
	})
	if err != nil {
		return nil, err
	}
	layer["landmark.build_ms"] = ms(d)
	var g *spatial.Graph
	if d, err = timeCalls(tr, trace, rid, "landmark.pnn", 1, func() (err error) {
		g, err = ix.PNNGraph(cfg.P)
		return err
	}); err != nil {
		return nil, err
	}
	layer["landmark.pnn_ms"] = ms(d)
	layer["spatial.edges"] = float64(g.Edges())
	if d, err = timeCalls(tr, trace, rid, "landmark.kcenters", 1, func() error {
		_, err := ix.KCenters(k, kmeans.DefaultMaxIter, cfg.Seed)
		return err
	}); err != nil {
		return nil, err
	}
	layer["landmark.kcenters_ms"] = ms(d)

	lu := mat.NewDense(n, k)
	d, _ = timeCalls(tr, trace, rid, "spatial.mull", kernelReps, kernel(func() { g.MulL(lu, model.U) }))
	layer["spatial.mull_us"] = us(d)

	// The stochastic fit's defaults: 32768-cell batches, learning rate 1e-3.
	sampler := mat.NewBatchSamplerSource(st, 32768, uint64(cfg.Seed))
	d, _ = timeCalls(tr, trace, rid, "mat.reshuffle", kernelReps, kernel(sampler.Reshuffle))
	layer["mat.reshuffle_us"] = us(d)
	layer["mat.batches_per_epoch"] = float64(sampler.NumBatches())
	layer["mat.observed_cells"] = float64(st.NumObserved())

	u, v := model.U.Clone(), model.V.Clone()
	gv := mat.NewDense(k, m)
	sc := mat.NewBatchScratch()
	rows := sampler.Batch(0)
	d, _ = timeCalls(tr, trace, rid, "mat.stochstep", kernelReps, kernel(func() {
		mat.StochasticStepSource(st, gv, u, v, rows, 1e-3, siCols, nil, nil, sc)
	}))
	layer["mat.stochstep_us"] = us(d)
	return layer, nil
}
