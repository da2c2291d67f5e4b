// Command smfl imputes, repairs or clusters a numeric CSV with spatial
// information in its leading columns.
//
// Usage:
//
//	smfl impute  -in data.csv -out filled.csv [-l 2] [-method SMFL] [-k 10] [-lambda 0.1] [-p 3] [-savemodel m.smfl]
//	smfl repair  -in data.csv -out repaired.csv [-l 2] [-threshold 6] ...
//	smfl cluster -in data.csv [-l 2] [-k 5]
//	smfl foldin  -model m.smfl -in new.csv -out filled.csv [-foldin-tol 1e-8]
//	smfl convert -in data.csv -out data.smfs [-l 2] [-shard-rows 4096]
//	smfl impute  -store mmap -in data.smfs -out filled.csv [-mem-budget 256MiB] ...
//
// For impute, empty CSV cells mark the missing values. For repair, dirty
// cells are found with the spatial-outlier detector. The table is min-max
// normalized internally and written back in original units.
//
// Long fits are crash-safe and cancellable: -checkpoint makes impute write an
// atomic training checkpoint every -checkpoint-every iterations (and on
// Ctrl-C / SIGTERM, which stop the fit cleanly), and -resume continues an
// interrupted fit from that checkpoint with a bit-identical trajectory.
//
// Million-row tables train with the stochastic updaters: -updater sgd or
// svrg iterates mini-batches of about -batch-cells observed cells per step,
// capped at -epochs passes over the observed set; checkpoints and -resume
// keep their bit-identical guarantee.
//
// Tables larger than RAM train out of core: convert lays the normalized
// table out as an on-disk shard store (internal/store), and impute with
// -store mmap streams rows from it through a memory-mapped shard cache
// bounded by -mem-budget, producing the bit-identical factors of the
// in-memory fit. Checkpoints bind to the store's content hash, so -resume
// keeps the same trajectory guarantee.
package main

import (
	"context"
	"encoding/csv"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/spatialmf/smfl/internal/core"
	"github.com/spatialmf/smfl/internal/dataset"
	"github.com/spatialmf/smfl/internal/kmeans"
	"github.com/spatialmf/smfl/internal/mat"
	"github.com/spatialmf/smfl/internal/repair"
	"github.com/spatialmf/smfl/internal/store"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout, os.Stderr); err != nil {
		if errors.Is(err, core.ErrInterrupted) {
			fmt.Fprintf(os.Stderr, "smfl: %v\n", err)
			os.Exit(130)
		}
		fmt.Fprintf(os.Stderr, "smfl: %v\n", err)
		os.Exit(1)
	}
}

const usage = "usage: smfl impute|repair|cluster|foldin [flags]"

// run executes one subcommand; factored out of main for tests.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	if len(args) < 1 {
		return errors.New(usage)
	}
	cmd := args[0]
	fs := flag.NewFlagSet(cmd, flag.ContinueOnError)
	fs.SetOutput(stderr)
	in := fs.String("in", "", "input CSV path (required)")
	out := fs.String("out", "", "output CSV path (impute/repair)")
	l := fs.Int("l", 2, "number of leading spatial-information columns")
	methodName := fs.String("method", "SMFL", "NMF | SMF | SMFL")
	k := fs.Int("k", 10, "latent features / landmarks / clusters")
	lambda := fs.Float64("lambda", 0.1, "spatial regularization weight")
	p := fs.Int("p", 3, "spatial nearest neighbors")
	seed := fs.Int64("seed", 1, "RNG seed")
	maxIter := fs.Int("maxiter", 500, "iteration cap")
	epochs := fs.Int("epochs", 0, "epoch cap for stochastic updaters (overrides -maxiter when > 0)")
	tol := fs.Float64("tol", 0, "relative objective-change early stop (0 = default 1e-5)")
	updater := fs.String("updater", "multiplicative", "optimizer: multiplicative | gd | sgd | svrg")
	batchCells := fs.Int("batch-cells", 0, "sgd/svrg: target observed cells per mini-batch (0 = default 32768)")
	learningRate := fs.Float64("lr", 0, "gd/sgd/svrg learning rate (0 = default 1e-3)")
	threshold := fs.Float64("threshold", 6, "repair: outlier detection threshold")
	saveModel := fs.String("savemodel", "", "impute: also save the fitted model here")
	modelPath := fs.String("model", "", "foldin: fitted model written by -savemodel")
	checkpoint := fs.String("checkpoint", "", "impute: write an atomic training checkpoint here")
	checkpointEvery := fs.Int("checkpoint-every", 25, "impute: checkpoint cadence in iterations")
	resume := fs.Bool("resume", false, "impute: continue the fit from -checkpoint instead of starting over")
	foldinTol := fs.Float64("foldin-tol", 0, "foldin: per-row convergence tolerance (0 = model default)")
	spatialIndex := fs.String("spatial-index", "exact", "p-NN graph backend: exact | landmark (sub-quadratic, recommended for large N)")
	storeKind := fs.String("store", "dense", "impute: data backend: dense (in-memory CSV) | mmap (-in is a shard-store directory from smfl convert)")
	memBudget := fs.String("mem-budget", "", "mmap store: resident shard-cache budget, e.g. 256MiB (default)")
	shardRows := fs.Int("shard-rows", 0, "convert: rows per shard (0 = default 4096)")
	verbose := fs.Bool("v", false, "report wall-clock fit time and iteration count")
	if err := fs.Parse(args[1:]); err != nil {
		return err
	}
	if *in == "" {
		return errors.New("-in is required")
	}
	method, err := parseMethod(*methodName)
	if err != nil {
		return err
	}
	six, err := core.ParseSpatialIndex(*spatialIndex)
	if err != nil {
		return err
	}
	up, err := core.ParseUpdater(*updater)
	if err != nil {
		return err
	}
	if *epochs > 0 {
		*maxIter = *epochs // a stochastic iteration is one epoch over Ω
	}
	cfg := core.Config{
		K: *k, Lambda: *lambda, P: *p, Seed: *seed, MaxIter: *maxIter, Tol: *tol,
		Updater: up, BatchCells: *batchCells, LearningRate: *learningRate,
		SpatialIndex: six,
		Ctx:          ctx, CheckpointPath: *checkpoint, CheckpointEvery: *checkpointEvery,
	}
	if *resume && *checkpoint == "" {
		return errors.New("-resume requires -checkpoint")
	}

	switch cmd {
	case "convert":
		if *out == "" {
			return errors.New("convert: -out store directory is required")
		}
		f, err := os.Open(*in)
		if err != nil {
			return err
		}
		ds, mask, err := dataset.ReadCSVMasked(f, *in, *l)
		f.Close()
		if err != nil {
			return err
		}
		nz, err := dataset.FitNormalizer(ds.X, mask)
		if err != nil {
			return err
		}
		nz.Apply(ds.X)
		if err := store.Write(*out, ds.X, mask, store.WriteOptions{
			ShardRows: *shardRows, Mins: nz.Mins, Maxs: nz.Maxs, Columns: ds.Columns,
		}); err != nil {
			return err
		}
		n, m := ds.Dims()
		fmt.Fprintf(stderr, "smfl: converted %dx%d table (%d observed cells) into %s\n",
			n, m, mask.Count(), *out)

	case "impute":
		if *storeKind == "mmap" {
			return imputeFromStore(ctx, storeImputeArgs{
				dir: *in, out: *out, l: *l, method: method, cfg: cfg,
				memBudget: *memBudget, resume: *resume, checkpoint: *checkpoint,
				checkpointEvery: *checkpointEvery, maxIter: *maxIter,
				saveModel: *saveModel, verbose: *verbose,
			}, stdout, stderr)
		}
		if *storeKind != "dense" {
			return fmt.Errorf("unknown -store backend %q (dense | mmap)", *storeKind)
		}
		f, err := os.Open(*in)
		if err != nil {
			return err
		}
		ds, mask, err := dataset.ReadCSVMasked(f, *in, *l)
		f.Close()
		if err != nil {
			return err
		}
		nz, err := dataset.FitNormalizer(ds.X, mask)
		if err != nil {
			return err
		}
		nz.Apply(ds.X)
		start := time.Now()
		var xhat *mat.Dense
		var model *core.Model
		if *resume {
			// The normalizer is refit from the same data, so the normalized
			// matrix — and with it the checkpoint hash — reproduces exactly.
			model, err = core.ResumeFit(*checkpoint, ds.X, mask, &core.ResumeOptions{
				Ctx: ctx, MaxIter: *maxIter, CheckpointEvery: *checkpointEvery,
			})
			if model != nil && err == nil {
				xhat = model.Recover(ds.X, mask)
			}
		} else {
			xhat, model, err = core.Impute(ds.X, mask, ds.L, method, cfg)
		}
		if err != nil {
			if errors.Is(err, core.ErrInterrupted) && *checkpoint != "" {
				return fmt.Errorf("%w; checkpoint saved, rerun with -resume to continue", err)
			}
			return err
		}
		if *verbose {
			fmt.Fprintf(stderr, "smfl: fit took %s (%d iterations)\n", time.Since(start).Round(time.Millisecond), model.Iters)
		}
		nz.Invert(xhat)
		ds.X = xhat
		if err := writeOut(ds, *out, stdout); err != nil {
			return err
		}
		if *saveModel != "" {
			if err := saveArtifact(*saveModel, model, nz); err != nil {
				return err
			}
		}
		fmt.Fprintf(stderr, "smfl: imputed %d cells in %d iterations (converged=%v)\n",
			mask.CountHidden(), model.Iters, model.Converged)

	case "repair":
		ds, err := dataset.LoadCSV(*in, *in, *l)
		if err != nil {
			return err
		}
		nz, err := ds.Normalize()
		if err != nil {
			return err
		}
		det := &repair.SpatialOutlierDetector{Threshold: *threshold}
		dirty, err := det.Detect(ds.X, ds.L)
		if err != nil {
			return err
		}
		start := time.Now()
		repaired, model, err := core.Repair(ds.X, dirty, ds.L, method, cfg)
		if err != nil {
			return err
		}
		if *verbose {
			fmt.Fprintf(stderr, "smfl: fit took %s (%d iterations)\n", time.Since(start).Round(time.Millisecond), model.Iters)
		}
		nz.Invert(repaired)
		ds.X = repaired
		if err := writeOut(ds, *out, stdout); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "smfl: repaired %d suspicious cells in %d iterations\n",
			dirty.Count(), model.Iters)

	case "cluster":
		ds, err := dataset.LoadCSV(*in, *in, *l)
		if err != nil {
			return err
		}
		if _, err := ds.Normalize(); err != nil {
			return err
		}
		// The table is complete here (ReadCSV rejects holes), so the MF
		// clustering application reduces to k-means on the normalized rows;
		// the MF fit is still reported so the user can judge the factorization.
		start := time.Now()
		model, err := core.Fit(ds.X, nil, ds.L, method, cfg)
		if err != nil {
			return err
		}
		if *verbose {
			fmt.Fprintf(stderr, "smfl: fit took %s (%d iterations)\n", time.Since(start).Round(time.Millisecond), model.Iters)
		}
		res, err := kmeans.Run(ds.X, kmeans.Config{K: *k, Seed: *seed, Restarts: 3})
		if err != nil {
			return err
		}
		for i, lab := range res.Labels {
			fmt.Fprintf(stdout, "%d,%d\n", i, lab)
		}
		fmt.Fprintf(stderr, "smfl: %s fit converged=%v in %d iterations; k-means cost %.4f\n",
			model.Method, model.Converged, model.Iters, res.Cost)

	case "foldin":
		if *modelPath == "" {
			return errors.New("foldin: -model is required")
		}
		model, nz, err := loadArtifact(*modelPath)
		if err != nil {
			return err
		}
		f, err := os.Open(*in)
		if err != nil {
			return err
		}
		ds, mask, err := dataset.ReadCSVMasked(f, *in, *l)
		f.Close()
		if err != nil {
			return err
		}
		// New rows arrive in original units; apply the training
		// normalization, complete, and map back.
		nz.Apply(ds.X)
		if *foldinTol > 0 {
			model.Config.FoldInTol = *foldinTol
		}
		model.Config.Ctx = ctx
		start := time.Now()
		completed, err := model.CompleteRows(ds.X, mask, *maxIter)
		if err != nil {
			return err
		}
		if *verbose {
			fmt.Fprintf(stderr, "smfl: fold-in took %s\n", time.Since(start).Round(time.Millisecond))
		}
		nz.Invert(completed)
		ds.X = completed
		if err := writeOut(ds, *out, stdout); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "smfl: folded in %d rows, filled %d cells\n",
			ds.X.Rows(), mask.CountHidden())

	default:
		return fmt.Errorf("unknown command %q\n%s", cmd, usage)
	}
	return nil
}

// storeImputeArgs bundles the impute flags relevant to the mmap backend.
type storeImputeArgs struct {
	dir, out        string
	l               int
	method          core.Method
	cfg             core.Config
	memBudget       string
	resume          bool
	checkpoint      string
	checkpointEvery int
	maxIter         int
	saveModel       string
	verbose         bool
}

// imputeFromStore is the out-of-core impute path: it fits (or resumes)
// directly over a shard store written by smfl convert and streams the
// completed table to CSV row by row, so peak memory stays at the factors
// plus the store's shard-cache budget — the full N×M table is never
// materialized.
func imputeFromStore(ctx context.Context, a storeImputeArgs, stdout, stderr io.Writer) error {
	scfg := store.Config{}
	if a.memBudget != "" {
		b, err := store.ParseMemBudget(a.memBudget)
		if err != nil {
			return err
		}
		scfg.MemBudget = b
	}
	st, err := store.Open(a.dir, scfg)
	if err != nil {
		return err
	}
	defer st.Close()
	mins, maxs, ok := st.Norm()
	if !ok {
		return errors.New("store carries no normalization stats; re-run smfl convert")
	}
	nz, err := dataset.NewNormalizer(mins, maxs)
	if err != nil {
		return err
	}

	start := time.Now()
	var model *core.Model
	if a.resume {
		model, err = core.ResumeFitSource(a.checkpoint, st, &core.ResumeOptions{
			Ctx: ctx, MaxIter: a.maxIter, CheckpointEvery: a.checkpointEvery,
		})
	} else {
		model, err = core.FitSource(st, a.l, a.method, a.cfg)
	}
	if err != nil {
		if errors.Is(err, core.ErrInterrupted) && a.checkpoint != "" {
			return fmt.Errorf("%w; checkpoint saved, rerun with -resume to continue", err)
		}
		return err
	}
	if a.verbose {
		fmt.Fprintf(stderr, "smfl: fit took %s (%d iterations)\n", time.Since(start).Round(time.Millisecond), model.Iters)
	}

	w := stdout
	if a.out != "" {
		f, err := os.Create(a.out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	n, m := st.Dims()
	names := st.Columns()
	if names == nil {
		names = make([]string, m)
		for j := range names {
			names[j] = "c" + strconv.Itoa(j)
		}
	}
	cw := csv.NewWriter(w)
	if err := cw.Write(names); err != nil {
		return err
	}
	// Stream one completed row at a time: prediction u_i·V, observed cells
	// restored from the store, both mapped back to original units.
	rd := st.Reader()
	defer rd.Release()
	k, _ := model.V.Dims()
	vd := model.V.Data()
	rowBuf := mat.NewDense(1, m)
	pred := rowBuf.Row(0)
	rec := make([]string, m)
	hidden := 0
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
		hidden += m - len(cols)
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

	if a.saveModel != "" {
		if err := saveArtifact(a.saveModel, model, nz); err != nil {
			return err
		}
	}
	fmt.Fprintf(stderr, "smfl: imputed %d cells in %d iterations (converged=%v)\n",
		hidden, model.Iters, model.Converged)
	return nil
}

func parseMethod(s string) (core.Method, error) {
	switch strings.ToUpper(s) {
	case "NMF":
		return core.NMF, nil
	case "SMF":
		return core.SMF, nil
	case "SMFL":
		return core.SMFL, nil
	}
	return 0, fmt.Errorf("unknown method %q", s)
}

func saveArtifact(path string, model *core.Model, nz *dataset.Normalizer) error {
	model.Norm = &core.Norm{Mins: nz.Mins, Maxs: nz.Maxs}
	return model.SaveFile(path)
}

// loadArtifact reads a model written by saveArtifact together with the
// training normalization it carries. A file that opens but does not load is
// most likely from an older smfl, so that error carries a re-save hint.
func loadArtifact(path string) (*core.Model, *dataset.Normalizer, error) {
	model, err := core.LoadFile(path)
	var perr *fs.PathError
	if errors.As(err, &perr) {
		return nil, nil, err
	}
	if err != nil {
		return nil, nil, fmt.Errorf("load model %s: %w (re-save it with smfl impute -savemodel)", path, err)
	}
	if model.Norm == nil {
		return nil, nil, errors.New("model file carries no normalization stats; refit with a current smfl -savemodel")
	}
	nz, err := dataset.NewNormalizer(model.Norm.Mins, model.Norm.Maxs)
	if err != nil {
		return nil, nil, err
	}
	return model, nz, nil
}

func writeOut(ds *dataset.Dataset, out string, stdout io.Writer) error {
	if out == "" {
		return ds.WriteCSV(stdout)
	}
	return ds.SaveCSV(out)
}
