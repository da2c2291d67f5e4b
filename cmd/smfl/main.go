// Command smfl imputes, repairs or clusters a numeric CSV with spatial
// information in its leading columns.
//
// Usage:
//
//	smfl impute  -in data.csv -out filled.csv [-l 2] [-method SMFL] [-k 10] [-lambda 0.1] [-p 3] [-savemodel m.smfl]
//	smfl repair  -in data.csv -out repaired.csv [-l 2] [-threshold 6] ...
//	smfl cluster -in data.csv [-l 2] [-k 5]
//	smfl foldin  -model m.smfl -in new.csv -out filled.csv [-maxiter 100]
//	smfl convert -in data.csv -out data.smfs [-l 2] [-shard-rows 4096]
//	smfl impute  -in data.smfs -out filled.csv -updater sgd [-mem-budget 256MiB] ...
//
// For impute, empty CSV cells mark the missing values. For repair, dirty
// cells are found with the spatial-outlier detector. The table is min-max
// normalized internally and written back in original units. An -out file
// appears only once it is complete: a run that fails leaves any previous
// file at that path untouched. An -out that names a device or a FIFO, such
// as /dev/null, is written to in place.
//
// Long fits are crash-safe and cancellable: -checkpoint makes impute write an
// atomic training checkpoint every -checkpoint-every iterations (and on
// Ctrl-C / SIGTERM, which stop the fit cleanly), and -resume continues an
// interrupted fit from that checkpoint with a bit-identical trajectory.
//
// Million-row tables train with the stochastic updaters: -updater sgd or
// svrg iterates mini-batches of about -batch-cells observed cells per step,
// and -maxiter caps the epochs (passes over the observed set); checkpoints
// and -resume keep their bit-identical guarantee.
//
// Tables larger than RAM train out of core: convert lays the normalized
// table out as an on-disk shard store (internal/store), and impute given
// that directory as -in streams rows from it through a memory-mapped shard
// cache bounded by -mem-budget. The fit has the bit-identical factors of
// the in-memory fit of the CSV, and the output file is byte-identical to
// it. Checkpoints bind to the store's content hash, so -resume keeps the
// same trajectory guarantee.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"os/signal"
	"strconv"
	"syscall"
	"time"

	"github.com/spatialmf/smfl/internal/atomicfile"
	"github.com/spatialmf/smfl/internal/core"
	"github.com/spatialmf/smfl/internal/dataset"
	"github.com/spatialmf/smfl/internal/faultinject"
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

const usage = "usage: smfl impute|repair|cluster|foldin|convert [flags]"

// run executes one subcommand; factored out of main for tests.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	if len(args) < 1 {
		return errors.New(usage)
	}
	cmd := args[0]
	fs := flag.NewFlagSet(cmd, flag.ContinueOnError)
	fs.SetOutput(stderr)
	in := fs.String("in", "", "input CSV path, or for impute a shard-store directory from smfl convert (required)")
	out := fs.String("out", "", "output CSV path (impute/repair)")
	l := fs.Int("l", 2, "number of leading spatial-information columns")
	methodName := fs.String("method", "SMFL", "NMF | SMF | SMFL")
	k := fs.Int("k", 10, "latent features / landmarks / clusters")
	lambda := fs.Float64("lambda", 0.1, "spatial regularization weight")
	p := fs.Int("p", 3, "spatial nearest neighbors")
	seed := fs.Int64("seed", 1, "RNG seed")
	maxIter := fs.Int("maxiter", 0, "iteration cap, epochs under sgd/svrg; foldin: updates per row (0 = 500 for a fit, the checkpoint's cap with -resume, 100 for foldin)")
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
	spatialIndex := fs.String("spatial-index", "exact", "p-NN graph backend: exact | landmark (sub-quadratic, recommended for large N)")
	memBudget := fs.String("mem-budget", "", "impute from a shard store: resident shard-cache budget, e.g. 256MiB (default)")
	shardRows := fs.Int("shard-rows", 0, "convert: rows per shard (0 = default 4096)")
	verbose := fs.Bool("v", false, "report wall-clock fit time and iteration count")
	if err := fs.Parse(args[1:]); err != nil {
		return err
	}
	if *in == "" {
		return errors.New("-in is required")
	}
	method, err := core.ParseMethod(*methodName)
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
		t, err := readTable(*in, *l)
		if err != nil {
			return err
		}
		if err := store.Write(*out, t.x, t.mask, store.WriteOptions{
			ShardRows: *shardRows, Mins: t.nz.Mins, Maxs: t.nz.Maxs, Columns: t.columns,
		}); err != nil {
			return err
		}
		n, m := t.x.Dims()
		fmt.Fprintf(stderr, "smfl: converted %dx%d table (%d observed cells) into %s\n",
			n, m, t.mask.Count(), *out)

	case "impute":
		t, err := openTable(*in, *l, *memBudget)
		if err != nil {
			return err
		}
		if t.st != nil {
			defer t.st.Close()
		}
		ropts := &core.ResumeOptions{Ctx: ctx, MaxIter: *maxIter, CheckpointEvery: *checkpointEvery}
		start := time.Now()
		var model *core.Model
		switch {
		case t.st != nil && *resume:
			model, err = core.ResumeFitSource(*checkpoint, t.st, ropts)
		case t.st != nil:
			model, err = core.FitSource(t.st, *l, method, cfg)
		case *resume:
			// The normalizer is refit from the same data, so the normalized
			// matrix — and with it the checkpoint hash — reproduces exactly.
			model, err = core.ResumeFit(*checkpoint, t.x, t.mask, ropts)
		default:
			model, err = core.Fit(t.x, t.mask, *l, method, cfg)
		}
		if errors.Is(err, core.ErrInterrupted) && *checkpoint != "" {
			return fmt.Errorf("%w; checkpoint saved, rerun with -resume to continue", err)
		}
		if err != nil {
			return err
		}
		if *verbose {
			fmt.Fprintf(stderr, "smfl: fit took %s (%d iterations)\n", time.Since(start).Round(time.Millisecond), model.Iters)
		}
		filled, err := writeCompleted(*out, stdout, t.columns, model.U, model.V, t.src, t.nz)
		if err != nil {
			return err
		}
		if *saveModel != "" {
			if err := saveArtifact(*saveModel, model, t.nz); err != nil {
				return err
			}
		}
		fmt.Fprintf(stderr, "smfl: imputed %d cells in %d iterations (converged=%v)\n",
			filled, model.Iters, model.Converged)

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
		// The dirty cells are relearned: the fit and the writer treat only
		// their clean complement as observed.
		clean := dirty.Complement()
		start := time.Now()
		model, err := core.Fit(ds.X, clean, ds.L, method, cfg)
		if err != nil {
			return err
		}
		if *verbose {
			fmt.Fprintf(stderr, "smfl: fit took %s (%d iterations)\n", time.Since(start).Round(time.Millisecond), model.Iters)
		}
		repaired, err := writeCompleted(*out, stdout, ds.Columns, model.U, model.V, mat.NewDenseSource(ds.X, clean), nz)
		if err != nil {
			return err
		}
		fmt.Fprintf(stderr, "smfl: repaired %d suspicious cells in %d iterations\n",
			repaired, model.Iters)

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
		ds, mask, err := readMasked(*in, *l)
		if err != nil {
			return err
		}
		// New rows arrive in original units; apply the training
		// normalization, fold in, and map back.
		nz.Apply(ds.X)
		if err := checkNormalized(ds, mask); err != nil {
			return err
		}
		model.Config.Ctx = ctx
		start := time.Now()
		u, err := model.FoldIn(ds.X, mask, *maxIter)
		if err != nil {
			return err
		}
		if *verbose {
			fmt.Fprintf(stderr, "smfl: fold-in took %s\n", time.Since(start).Round(time.Millisecond))
		}
		filled, err := writeCompleted(*out, stdout, ds.Columns, u, model.V, mat.NewDenseSource(ds.X, mask), nz)
		if err != nil {
			return err
		}
		fmt.Fprintf(stderr, "smfl: folded in %d rows, filled %d cells\n", u.Rows(), filled)

	default:
		return fmt.Errorf("unknown command %q\n%s", cmd, usage)
	}
	return nil
}

// table is impute's input: -in opened as a shard store when it is a
// directory and as a CSV with blank cells otherwise. src reads its
// normalized observed cells and nz maps them back to original units. A CSV
// also keeps the normalized table resident in x and mask, the form Fit and
// ResumeFit take; a store is read only through st.
type table struct {
	src     mat.RowSource
	columns []string
	nz      *dataset.Normalizer
	st      *store.Store
	x       *mat.Dense
	mask    *mat.Mask
}

// openTable opens path as impute's input. memBudget bounds a store's
// mapped-shard cache.
func openTable(path string, l int, memBudget string) (*table, error) {
	if fi, err := os.Stat(path); err != nil || !fi.IsDir() {
		t, err := readTable(path, l)
		if err != nil {
			return nil, err
		}
		t.src = mat.NewDenseSource(t.x, t.mask)
		return t, nil
	}
	var scfg store.Config
	if memBudget != "" {
		b, err := store.ParseMemBudget(memBudget)
		if err != nil {
			return nil, err
		}
		scfg.MemBudget = b
	}
	st, err := store.Open(path, scfg)
	if err != nil {
		return nil, err
	}
	mins, maxs, ok := st.Norm()
	if !ok {
		st.Close()
		return nil, errors.New("store carries no normalization stats; re-run smfl convert")
	}
	nz, err := dataset.NewNormalizer(mins, maxs)
	if err != nil {
		st.Close()
		return nil, err
	}
	columns := st.Columns()
	if columns == nil {
		_, m := st.Dims()
		columns = make([]string, m)
		for j := range columns {
			columns[j] = "c" + strconv.Itoa(j)
		}
	}
	return &table{src: st, columns: columns, nz: nz, st: st}, nil
}

// readTable reads a CSV with blank cells and min-max normalizes it in place
// over its observed cells, as convert stores it and impute fits it.
func readTable(path string, l int) (*table, error) {
	ds, mask, err := readMasked(path, l)
	if err != nil {
		return nil, err
	}
	nz, err := dataset.FitNormalizer(ds.X, mask)
	if err != nil {
		return nil, err
	}
	nz.Apply(ds.X)
	return &table{columns: ds.Columns, nz: nz, x: ds.X, mask: mask}, nil
}

// checkNormalized refuses the first observed cell of ds, in row order, that
// the training normalization maps below 0 or to +Inf (or that is NaN),
// naming its row and column, as smfld refuses a request's cell. FoldIn would
// refuse the whole table without saying where.
func checkNormalized(ds *dataset.Dataset, mask *mat.Mask) error {
	n, _ := ds.Dims()
	var cols []int32
	for i := 0; i < n; i++ {
		cols = mask.AppendObservedCols(cols[:0], i)
		for _, j := range cols {
			switch v := ds.X.At(i, int(j)); {
			case v < 0:
				return fmt.Errorf("row %d, column %s: below the training minimum", i, ds.Columns[j])
			case math.IsInf(v, 1):
				return fmt.Errorf("row %d, column %s: overflows the training normalization", i, ds.Columns[j])
			case math.IsNaN(v):
				return fmt.Errorf("row %d, column %s: not a number", i, ds.Columns[j])
			}
		}
	}
	return nil
}

// readMasked reads a CSV whose blank cells mark missing values.
func readMasked(path string, l int) (*dataset.Dataset, *mat.Mask, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	return dataset.ReadCSVMasked(f, path, l)
}

// writeCompleted writes the completed table of Formula 8 as CSV to the file
// out, published through internal/atomicfile only once complete, or streams
// it to stdout when out is empty, and returns the number of cells it filled.
// It computes one row at a time and never holds the N×M table: row i
// of U·V is computed by mat.RowMul, the arithmetic of Mul in Model.Recover
// and CompleteRows, src's observed cells replace it, nz maps it back to
// original units, and Dataset.WriteCSV's row writer encodes it. The output
// therefore matches the library's whole-matrix path byte for byte, whichever
// storage src reads. A NaN or ±Inf answer (an extreme observed value can
// fold in to one) is an error naming its cell, as smfld answers it with a
// 422, never a value in the file.
func writeCompleted(out string, stdout io.Writer, columns []string, u, v *mat.Dense, src mat.RowSource, nz *dataset.Normalizer) (int, error) {
	n, m := src.Dims()
	write := func(w io.Writer) error {
		rw, err := dataset.NewRowWriter(w, columns)
		if err != nil {
			return err
		}
		rd := src.Reader()
		defer rd.Release()
		row := mat.NewDense(1, m)
		pred := row.Row(0)
		for i := 0; i < n; i++ {
			mat.RowMul(pred, u.Row(i), v.Data(), m, 0)
			x, cols := rd.Row(i)
			for _, j := range cols {
				pred[j] = x[j]
			}
			nz.Invert(row)
			for j, val := range pred {
				if math.IsNaN(val) || math.IsInf(val, 0) {
					return fmt.Errorf("row %d, column %s: the answer is not finite: an observed value is too extreme for the model", i, columns[j])
				}
			}
			if err := rw.Write(pred); err != nil {
				return err
			}
		}
		return rw.Flush()
	}
	var err error
	if out == "" {
		err = write(stdout)
	} else {
		err = atomicfile.Write(out, 0o666, write, faultinject.PersistWrite, faultinject.PersistRename, out)
	}
	if err != nil {
		return 0, err
	}
	return n*m - src.NumObserved(), nil
}

func saveArtifact(path string, model *core.Model, nz *dataset.Normalizer) error {
	model.Norm = &core.Norm{Mins: nz.Mins, Maxs: nz.Maxs}
	return model.SaveFile(path)
}

// loadArtifact reads a model written by saveArtifact together with the
// training normalization it carries. A file that opens but does not load
// gets a re-save hint, unless core's wire-version error already gives one.
func loadArtifact(path string) (*core.Model, *dataset.Normalizer, error) {
	model, err := core.LoadFile(path)
	var perr *fs.PathError
	if errors.As(err, &perr) {
		return nil, nil, err
	}
	if errors.Is(err, core.ErrWireVersion) {
		return nil, nil, fmt.Errorf("load model %s: %w", path, err)
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
