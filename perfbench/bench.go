package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"syscall"
	"time"

	"github.com/spatialmf/smfl/internal/core"
	"github.com/spatialmf/smfl/internal/dataset"
	"github.com/spatialmf/smfl/internal/mat"
	"github.com/spatialmf/smfl/internal/store"
)

// Run plan. A run measures for --seconds: the fit workloads run jobs back
// to back for all of it; serve-impute serves at the fixed rate for all of it
// untraced, and a traced run spends fixedShare of it there and the rest on
// the loadgen.slo_rps ladder.
const (
	setupReps     = 5               // set-ups per run, at least; setup_s is their median
	setupSpan     = 2 * time.Second // set-up time per run, at least
	minJobs       = 3               // fit jobs per run, at least
	fixedShare    = 0.5             // share of a traced serve-impute run at the fixed rate
	fixedRate     = 50              // offered req/s of the fixed-rate phase, well below the knee
	heavyShare    = 0.15            // share of heavy requests in the mix
	sloStart      = 150             // first rate of the slo_rps ladder, req/s
	sloRatio      = 1.5             // rate ratio between steps of the ladder
	sloStepDur    = 2500 * time.Millisecond
	lightP90Limit = 25 * time.Millisecond
	failLatency   = 10 * time.Second // a failed request's latency: over any limit
	warmup        = 500 * time.Millisecond
)

// runner is one benchmark run of one workload.
type runner struct {
	workload string
	seed     int64
	seconds  int
	traced   bool
	self     string // this executable, re-run for jobs and the server
	work     string // scratch directory of this run
	stderr   io.Writer

	tr       *tracer              // orchestrator spans (traced runs only)
	spans    []Span               // every span of the run, children's included
	layer    map[string][]float64 // per-layer samples; the median is reported
	e2e      map[string]float64
	notes    map[string]string // how an end-to-end metric was taken, printed beside it
	jobOK    int
	jobN     int
	reqOK    int
	reqN     int
	problems []string // failed output checks
	workers  int      // default pool width, before any SetWorkers
}

func (r *runner) problem(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	r.problems = append(r.problems, msg)
	fmt.Fprintf(r.stderr, "perfbench: check failed: %s\n", msg)
}

func (r *runner) sample(name string, v float64) {
	r.layer[name] = append(r.layer[name], v)
}

func (r *runner) measured() time.Duration { return time.Duration(r.seconds) * time.Second }

// result is the last line a run prints on stdout.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runWorkload runs one workload end to end and returns its result line.
func runWorkload(ctx context.Context, r *runner) (*result, error) {
	r.layer = make(map[string][]float64)
	r.e2e = make(map[string]float64)
	r.notes = make(map[string]string)
	r.workers = mat.Workers()
	if r.traced {
		r.tr = newTracer(1 << 36)
	}
	var err error
	switch r.workload {
	case "fit-dense":
		err = r.fitDense(ctx)
	case "fit-store":
		err = r.fitStore(ctx)
	case "serve-impute":
		err = r.serveImpute(ctx)
	default:
		return nil, fmt.Errorf("unknown workload %q (want fit-dense, fit-store or serve-impute)", r.workload)
	}
	if err != nil {
		return nil, err
	}
	if r.workload == "serve-impute" {
		// The measured work runs in the server, at its default pool width.
		r.layer["mat.workers"] = []float64{float64(r.workers)}
	}

	res := &result{
		Correct:   len(r.problems) == 0,
		Attempted: r.jobN + r.reqN,
		Failed:    (r.jobN - r.jobOK) + (r.reqN - r.reqOK),
		Metrics:   make(map[string]metric),
	}
	specs := endToEnd
	values := r.e2e
	if r.traced {
		specs = perLayer
		values = r.layerValues()
	}
	for _, s := range specs {
		v, ok := values[s.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			if !r.traced {
				return nil, fmt.Errorf("metric %s was not measured", s.Name)
			}
			v = 0 // a layer this workload's path does not call does no work
		}
		res.Metrics[s.Name] = metric{Value: v, Unit: s.Unit}
	}
	r.report(res)
	if r.traced {
		r.spans = append(r.spans, r.tr.take()...)
		path := filepath.Join(filepath.Dir(r.work), fmt.Sprintf("trace-%s-%d.jsonl", r.workload, r.seed))
		meta := traceFile{Workload: r.workload, Seed: r.seed, Metrics: values}
		if err := writeTrace(path, r.spans, meta); err != nil {
			return nil, err
		}
		summarize(r.stderr, r.spans, meta)
		fmt.Fprintf(r.stderr, "trace written to %s (read it again with: perfbench trace-summary %s)\n", path, path)
	}
	return res, nil
}

// layerValues reduces the per-layer samples to medians and derives the
// per-iteration and per-epoch figures.
func (r *runner) layerValues() map[string]float64 {
	v := make(map[string]float64, len(r.layer))
	for k, xs := range r.layer {
		v[k] = median(xs)
	}
	if it := v["core.iters"]; it > 0 {
		v["core.iter_ms"] = (v["core.fit_ms"] - v["spatial.graph_ms"] - v["kmeans.run_ms"]) / it
	}
	if ep := v["core.epochs"]; ep > 0 {
		v["core.epoch_ms"] = (v["core.fitsource_ms"] - v["landmark.build_ms"] - v["landmark.pnn_ms"] - v["landmark.kcenters_ms"]) / ep
	}
	v["trace.spans"] = float64(len(r.spans) + len(r.tr.spans))
	return v
}

// report prints the human-readable table on stderr.
func (r *runner) report(res *result) {
	fmt.Fprintf(r.stderr, "perfbench %s seed %d (%ds, trace=%v): correct=%v attempted=%d failed=%d\n",
		r.workload, r.seed, r.seconds, r.traced, res.Correct, res.Attempted, res.Failed)
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		m := res.Metrics[k]
		extra := ""
		if n, ok := r.notes[k]; ok {
			extra = "  (" + n + ")"
		}
		fmt.Fprintf(r.stderr, "  %-34s %14.6g %s%s\n", k, m.Value, m.Unit, extra)
	}
}

// ---- child processes ----

// child prepares a command running this executable; a child dies with the
// orchestrator even if the orchestrator is killed.
func (r *runner) child(ctx context.Context, args ...string) *exec.Cmd {
	cmd := exec.CommandContext(ctx, r.self, args...)
	cmd.Stderr = r.stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	return cmd
}

func maxRSSMB(ps *os.ProcessState) float64 {
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		return float64(ru.Maxrss) / 1024 // kilobytes on Linux
	}
	return math.NaN()
}

// runJob runs one fit job process with one pool worker.
func (r *runner) runJob(ctx context.Context, kind string, args []string) (jobReport, float64, error) {
	cmd := r.child(ctx, append([]string{kind}, args...)...)
	cmd.Env = append(os.Environ(), "SMFL_WORKERS=1")
	var out bytes.Buffer
	cmd.Stdout = &out
	if err := cmd.Run(); err != nil {
		return jobReport{}, 0, fmt.Errorf("%s: %w", kind, err)
	}
	var rep jobReport
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		return jobReport{}, 0, fmt.Errorf("%s: report: %w", kind, err)
	}
	return rep, maxRSSMB(cmd.ProcessState), nil
}

// jobArgs adds the tracing flags to a job's arguments on traced jobs: in a
// traced run every other job records spans, so the run can compare traced
// and untraced jobs to report the tracing overhead.
func (r *runner) jobArgs(args []string, i int) ([]string, bool) {
	if !r.traced || i%2 == 0 {
		return args, false
	}
	return append(append([]string(nil), args...), "-trace", fmt.Sprintf("job-%d", i), "-span-base", strconv.FormatInt(int64(i+1)<<32, 10)), true
}

// collectJob records a traced job's spans and layer samples.
func (r *runner) collectJob(rep jobReport) {
	r.spans = append(r.spans, rep.Spans...)
	for k, v := range rep.Layer {
		r.sample(k, v)
	}
	for _, s := range rep.Spans {
		d := ms(s.Dur())
		switch s.Name {
		case "dataset.read_csv", "dataset.write_csv", "core.fit", "core.fitsource", "core.save", "store.open":
			r.sample(s.Name+"_ms", d)
		case "core.recover", "core.stream":
			r.sample("core.recover_ms", d)
		}
		if it, ok := s.Counts["iters"]; ok {
			r.sample("core.iters", it)
		}
		if ep, ok := s.Counts["epochs"]; ok {
			r.sample("core.epochs", ep)
		}
	}
	r.sample("mat.workers", float64(rep.Workers))
}

// moreSetups reports whether a run that has done rep set-ups, taking
// setups seconds, does another: a short set-up is repeated over setupSpan,
// so its median spans several of the host's fast and slow modes.
func moreSetups(rep int, setups []float64) bool {
	var spent float64
	for _, s := range setups {
		spent += s
	}
	return rep < setupReps || (spent < setupSpan.Seconds() && rep < 500)
}

// setSetup sets setup_s to the median set-up time scaled to the reference
// host speed by the calibrations run around the set-ups (serve-impute adds
// its set-up jobs' own, around the fit that dominates its set-up).
func (r *runner) setSetup(setups, cal []float64) {
	scale := hostScale(cal)
	r.e2e["setup_s"] = median(setups) * scale
	r.notes["setup_s"] = fmt.Sprintf("median of %d set-ups: %.4f s at host scale %.3f", len(setups), median(setups), scale)
}

// fitJobs runs jobs back to back until budget of job wall time is spent,
// checking each job's outputs with check. It sets latency_ms to the median
// untraced job, from opening the input to the .smfl written, scaled to the
// reference host speed by the calibrations each job process ran around its
// pipeline, and max_rss_mb to the mean peak RSS over the job processes:
// identical jobs land in one of a few RSS levels depending on when the GC
// ran, so a median flips between levels from run to run while the mean
// moves only with their mix. The last successful job's report is returned.
func (r *runner) fitJobs(ctx context.Context, kind string, args []string, budget time.Duration, check func(jobReport) error) (jobReport, error) {
	var spent time.Duration
	var plain, traced, rss, cal []float64
	var last jobReport
	for i := 0; (spent < budget || i < minJobs) && i < 500; i++ {
		a, isTraced := r.jobArgs(args, i)
		t0 := time.Now()
		rep, rssMB, err := r.runJob(ctx, kind, a)
		spent += time.Since(t0)
		r.jobN++
		if err == nil {
			err = check(rep)
		}
		if err != nil {
			r.problem("job %d: %v", i, err)
			continue
		}
		r.jobOK++
		last = rep
		rss = append(rss, rssMB)
		if isTraced {
			traced = append(traced, rep.PipelineS)
			r.collectJob(rep)
		} else {
			plain = append(plain, rep.PipelineS)
			cal = append(cal, rep.CalS...)
		}
	}
	if len(plain) == 0 {
		return last, fmt.Errorf("%s: no job succeeded", kind)
	}
	scale := hostScale(cal)
	r.e2e["latency_ms"] = 1000 * median(plain) * scale
	r.notes["latency_ms"] = fmt.Sprintf("median of %d jobs: %.4f s at host scale %.3f", len(plain), median(plain), scale)
	if r.traced {
		r.sample("host.cal_ms", 1000*mean(cal))
	}
	r.e2e["max_rss_mb"] = mean(rss)
	fmt.Fprintf(r.stderr, "perfbench: %d %s jobs in %v, fastest %.4fs, median %.4fs\n",
		r.jobN, kind, spent.Round(time.Millisecond), minOf(plain), median(plain))
	if len(traced) > 0 {
		r.sample("trace.job_overhead_pct", 100*(minOf(traced)/minOf(plain)-1))
	}
	return last, nil
}

// ---- fit-dense ----

func (r *runner) fitDense(ctx context.Context) error {
	in := filepath.Join(r.work, "in.csv")
	out := filepath.Join(r.work, "out.csv")
	model := filepath.Join(r.work, "model.smfl")

	var t *table
	var setups, cal []float64
	for rep := 0; moreSetups(rep, setups); rep++ {
		cal = append(cal, calibrate().Seconds())
		t0 := time.Now()
		tab, err := vehicleTable(denseRows, r.seed)
		if err != nil {
			return err
		}
		if err := writeMaskedCSV(in, tab); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
		cal = append(cal, calibrate().Seconds())
		t = tab
	}
	r.setSetup(setups, cal)

	var first *jobReport
	var rmse float64
	check := func(rep jobReport) error {
		if err := sameRun(&first, rep); err != nil {
			return err
		}
		m, err := core.LoadFile(model)
		if err != nil {
			return fmt.Errorf("reload: %w", err)
		}
		if h := factorHash(m); h != rep.Factors {
			return fmt.Errorf("reloaded .smfl factors hash %#x, job had %#x", h, rep.Factors)
		}
		if m.Norm == nil {
			return errors.New("saved model carries no normalization stats")
		}
		got, meanRMSE, err := checkImputed(out, t, m.Norm.Mins, m.Norm.Maxs)
		if err != nil {
			return err
		}
		if got >= meanRMSE {
			return fmt.Errorf("imputation RMSE %.5f is not below column-mean imputation's %.5f", got, meanRMSE)
		}
		rmse = got
		return nil
	}
	if _, err := r.fitJobs(ctx, "job-dense", []string{"-in", in, "-out", out, "-model", model},
		r.measured(), check); err != nil {
		return err
	}
	r.e2e["impute_rmse"] = rmse
	return nil
}

// sameRun checks that every job of a run produced the same factors and
// objective bits as the first: at one pool worker a job is deterministic.
func sameRun(first **jobReport, rep jobReport) error {
	if *first == nil {
		*first = &rep
		return nil
	}
	if rep.Factors != (*first).Factors || rep.Objective != (*first).Objective {
		return fmt.Errorf("job is not deterministic: factors %#x objective %#x, first job %#x %#x",
			rep.Factors, rep.Objective, (*first).Factors, (*first).Objective)
	}
	return nil
}

// ---- fit-store ----

func (r *runner) fitStore(ctx context.Context) error {
	in := filepath.Join(r.work, "in.csv")
	dir := filepath.Join(r.work, "store")
	out := filepath.Join(r.work, "out.csv")
	model := filepath.Join(r.work, "model.smfl")

	var t *table
	var x *mat.Dense
	var mask *mat.Mask
	var nz *dataset.Normalizer
	var setups, cal []float64
	for rep := 0; moreSetups(rep, setups); rep++ {
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
		cal = append(cal, calibrate().Seconds())
		t0 := time.Now()
		tab, err := wideTable(r.seed)
		if err != nil {
			return err
		}
		if err := writeMaskedCSV(in, tab); err != nil {
			return err
		}
		// `smfl convert`: read, normalize, lay out the shards.
		f, err := os.Open(in)
		if err != nil {
			return err
		}
		ds, m, err := dataset.ReadCSVMasked(f, in, siCols)
		f.Close()
		if err != nil {
			return err
		}
		z, err := dataset.FitNormalizer(ds.X, m)
		if err != nil {
			return err
		}
		z.Apply(ds.X)
		sp := r.tr.begin("setup", 0, "store.write")
		w0 := time.Now()
		if err := store.Write(dir, ds.X, m, store.WriteOptions{Mins: z.Mins, Maxs: z.Maxs, Columns: ds.Columns}); err != nil {
			return err
		}
		wd := time.Since(w0)
		sp.end(nil)
		setups = append(setups, time.Since(t0).Seconds())
		cal = append(cal, calibrate().Seconds())
		if r.traced {
			r.sample("store.write_ms", ms(wd))
		}
		t, x, mask, nz = tab, ds.X, m, z
	}
	r.setSetup(setups, cal)

	size, err := dirBytes(dir)
	if err != nil {
		return err
	}
	budget := size / 2 // the working set is twice the shard cache
	var first *jobReport
	var rmse float64
	check := func(rep jobReport) error {
		if err := sameRun(&first, rep); err != nil {
			return err
		}
		got, _, err := checkImputed(out, t, nz.Mins, nz.Maxs)
		rmse = got
		return err
	}
	last, err := r.fitJobs(ctx, "job-store", []string{"-in", dir, "-out", out, "-model", model,
		"-mem-budget", strconv.FormatInt(budget, 10)}, r.measured(), check)
	if err != nil {
		return err
	}
	r.e2e["impute_rmse"] = rmse

	// Dense ≡ store: the in-memory fit of the same normalized table, config
	// and pool width must end on the same objective bits. It runs here,
	// outside the timed jobs.
	prev := mat.SetWorkers(1)
	ref, err := core.Fit(x, mask, siCols, core.SMFL, storeConfig())
	mat.SetWorkers(prev)
	if err != nil {
		return fmt.Errorf("dense reference fit: %w", err)
	}
	refBits := math.Float64bits(ref.Objective[len(ref.Objective)-1])
	if last.Objective != refBits {
		r.problem("store fit objective %#x differs from the dense fit's %#x", last.Objective, refBits)
		r.jobOK = 0 // every job of the run agreed with the last, so all are wrong
	} else {
		fmt.Fprintf(r.stderr, "perfbench: dense ≡ store objective %#x\n", refBits)
	}
	return nil
}

func dirBytes(dir string) (int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, e := range entries {
		fi, err := e.Info()
		if err != nil {
			return 0, err
		}
		total += fi.Size()
	}
	return total, nil
}
