package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"

	"github.com/spatialmf/smfl/internal/core"
)

func TestRunWritesReport(t *testing.T) {
	out := filepath.Join(t.TempDir(), "bench.json")
	var stdout, stderr bytes.Buffer
	err := run([]string{
		"-datasets", "Economic", "-rates", "0.5", "-scale", "0.01",
		"-maxiter", "10", "-runs", "1", "-foldrows", "4", "-graph-ns", "400", "-out", out,
	}, &stdout, &stderr)
	if err != nil {
		t.Fatalf("run: %v (stderr: %s)", err, stderr.String())
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep Report
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	if len(rep.Results) != 1 {
		t.Fatalf("got %d results, want 1", len(rep.Results))
	}
	r := rep.Results[0]
	if r.Dataset != "Economic" || r.MissingRate != 0.5 {
		t.Fatalf("unexpected cell %+v", r)
	}
	if r.FitMillis <= 0 || r.FitIters <= 0 {
		t.Fatalf("fit not timed: %+v", r)
	}
	if r.FoldInRows != 4 || r.FoldInMicros <= 0 {
		t.Fatalf("fold-in not timed: %+v", r)
	}
	if rep.Workers < 1 {
		t.Fatalf("workers not recorded: %+v", rep)
	}
	if rep.SpatialIndex != "exact" {
		t.Fatalf("spatial index not recorded: %+v", rep)
	}
	if len(rep.GraphSweep) != 1 {
		t.Fatalf("got %d graph sweep rows, want 1", len(rep.GraphSweep))
	}
	g := rep.GraphSweep[0]
	if g.N != 400 || g.P != 10 {
		t.Fatalf("unexpected graph sweep row %+v", g)
	}
	if g.QuadraticMillisEst <= 0 || g.KDTreeMillis <= 0 || g.LandmarkMillis <= 0 {
		t.Fatalf("graph backends not timed: %+v", g)
	}
	if g.LandmarkRecall <= 0 || g.LandmarkRecall > 1 {
		t.Fatalf("recall out of range: %+v", g)
	}
}

func TestRunStdoutAndBadFlags(t *testing.T) {
	var stdout, stderr bytes.Buffer
	err := run([]string{
		"-datasets", "Economic", "-rates", "0.1", "-scale", "0.01",
		"-maxiter", "5", "-runs", "1", "-foldrows", "0", "-graph-ns", "",
	}, &stdout, &stderr)
	if err != nil {
		t.Fatalf("run to stdout: %v", err)
	}
	var rep Report
	if err := json.Unmarshal(stdout.Bytes(), &rep); err != nil {
		t.Fatalf("stdout is not valid JSON: %v", err)
	}
	if rep.Results[0].FoldInRows != 0 {
		t.Fatalf("-foldrows 0 should disable fold-in: %+v", rep.Results[0])
	}
	if len(rep.GraphSweep) != 0 {
		t.Fatalf("-graph-ns '' should disable the sweep: %+v", rep.GraphSweep)
	}

	if err := run([]string{"-rates", "nope"}, &stdout, &stderr); err == nil {
		t.Fatal("bad -rates accepted")
	}
	if err := run([]string{"-method", "bogus"}, &stdout, &stderr); err == nil {
		t.Fatal("bad -method accepted")
	}
	if err := run([]string{"-spatial-index", "bogus"}, &stdout, &stderr); err == nil {
		t.Fatal("bad -spatial-index accepted")
	}
	if err := run([]string{"-datasets", "Economic", "-rates", "0.1", "-scale", "0.01",
		"-maxiter", "5", "-runs", "1", "-graph-ns", "nope"}, &stdout, &stderr); err == nil {
		t.Fatal("bad -graph-ns accepted")
	}
	if err := run([]string{"-datasets", "Nope", "-rates", "0.1", "-scale", "0.01"}, &stdout, &stderr); err == nil {
		t.Fatal("unknown dataset accepted")
	}
}

// TestRunStochasticAndStoreSweeps runs the two sweeps behind BENCH_fit.json's
// stochastic and store blocks at a small size, two fits per cell. The report
// must hold the gd baseline with sgd and svrg at every batch size, and the
// dense row with an mmap row per memory budget whose objective has the dense
// row's bits, the check the store sweep itself makes before it writes a row.
// Each cell's two runs must end on the same objective bits, which the sweeps
// check before they report a median.
func TestRunStochasticAndStoreSweeps(t *testing.T) {
	var stdout, stderr bytes.Buffer
	err := run([]string{
		"-datasets", "", "-graph-ns", "", "-runs", "2",
		"-stochastic", "-stoch-n", "2000", "-stoch-epochs", "5", "-store", "-store-n", "2000",
	}, &stdout, &stderr)
	if err != nil {
		t.Fatalf("run: %v (stderr: %s)", err, stderr.String())
	}
	var rep Report
	if err := json.Unmarshal(stdout.Bytes(), &rep); err != nil {
		t.Fatalf("stdout is not valid JSON: %v", err)
	}
	if rep.Runs != 2 {
		t.Fatalf("report records %d runs per cell, want 2", rep.Runs)
	}
	updaters := map[string]int{}
	for _, r := range rep.Stochastic {
		if r.Rows != 2000 || r.Epochs != 5 || !(r.MsPerEpoch > 0) {
			t.Fatalf("unexpected stochastic row %+v", r)
		}
		updaters[r.Updater]++
	}
	if updaters["gd"] != 1 || updaters["sgd"] != 2 || updaters["svrg"] != 2 || len(rep.Stochastic) != 5 {
		t.Fatalf("stochastic rows by updater %v, want gd 1, sgd 2, svrg 2", updaters)
	}
	if len(rep.Store) != 4 || rep.Store[0].Backend != "dense" {
		t.Fatalf("store rows %+v, want dense then three mmap budgets", rep.Store)
	}
	dense := rep.Store[0]
	for _, r := range rep.Store[1:] {
		if r.Backend != "mmap" || r.Rows != 2000 || r.Epochs != 5 || r.ShardMaps <= 0 {
			t.Fatalf("unexpected store row %+v", r)
		}
		if math.Float64bits(r.FinalObjective) != math.Float64bits(dense.FinalObjective) {
			t.Fatalf("mmap objective %v at budget %.2f, dense %v", r.FinalObjective, r.BudgetFraction, dense.FinalObjective)
		}
	}
}

// TestMedianFitRefusesDifferentObjectives: a cell whose runs end on
// different objective bits reports an error, not a median.
func TestMedianFitRefusesDifferentObjectives(t *testing.T) {
	obj := 1.0
	fit := func() (*core.Model, error) {
		obj = math.Nextafter(obj, 2)
		return &core.Model{Objective: []float64{obj}}, nil
	}
	if _, _, err := medianFit(2, fit); err == nil {
		t.Fatal("runs ending on different objectives gave a median")
	}
	if _, _, err := medianFit(1, fit); err != nil {
		t.Fatalf("one run: %v", err)
	}
}
