package main

import (
	"bytes"
	"context"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/spatialmf/smfl/internal/core"
	"github.com/spatialmf/smfl/internal/dataset"
	"github.com/spatialmf/smfl/internal/faultinject"
)

func writeTempCSV(t *testing.T, withHoles bool) string {
	t.Helper()
	res, err := dataset.Generate(dataset.Spec{
		Name: "cli", N: 120, M: 5, L: 2,
		Latents: 2, Bumps: 3, Clusters: 3, Noise: 0.03, Seed: 70,
	})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "data.csv")
	if err := res.Data.SaveCSV(path); err != nil {
		t.Fatal(err)
	}
	if withHoles {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(string(raw), "\n")
		// Blank the last field of a few data rows (header is line 0).
		for _, li := range []int{3, 17, 42} {
			fields := strings.Split(lines[li], ",")
			fields[len(fields)-1] = ""
			lines[li] = strings.Join(fields, ",")
		}
		if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return path
}

func TestParseMethod(t *testing.T) {
	for name, want := range map[string]core.Method{"nmf": core.NMF, "SMF": core.SMF, "smfl": core.SMFL} {
		got, err := parseMethod(name)
		if err != nil || got != want {
			t.Fatalf("parseMethod(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := parseMethod("bogus"); err == nil {
		t.Fatal("expected error")
	}
}

func TestRunImputeEndToEnd(t *testing.T) {
	in := writeTempCSV(t, true)
	out := filepath.Join(t.TempDir(), "filled.csv")
	var stdout, stderr bytes.Buffer
	err := run(context.Background(), []string{"impute", "-in", in, "-out", out, "-k", "3", "-maxiter", "60"}, &stdout, &stderr)
	if err != nil {
		t.Fatalf("run: %v (stderr: %s)", err, stderr.String())
	}
	if !strings.Contains(stderr.String(), "imputed 3 cells") {
		t.Fatalf("stderr = %q", stderr.String())
	}
	// Output must be a complete CSV: the strict reader accepts it.
	filled, err := dataset.LoadCSV(out, "filled", 2)
	if err != nil {
		t.Fatalf("output not a complete CSV: %v", err)
	}
	if n, m := filled.Dims(); n != 120 || m != 5 {
		t.Fatalf("output shape %dx%d", n, m)
	}
}

func TestRunRepairEndToEnd(t *testing.T) {
	in := writeTempCSV(t, false)
	out := filepath.Join(t.TempDir(), "repaired.csv")
	var stdout, stderr bytes.Buffer
	err := run(context.Background(), []string{"repair", "-in", in, "-out", out, "-k", "3", "-maxiter", "40", "-threshold", "8"}, &stdout, &stderr)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(stderr.String(), "repaired") {
		t.Fatalf("stderr = %q", stderr.String())
	}
	if _, err := dataset.LoadCSV(out, "repaired", 2); err != nil {
		t.Fatalf("output unreadable: %v", err)
	}
}

func TestRunClusterEndToEnd(t *testing.T) {
	in := writeTempCSV(t, false)
	var stdout, stderr bytes.Buffer
	err := run(context.Background(), []string{"cluster", "-in", in, "-k", "3", "-maxiter", "30"}, &stdout, &stderr)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if len(lines) != 120 {
		t.Fatalf("expected 120 label lines, got %d", len(lines))
	}
	if !strings.Contains(lines[0], ",") {
		t.Fatalf("bad label line %q", lines[0])
	}
}

func TestRunErrors(t *testing.T) {
	var out, errW bytes.Buffer
	err := run(context.Background(), nil, &out, &errW)
	if err == nil {
		t.Fatal("expected usage error")
	}
	if !strings.Contains(err.Error(), "foldin") {
		t.Fatalf("usage omits the foldin subcommand: %v", err)
	}
	if err := run(context.Background(), []string{"impute"}, &out, &errW); err == nil {
		t.Fatal("expected -in required error")
	}
	err = run(context.Background(), []string{"frobnicate", "-in", "x"}, &out, &errW)
	if err == nil {
		t.Fatal("expected unknown-command error")
	}
	if !strings.Contains(err.Error(), usage) {
		t.Fatalf("unknown command does not print usage: %v", err)
	}
	if err := run(context.Background(), []string{"impute", "-in", "x.csv", "-method", "huh"}, &out, &errW); err == nil {
		t.Fatal("expected unknown-method error")
	}
}

func TestRunImputeSaveModelAndFoldIn(t *testing.T) {
	in := writeTempCSV(t, true)
	dir := t.TempDir()
	out := filepath.Join(dir, "filled.csv")
	modelPath := filepath.Join(dir, "model.smfl")
	var stdout, stderr bytes.Buffer
	err := run(context.Background(), []string{"impute", "-in", in, "-out", out, "-k", "3", "-maxiter", "40", "-savemodel", modelPath}, &stdout, &stderr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(modelPath); err != nil {
		t.Fatalf("model not saved: %v", err)
	}
	// Fold fresh rows (with a hole) through the saved model.
	freshIn := writeTempCSV(t, true)
	foldOut := filepath.Join(dir, "fold.csv")
	stdout.Reset()
	stderr.Reset()
	err = run(context.Background(), []string{"foldin", "-model", modelPath, "-in", freshIn, "-out", foldOut, "-maxiter", "40"}, &stdout, &stderr)
	if err != nil {
		t.Fatalf("foldin: %v (stderr %s)", err, stderr.String())
	}
	if !strings.Contains(stderr.String(), "folded in 120 rows") {
		t.Fatalf("stderr = %q", stderr.String())
	}
	if _, err := dataset.LoadCSV(foldOut, "fold", 2); err != nil {
		t.Fatalf("fold output incomplete: %v", err)
	}
}

// TestSaveModelIsLoadableByCore asserts the -savemodel output is a plain
// wire-v2 .smfl file (the format cmd/smfld serves) carrying norm stats.
func TestSaveModelIsLoadableByCore(t *testing.T) {
	in := writeTempCSV(t, true)
	dir := t.TempDir()
	modelPath := filepath.Join(dir, "model.smfl")
	var stdout, stderr bytes.Buffer
	err := run(context.Background(), []string{"impute", "-in", in, "-out", filepath.Join(dir, "f.csv"),
		"-k", "3", "-maxiter", "40", "-savemodel", modelPath}, &stdout, &stderr)
	if err != nil {
		t.Fatal(err)
	}
	model, err := core.LoadFile(modelPath)
	if err != nil {
		t.Fatalf("savemodel output not core.Load-able: %v", err)
	}
	if model.Norm == nil || len(model.Norm.Mins) != 5 {
		t.Fatalf("savemodel output missing norm stats: %+v", model.Norm)
	}
}

// TestRunFoldinRejectsInvalidModel: a model file that core.Load refuses
// (here, a non-finite factor) must fail foldin with core.Load's reason and
// a hint to re-save, not fall through to some other decoder's error.
func TestRunFoldinRejectsInvalidModel(t *testing.T) {
	res, err := dataset.Generate(dataset.Spec{
		Name: "bad", N: 100, M: 5, L: 2,
		Latents: 2, Bumps: 3, Clusters: 3, Seed: 71,
	})
	if err != nil {
		t.Fatal(err)
	}
	nz, err := res.Data.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	model, err := core.Fit(res.Data.X, nil, 2, core.SMFL, core.Config{K: 3, MaxIter: 40, Seed: 71})
	if err != nil {
		t.Fatal(err)
	}
	model.U.Set(0, 0, math.NaN())
	path := filepath.Join(t.TempDir(), "bad.smfl")
	if err := saveArtifact(path, model, nz); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	err = run(context.Background(), []string{"foldin", "-model", path, "-in", writeTempCSV(t, true)}, &stdout, &stderr)
	if err == nil {
		t.Fatal("foldin accepted a model with a non-finite factor")
	}
	for _, want := range []string{"core: load: factors have non-finite entries", "smfl impute -savemodel"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("foldin error %q does not mention %q", err, want)
		}
	}
}

func TestRunFoldinRequiresModel(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run(context.Background(), []string{"foldin", "-in", "x.csv"}, &stdout, &stderr); err == nil {
		t.Fatal("expected -model required error")
	}
}

// TestImputeCheckpointAndResume drives the crash-safe training flags: an
// impute run interrupted by a (deterministically) cancelled context leaves a
// checkpoint behind, and a -resume rerun completes from it, producing the
// same output as a never-interrupted run.
func TestImputeCheckpointAndResume(t *testing.T) {
	defer faultinject.Reset()
	in := writeTempCSV(t, true)
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "fit.ckpt")
	full := filepath.Join(dir, "full.csv")
	resumed := filepath.Join(dir, "resumed.csv")
	var stdout, stderr bytes.Buffer

	// Reference: uninterrupted run.
	err := run(context.Background(), []string{"impute", "-in", in, "-out", full,
		"-k", "3", "-maxiter", "60", "-tol", "1e-12"}, &stdout, &stderr)
	if err != nil {
		t.Fatalf("reference run: %v\n%s", err, stderr.String())
	}

	// Interrupted run: cancel mid-fit via the iteration fault point — the
	// deterministic stand-in for Ctrl-C.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	faultinject.Enable(faultinject.FitIter, func(p any) error {
		if p.(*core.FitFault).Iter == 20 {
			cancel()
		}
		return nil
	})
	err = run(ctx, []string{"impute", "-in", in, "-out", filepath.Join(dir, "x.csv"),
		"-k", "3", "-maxiter", "60", "-tol", "1e-12", "-checkpoint", ckpt}, &stdout, &stderr)
	if err == nil || !errors.Is(err, core.ErrInterrupted) {
		t.Fatalf("interrupted run returned %v, want ErrInterrupted", err)
	}
	if !strings.Contains(err.Error(), "-resume") {
		t.Fatalf("interrupt message should point at -resume: %v", err)
	}
	faultinject.Reset()
	if _, err := os.Stat(ckpt); err != nil {
		t.Fatalf("no checkpoint after interruption: %v", err)
	}

	// Resume to completion and compare against the reference output.
	err = run(context.Background(), []string{"impute", "-in", in, "-out", resumed,
		"-k", "3", "-maxiter", "60", "-tol", "1e-12", "-checkpoint", ckpt, "-resume"}, &stdout, &stderr)
	if err != nil {
		t.Fatalf("resume run: %v\n%s", err, stderr.String())
	}
	want, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(resumed)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) {
		t.Fatal("resumed output differs from the uninterrupted run")
	}

	// -resume without -checkpoint is a usage error.
	if err := run(context.Background(), []string{"impute", "-in", in, "-resume"}, &stdout, &stderr); err == nil {
		t.Fatal("-resume without -checkpoint must fail")
	}
}

// TestRunConvertAndStoreImpute drives the out-of-core path end to end:
// convert lays the CSV out as a shard store, impute -store mmap fits from it
// under a tiny memory budget, and the completed table must agree with the
// dense impute of the same data — exactly on observed cells (both restore
// the stored value), to float tolerance on imputed ones (the factors are
// bit-identical; only the prediction x̂=U·V accumulates in a different
// order between the streaming and the matrix-multiply writer).
func TestRunConvertAndStoreImpute(t *testing.T) {
	in := writeTempCSV(t, true)
	dir := t.TempDir()
	storeDir := filepath.Join(dir, "data.smfs")
	var stdout, stderr bytes.Buffer

	err := run(context.Background(), []string{"convert", "-in", in, "-out", storeDir, "-shard-rows", "16"}, &stdout, &stderr)
	if err != nil {
		t.Fatalf("convert: %v\n%s", err, stderr.String())
	}
	if !strings.Contains(stderr.String(), "converted 120x5 table") {
		t.Fatalf("convert stderr = %q", stderr.String())
	}

	fitFlags := []string{"-k", "3", "-updater", "sgd", "-epochs", "25", "-tol", "1e-12", "-batch-cells", "64"}
	denseOut := filepath.Join(dir, "dense.csv")
	args := append([]string{"impute", "-in", in, "-out", denseOut}, fitFlags...)
	if err := run(context.Background(), args, &stdout, &stderr); err != nil {
		t.Fatalf("dense impute: %v\n%s", err, stderr.String())
	}

	stderr.Reset()
	mmapOut := filepath.Join(dir, "mmap.csv")
	args = append([]string{"impute", "-store", "mmap", "-in", storeDir, "-out", mmapOut, "-mem-budget", "4KiB"}, fitFlags...)
	if err := run(context.Background(), args, &stdout, &stderr); err != nil {
		t.Fatalf("store impute: %v\n%s", err, stderr.String())
	}
	if !strings.Contains(stderr.String(), "imputed 3 cells") {
		t.Fatalf("store impute stderr = %q", stderr.String())
	}

	dense, err := dataset.LoadCSV(denseOut, "dense", 2)
	if err != nil {
		t.Fatalf("dense output unreadable: %v", err)
	}
	mmap, err := dataset.LoadCSV(mmapOut, "mmap", 2)
	if err != nil {
		t.Fatalf("store output unreadable: %v", err)
	}
	dn, dm := dense.Dims()
	if mn, mm := mmap.Dims(); mn != dn || mm != dm {
		t.Fatalf("output shapes differ: %dx%d vs %dx%d", dn, dm, mn, mm)
	}
	for i := 0; i < dn; i++ {
		for j := 0; j < dm; j++ {
			a, b := dense.X.At(i, j), mmap.X.At(i, j)
			if d := a - b; d > 1e-9 || d < -1e-9 {
				t.Fatalf("cell (%d,%d): dense %v vs store %v", i, j, a, b)
			}
		}
	}

	// An unknown backend is a usage error; a CSV handed to -store mmap is
	// refused at open, not trained on.
	if err := run(context.Background(), []string{"impute", "-store", "bogus", "-in", in}, &stdout, &stderr); err == nil {
		t.Fatal("unknown -store backend accepted")
	}
	if err := run(context.Background(), []string{"impute", "-store", "mmap", "-in", dir}, &stdout, &stderr); err == nil {
		t.Fatal("-store mmap accepted a directory with no manifest")
	}
}
