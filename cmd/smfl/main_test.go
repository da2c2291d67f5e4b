package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/spatialmf/smfl/internal/core"
	"github.com/spatialmf/smfl/internal/dataset"
	"github.com/spatialmf/smfl/internal/faultinject"
	"github.com/spatialmf/smfl/internal/mat"
	"github.com/spatialmf/smfl/internal/repair"
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

// writeSparseCSV writes the writeTempCSV table with a third of its non-SI
// cells blank, so many of the cells impute writes are predictions.
func writeSparseCSV(t *testing.T) string {
	t.Helper()
	path := writeTempCSV(t, false)
	lines := strings.Split(string(mustRead(t, path)), "\n")
	for i := 1; i < len(lines) && lines[i] != ""; i++ {
		fields := strings.Split(lines[i], ",")
		for j := 2; j < len(fields); j++ {
			if (i+j)%3 == 0 {
				fields[j] = ""
			}
		}
		lines[i] = strings.Join(fields, ",")
	}
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
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
	for _, sub := range []string{"impute", "repair", "cluster", "foldin", "convert"} {
		if !strings.Contains(err.Error(), sub) {
			t.Fatalf("usage omits the %s subcommand: %v", sub, err)
		}
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

	// An all-blank line has nothing to fold in: refused, naming its row,
	// rather than written out as the training minimums.
	lines := strings.Split(string(mustRead(t, freshIn)), "\n")
	lines[5] = ",,,,"
	if err := os.WriteFile(freshIn, []byte(strings.Join(lines, "\n")), 0o644); err != nil {
		t.Fatal(err)
	}
	err = run(context.Background(), []string{"foldin", "-model", modelPath, "-in", freshIn, "-out", foldOut, "-maxiter", "40"}, &stdout, &stderr)
	if err == nil || !strings.Contains(err.Error(), "row 4 ") {
		t.Fatalf("foldin of an all-blank data row 4: got %v, want an error naming row 4", err)
	}
}

// TestRunFoldinRefusesNonFiniteAnswer: an SI value far outside the
// training range folds in to a NaN answer. foldin must refuse it with an
// error naming the cell, as smfld answers it with a 422, not write NaN into
// the CSV — under either spatial index, since the landmark warm start gives
// such a row up too.
func TestRunFoldinRefusesNonFiniteAnswer(t *testing.T) {
	in := writeTempCSV(t, true)
	dir := t.TempDir()
	far := filepath.Join(dir, "far.csv")
	lines := strings.Split(string(mustRead(t, in)), "\n")
	fields := strings.Split(lines[1], ",")
	fields[0], fields[3] = "1e200", ""
	if err := os.WriteFile(far, []byte(lines[0]+"\n"+strings.Join(fields, ",")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, index := range []string{"exact", "landmark"} {
		modelPath := filepath.Join(dir, index+".smfl")
		var stdout, stderr bytes.Buffer
		err := run(context.Background(), []string{"impute", "-in", in, "-out", filepath.Join(dir, "f.csv"),
			"-k", "3", "-maxiter", "40", "-spatial-index", index, "-savemodel", modelPath}, &stdout, &stderr)
		if err != nil {
			t.Fatal(err)
		}
		stdout.Reset()
		err = run(context.Background(), []string{"foldin", "-model", modelPath, "-in", far}, &stdout, &stderr)
		if err == nil || !strings.Contains(err.Error(), "row 0, column ") ||
			!strings.Contains(err.Error(), "the answer is not finite: an observed value is too extreme for the model") {
			t.Fatalf("%s index: foldin of a far SI row: got %v, want a not-finite error naming its cell", index, err)
		}
		if strings.Contains(stdout.String(), "NaN") || strings.Contains(stdout.String(), "Inf") {
			t.Fatalf("%s index: foldin wrote a non-finite value: %q", index, stdout.String())
		}

		// A refused -out, named directly or through a symlink, leaves the
		// previous file as it was and no temp file behind.
		outDir := t.TempDir()
		out, link := filepath.Join(outDir, "out.csv"), filepath.Join(outDir, "link.csv")
		prev := []byte("previous,answer\n")
		if err := os.WriteFile(out, prev, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.Symlink("out.csv", link); err != nil {
			t.Fatal(err)
		}
		for _, path := range []string{out, link} {
			if err := run(context.Background(), []string{"foldin", "-model", modelPath, "-in", far, "-out", path}, &stdout, &stderr); err == nil {
				t.Fatalf("%s index: foldin -out %s of a far SI row succeeded", index, filepath.Base(path))
			}
			if got := mustRead(t, out); !bytes.Equal(got, prev) {
				t.Fatalf("%s index: refused foldin -out %s changed out.csv to %q", index, filepath.Base(path), got)
			}
			if ents, err := os.ReadDir(outDir); err != nil || len(ents) != 2 {
				t.Fatalf("%s index: refused foldin -out %s left %v in the output directory (%v)", index, filepath.Base(path), ents, err)
			}
		}
	}
}

// TestOutFollowsSymlink: an -out that is a symlink gets the table written to
// its target, a dangling one too, and stays a symlink.
func TestOutFollowsSymlink(t *testing.T) {
	in := writeTempCSV(t, true)
	args := []string{"impute", "-in", in, "-k", "3", "-maxiter", "20"}
	want := runOK(t, args...)
	dir := t.TempDir()
	target, link := filepath.Join(dir, "target.csv"), filepath.Join(dir, "link.csv")
	if err := os.Symlink("target.csv", link); err != nil {
		t.Skip(err)
	}
	for _, prev := range []string{"stale\n", ""} {
		if prev != "" {
			if err := os.WriteFile(target, []byte(prev), 0o644); err != nil {
				t.Fatal(err)
			}
		} else if err := os.Remove(target); err != nil {
			t.Fatal(err)
		}
		runOK(t, append(args, "-out", link)...)
		if fi, err := os.Lstat(link); err != nil || fi.Mode()&os.ModeSymlink == 0 {
			t.Fatalf("target %q: -out replaced the symlink (%v)", prev, err)
		}
		if got := mustRead(t, target); !bytes.Equal(got, want) {
			t.Fatalf("target %q: the symlink's target holds %d bytes, not the %d of the table", prev, len(got), len(want))
		}
	}
}

// TestFoldinDefaultsToCoreUpdates: foldin without -maxiter runs
// Model.FoldIn's default of 100 updates per row, as smfld does, not a fit's
// 500-iteration cap.
func TestFoldinDefaultsToCoreUpdates(t *testing.T) {
	in := writeSparseCSV(t)
	modelPath := filepath.Join(t.TempDir(), "model.smfl")
	runOK(t, "impute", "-in", in, "-k", "3", "-maxiter", "40", "-savemodel", modelPath)
	got := runOK(t, "foldin", "-model", modelPath, "-in", in)
	if want := runOK(t, "foldin", "-model", modelPath, "-in", in, "-maxiter", "100"); !bytes.Equal(got, want) {
		t.Fatal("foldin without -maxiter differs from -maxiter 100")
	}
}

// TestFoldinRefusesNegativeMaxIter: a negative -maxiter fails foldin with
// the fit's error instead of running the default 100 updates.
func TestFoldinRefusesNegativeMaxIter(t *testing.T) {
	in := writeSparseCSV(t)
	modelPath := filepath.Join(t.TempDir(), "model.smfl")
	runOK(t, "impute", "-in", in, "-k", "3", "-maxiter", "20", "-savemodel", modelPath)
	var stdout, stderr bytes.Buffer
	err := run(context.Background(), []string{"foldin", "-model", modelPath, "-in", in, "-maxiter", "-5"}, &stdout, &stderr)
	if err == nil || !strings.Contains(err.Error(), "MaxIter=-5 must be positive") {
		t.Fatalf("foldin -maxiter -5: err %v, want the negative-cap refusal", err)
	}
}

// TestResumeRefusesNegativeMaxIter: a negative -maxiter fails impute
// -resume with the fit's error instead of keeping the checkpoint's cap.
func TestResumeRefusesNegativeMaxIter(t *testing.T) {
	in := writeSparseCSV(t)
	ckpt := filepath.Join(t.TempDir(), "fit.ckpt")
	runOK(t, "impute", "-in", in, "-k", "3", "-maxiter", "20", "-checkpoint", ckpt)
	var stdout, stderr bytes.Buffer
	err := run(context.Background(), []string{"impute", "-in", in, "-checkpoint", ckpt, "-resume", "-maxiter", "-5"}, &stdout, &stderr)
	if err == nil || !strings.Contains(err.Error(), "MaxIter=-5 must be positive") {
		t.Fatalf("impute -resume -maxiter -5: err %v, want the negative-cap refusal", err)
	}
}

// TestResumeFinishedRun: -resume of a run that reached its iteration cap,
// without -maxiter, keeps the checkpoint's cap and writes the finished run's
// output; and the model it saves folds in like the finished fit's, Placer
// included under the landmark index.
func TestResumeFinishedRun(t *testing.T) {
	in := writeSparseCSV(t)
	tab, err := readTable(in, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, index := range []string{"exact", "landmark"} {
		dir := t.TempDir()
		ckpt := filepath.Join(dir, "fit.ckpt")
		fitModel, resumedModel := filepath.Join(dir, "fit.smfl"), filepath.Join(dir, "resumed.smfl")
		flags := []string{"impute", "-in", in, "-k", "3", "-tol", "1e-12", "-spatial-index", index, "-checkpoint", ckpt}
		fit := runOK(t, append(flags, "-maxiter", "60", "-savemodel", fitModel)...)
		resumed := runOK(t, append(flags, "-resume", "-savemodel", resumedModel)...)
		if !bytes.Equal(fit, resumed) {
			t.Fatalf("%s index: resuming the finished run wrote other bytes than the run", index)
		}

		var folds [2]*mat.Dense
		for i, path := range []string{fitModel, resumedModel} {
			model, err := core.LoadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if (model.Placer != nil) != (index == "landmark") {
				t.Fatalf("%s index: %s has Placer %v", index, filepath.Base(path), model.Placer != nil)
			}
			if folds[i], err = model.FoldIn(tab.x, tab.mask, 0); err != nil {
				t.Fatal(err)
			}
		}
		for j, v := range folds[0].Data() {
			if w := folds[1].Data()[j]; math.Float64bits(v) != math.Float64bits(w) {
				t.Fatalf("%s index: fold-in coefficient %d is %v from the fit's model, %v from the resumed one", index, j, v, w)
			}
		}
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

// runOK runs the CLI with args, fails the test on error, and returns what
// the command wrote to stdout.
// TestRunFoldinNamesRefusedCell refuses a foldin table whose observed cell
// the training normalization maps below 0 or to +Inf, or that is NaN, naming
// the cell's row and column, and writes nothing. A valid table's output is
// CompleteRows → Invert → WriteCSV's bytes.
func TestRunFoldinNamesRefusedCell(t *testing.T) {
	in := writeTempCSV(t, true)
	dir := t.TempDir()
	modelPath := filepath.Join(dir, "m.smfl")
	runOK(t, "impute", "-in", in, "-out", filepath.Join(dir, "f.csv"), "-k", "3", "-maxiter", "40", "-savemodel", modelPath)
	lines := strings.Split(string(mustRead(t, in)), "\n")
	header := strings.Split(lines[0], ",")
	writeRows := func(name string, bad string) string {
		t.Helper()
		rows := append([]string(nil), lines[1:4]...)
		if bad != "" {
			fields := strings.Split(rows[1], ",")
			fields[3] = bad
			rows[1] = strings.Join(fields, ",")
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(lines[0]+"\n"+strings.Join(rows, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}

	valid := writeRows("valid.csv", "")
	got := runOK(t, "foldin", "-model", modelPath, "-in", valid)
	model, nz, err := loadArtifact(modelPath)
	if err != nil {
		t.Fatal(err)
	}
	ds, mask, err := readMasked(valid, 2)
	if err != nil {
		t.Fatal(err)
	}
	nz.Apply(ds.X)
	completed, err := model.CompleteRows(ds.X, mask, 0)
	if err != nil {
		t.Fatal(err)
	}
	nz.Invert(completed)
	ds.X = completed
	var want bytes.Buffer
	if err := ds.WriteCSV(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("foldin of a valid table: got\n%s\nwant\n%s", got, want.Bytes())
	}

	for _, c := range []struct{ value, why string }{
		{"-1e6", "below the training minimum"},
		{"Inf", "overflows the training normalization"},
		{"-Inf", "below the training minimum"},
		{"NAN", "not a number"},
	} {
		path := writeRows("bad.csv", c.value)
		var stdout, stderr bytes.Buffer
		err := run(context.Background(), []string{"foldin", "-model", modelPath, "-in", path}, &stdout, &stderr)
		if msg := fmt.Sprintf("row 1, column %s: %s", header[3], c.why); err == nil || err.Error() != msg {
			t.Fatalf("foldin of a %s cell: got %v, want %q", c.value, err, msg)
		}
		if stdout.Len() != 0 {
			t.Fatalf("foldin of a %s cell wrote %q", c.value, stdout.String())
		}
	}
}

func runOK(t *testing.T, args ...string) []byte {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if err := run(context.Background(), args, &stdout, &stderr); err != nil {
		t.Fatalf("smfl %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}
	return stdout.Bytes()
}

func mustRead(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestOutputMatchesLibraryPath pins the CLI's streaming row writer to the
// library's whole-matrix path: impute writes the bytes of Fit →
// Model.Recover → Normalizer.Invert → Dataset.WriteCSV, repair those of
// core.Repair → Invert → WriteCSV, and foldin those of CompleteRows →
// Invert → WriteCSV, under a full-sweep and a stochastic updater.
func TestOutputMatchesLibraryPath(t *testing.T) {
	holes, clean := writeSparseCSV(t), writeTempCSV(t, false)
	readNormalized := func(path string) (*dataset.Dataset, *mat.Mask, *dataset.Normalizer) {
		t.Helper()
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		ds, mask, err := dataset.ReadCSVMasked(f, path, 2)
		if err != nil {
			t.Fatal(err)
		}
		nz, err := dataset.FitNormalizer(ds.X, mask)
		if err != nil {
			t.Fatal(err)
		}
		nz.Apply(ds.X)
		return ds, mask, nz
	}
	libraryCSV := func(ds *dataset.Dataset, nz *dataset.Normalizer, completed *mat.Dense) []byte {
		t.Helper()
		nz.Invert(completed)
		ds.X = completed
		var buf bytes.Buffer
		if err := ds.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	// K = 10 (the CLI default) makes mat.Mul's 4-wide unrolled sums differ
	// from a plain left-to-right dot product, so a writer that summed U·V in
	// another order would fail here.
	for _, up := range []core.Updater{core.Multiplicative, core.SGD} {
		cfg := core.Config{K: 10, Lambda: 0.1, P: 3, Seed: 1, MaxIter: 30, Updater: up, BatchCells: 64}
		flags := []string{"-maxiter", "30", "-updater", up.String(), "-batch-cells", "64"}
		modelPath := filepath.Join(t.TempDir(), "model.smfl")

		got := runOK(t, append([]string{"impute", "-in", holes, "-savemodel", modelPath}, flags...)...)
		ds, mask, nz := readNormalized(holes)
		model, err := core.Fit(ds.X, mask, 2, core.SMFL, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if want := libraryCSV(ds, nz, model.Recover(ds.X, mask)); !bytes.Equal(got, want) {
			t.Fatalf("%v: impute output differs from Fit → Recover → Invert → WriteCSV", up)
		}

		got = runOK(t, "foldin", "-model", modelPath, "-in", holes, "-maxiter", "40")
		ds, mask, nz = readNormalized(holes)
		completed, err := model.CompleteRows(ds.X, mask, 40)
		if err != nil {
			t.Fatal(err)
		}
		if want := libraryCSV(ds, nz, completed); !bytes.Equal(got, want) {
			t.Fatalf("%v: foldin output differs from CompleteRows → Invert → WriteCSV", up)
		}

		got = runOK(t, append([]string{"repair", "-in", clean, "-threshold", "3"}, flags...)...)
		ds, _, nz = readNormalized(clean)
		dirty, err := (&repair.SpatialOutlierDetector{Threshold: 3}).Detect(ds.X, 2)
		if err != nil {
			t.Fatal(err)
		}
		if dirty.Count() == 0 {
			t.Fatal("no dirty cells detected; the repair comparison would be vacuous")
		}
		repaired, _, err := core.Repair(ds.X, dirty, 2, core.SMFL, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if want := libraryCSV(ds, nz, repaired); !bytes.Equal(got, want) {
			t.Fatalf("%v: repair output differs from Repair → Invert → WriteCSV", up)
		}
	}
}

// TestImputeCheckpointAndResume drives the crash-safe training flags on both
// inputs: an impute run interrupted by a (deterministically) cancelled
// context leaves a checkpoint behind, and a -resume rerun completes from it,
// producing the same output as a never-interrupted run over the CSV. From a
// shard store the resume goes through core.ResumeFitSource.
func TestImputeCheckpointAndResume(t *testing.T) {
	defer faultinject.Reset()
	in := writeTempCSV(t, true)
	dir := t.TempDir()
	storeDir := filepath.Join(dir, "data.smfs")
	runOK(t, "convert", "-in", in, "-out", storeDir, "-shard-rows", "16")
	var stdout, stderr bytes.Buffer

	for _, tc := range []struct {
		name, in string
		stopAt   int // iteration (epoch under sgd) whose fault cancels the run
		flags    []string
	}{
		{"csv", in, 20, []string{"-k", "3", "-maxiter", "60", "-tol", "1e-12"}},
		{"store", storeDir, 10, []string{"-k", "3", "-maxiter", "30", "-tol", "1e-12", "-updater", "sgd", "-batch-cells", "64"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer faultinject.Reset()
			ckpt := filepath.Join(dir, tc.name+".ckpt")
			full := filepath.Join(dir, tc.name+"-full.csv")
			resumed := filepath.Join(dir, tc.name+"-resumed.csv")
			impute := func(ctx context.Context, in, out string, extra ...string) error {
				args := append([]string{"impute", "-in", in, "-out", out}, tc.flags...)
				return run(ctx, append(args, extra...), &stdout, &stderr)
			}

			// Reference: uninterrupted run over the CSV.
			if err := impute(context.Background(), in, full); err != nil {
				t.Fatalf("reference run: %v\n%s", err, stderr.String())
			}

			// Interrupted run: cancel mid-fit via the iteration fault point —
			// the deterministic stand-in for Ctrl-C.
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			faultinject.Enable(faultinject.FitIter, func(p any) error {
				if p.(*core.FitFault).Iter == tc.stopAt {
					cancel()
				}
				return nil
			})
			err := impute(ctx, tc.in, filepath.Join(dir, "x.csv"), "-checkpoint", ckpt)
			if !errors.Is(err, core.ErrInterrupted) {
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
			if err := impute(context.Background(), tc.in, resumed, "-checkpoint", ckpt, "-resume"); err != nil {
				t.Fatalf("resume run: %v\n%s", err, stderr.String())
			}
			if !bytes.Equal(mustRead(t, full), mustRead(t, resumed)) {
				t.Fatal("resumed output differs from the uninterrupted run over the CSV")
			}
		})
	}

	// -resume without -checkpoint is a usage error.
	if err := run(context.Background(), []string{"impute", "-in", in, "-resume"}, &stdout, &stderr); err == nil {
		t.Fatal("-resume without -checkpoint must fail")
	}
}

// TestRunConvertAndStoreImpute drives the out-of-core path end to end:
// convert lays the CSV out as a shard store, impute given the store
// directory fits from it under a tiny memory budget, and the file it writes
// must be byte-identical to the impute of the CSV — the factors are
// bit-identical and both inputs go through the same row writer. Both
// stochastic updaters are checked at one worker and at the default pool
// width, with the pooled kernel paths forced on. K = 10 for the reason
// TestOutputMatchesLibraryPath gives: a store writer summing U·V in another
// order would differ.
func TestRunConvertAndStoreImpute(t *testing.T) {
	in := writeSparseCSV(t)
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

	defer mat.SetWorkers(mat.Workers())
	defer mat.SetThreshold(mat.SetThreshold(1)) // split every kernel the pool can split
	for _, workers := range []int{1, 0} {
		mat.SetWorkers(workers)
		for _, up := range []string{"sgd", "svrg"} {
			fitFlags := []string{"-k", "10", "-updater", up, "-maxiter", "25", "-tol", "1e-12", "-batch-cells", "64"}
			csvOut := filepath.Join(dir, "csv.csv")
			runOK(t, append([]string{"impute", "-in", in, "-out", csvOut}, fitFlags...)...)

			stderr.Reset()
			storeOut := filepath.Join(dir, "store.csv")
			args := append([]string{"impute", "-in", storeDir, "-out", storeOut, "-mem-budget", "4KiB"}, fitFlags...)
			if err := run(context.Background(), args, &stdout, &stderr); err != nil {
				t.Fatalf("store impute: %v\n%s", err, stderr.String())
			}
			if !strings.Contains(stderr.String(), "imputed 120 cells") {
				t.Fatalf("store impute stderr = %q", stderr.String())
			}
			if !bytes.Equal(mustRead(t, csvOut), mustRead(t, storeOut)) {
				t.Fatalf("%s at %d workers: store output differs from the CSV output", up, mat.Workers())
			}
		}
	}

	// A directory that is not a store fails with the store's error, and a
	// full-sweep updater is refused by FitSource rather than trained.
	err = run(context.Background(), []string{"impute", "-in", dir}, &stdout, &stderr)
	if err == nil || !strings.Contains(err.Error(), "not a shard store (no manifest)") {
		t.Fatalf("impute of a directory with no manifest returned %v", err)
	}
	err = run(context.Background(), []string{"impute", "-in", storeDir, "-k", "3"}, &stdout, &stderr)
	if err == nil || !strings.Contains(err.Error(), "stochastic updaters only") {
		t.Fatalf("impute of a store with the multiplicative updater returned %v", err)
	}
}
