package core

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"testing"

	"github.com/spatialmf/smfl/internal/faultinject"
	"github.com/spatialmf/smfl/internal/mat"
	"github.com/spatialmf/smfl/internal/spatial"
)

// bitsEqual compares two matrices entry-wise at the float64 bit level —
// "bit-identical resume" means exactly this, not approximate equality.
func bitsEqual(t *testing.T, name string, a, b *mat.Dense) {
	t.Helper()
	ar, ac := a.Dims()
	br, bc := b.Dims()
	if ar != br || ac != bc {
		t.Fatalf("%s: shapes %dx%d vs %dx%d", name, ar, ac, br, bc)
	}
	ad, bd := a.Data(), b.Data()
	for i := range ad {
		if ad[i] != bd[i] {
			t.Fatalf("%s: entry %d differs: %v vs %v", name, i, ad[i], bd[i])
		}
	}
}

// TestResumeBitIdenticalTrajectory is the kill-and-resume acceptance test:
// for every method (and both updaters for the spatial ones), a fit stopped
// at an intermediate iteration and resumed from its checkpoint must land on
// exactly the factors, objective history, and convergence flag of the
// uninterrupted run. The brute-force case checks that the checkpoint carries
// every configuration field fitHash covers, GraphMode among them.
func TestResumeBitIdenticalTrajectory(t *testing.T) {
	x, omega, l := testProblem(t, 120, 7)
	cases := []struct {
		method  Method
		updater Updater
		graph   spatial.BuildMode
	}{
		{NMF, Multiplicative, spatial.KDTreeMode},
		{SMF, Multiplicative, spatial.KDTreeMode},
		{SMF, GradientDescent, spatial.KDTreeMode},
		{SMFL, Multiplicative, spatial.KDTreeMode},
		{SMFL, Multiplicative, spatial.BruteForceMode},
		{SMFL, GradientDescent, spatial.KDTreeMode},
		{NMF, SGD, spatial.KDTreeMode},
		{SMFL, SGD, spatial.KDTreeMode},
		{NMF, SVRG, spatial.KDTreeMode},
		{SMFL, SVRG, spatial.KDTreeMode},
	}
	for _, tc := range cases {
		name := fmt.Sprintf("%v-%v", tc.method, tc.updater)
		if tc.graph == spatial.BruteForceMode {
			name += "-bruteforce"
		}
		t.Run(name, func(t *testing.T) {
			cfg := quickCfg(4)
			cfg.MaxIter = 40
			cfg.Tol = 1e-12 // keep both runs iterating the full horizon
			cfg.Updater = tc.updater
			cfg.GraphMode = tc.graph
			if tc.updater != Multiplicative {
				cfg.LearningRate = 5e-3
			}
			if tc.updater.Stochastic() {
				cfg.BatchCells = 64 // several batches per epoch at this size
			}

			full, err := Fit(x, omega, l, tc.method, cfg)
			if err != nil {
				t.Fatal(err)
			}

			ckpt := filepath.Join(t.TempDir(), "fit.ckpt")
			short := cfg
			short.MaxIter = 17 // stop mid-run, off the checkpoint cadence
			short.CheckpointPath = ckpt
			short.CheckpointEvery = 5
			partial, err := Fit(x, omega, l, tc.method, short)
			if err != nil {
				t.Fatal(err)
			}
			if partial.Iters != 17 {
				t.Fatalf("short run stopped at %d iterations, want 17", partial.Iters)
			}

			resumed, err := ResumeFit(ckpt, x, omega, &ResumeOptions{MaxIter: cfg.MaxIter})
			if err != nil {
				t.Fatal(err)
			}
			if resumed.Partial {
				t.Fatal("resumed model still tagged partial")
			}
			if resumed.Iters != full.Iters || resumed.Converged != full.Converged {
				t.Fatalf("resumed run: %d iters converged=%v, uninterrupted: %d iters converged=%v",
					resumed.Iters, resumed.Converged, full.Iters, full.Converged)
			}
			bitsEqual(t, "U", full.U, resumed.U)
			bitsEqual(t, "V", full.V, resumed.V)
			if len(resumed.Objective) != len(full.Objective) {
				t.Fatalf("objective history %d vs %d entries", len(resumed.Objective), len(full.Objective))
			}
			for i := range full.Objective {
				if full.Objective[i] != resumed.Objective[i] {
					t.Fatalf("objective[%d]: %v vs %v", i, full.Objective[i], resumed.Objective[i])
				}
			}
		})
	}
}

// TestCancelWritesResumableCheckpoint covers the Ctrl-C path: a context
// cancelled mid-fit returns the best-so-far model (tagged partial, with
// ErrInterrupted) after writing a final checkpoint, and resuming that
// checkpoint reproduces the uninterrupted run bit-for-bit.
func TestCancelWritesResumableCheckpoint(t *testing.T) {
	defer faultinject.Reset()
	x, omega, l := testProblem(t, 110, 8)
	cfg := quickCfg(4)
	cfg.MaxIter = 30
	cfg.Tol = 1e-12

	full, err := Fit(x, omega, l, SMFL, cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Cancel deterministically: the hook pulls the trigger at iteration 9, so
	// the interrupted check at the top of iteration 10 stops the fit with
	// exactly 10 committed iterations.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	faultinject.Enable(faultinject.FitIter, func(p any) error {
		if p.(*FitFault).Iter == 9 {
			cancel()
		}
		return nil
	})

	ckpt := filepath.Join(t.TempDir(), "fit.ckpt")
	interrupted := cfg
	interrupted.Ctx = ctx
	interrupted.CheckpointPath = ckpt
	interrupted.CheckpointEvery = 1000 // only the forced on-cancel write
	model, err := Fit(x, omega, l, SMFL, interrupted)
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("cancelled fit returned %v, want ErrInterrupted", err)
	}
	if model == nil || !model.Partial {
		t.Fatal("cancelled fit must return the best-so-far model tagged partial")
	}
	if model.Iters != 10 {
		t.Fatalf("cancelled at %d committed iterations, want 10", model.Iters)
	}
	faultinject.Reset()

	ck, err := LoadCheckpoint(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if ck.Model.Iters != 10 {
		t.Fatalf("checkpoint holds %d iterations, want 10 (zero loss on cancel)", ck.Model.Iters)
	}

	resumed, err := ResumeFit(ckpt, x, omega, nil)
	if err != nil {
		t.Fatal(err)
	}
	bitsEqual(t, "U", full.U, resumed.U)
	bitsEqual(t, "V", full.V, resumed.V)
}

// TestCheckpointCrashLeavesPreviousLoadable injects a crash in the window
// between the checkpoint temp-file write and the rename: the previous
// checkpoint must survive intact and loadable.
func TestCheckpointCrashLeavesPreviousLoadable(t *testing.T) {
	defer faultinject.Reset()
	x, omega, l := testProblem(t, 100, 9)
	ckpt := filepath.Join(t.TempDir(), "fit.ckpt")
	cfg := quickCfg(4)
	cfg.MaxIter = 30
	cfg.Tol = 1e-12
	cfg.CheckpointPath = ckpt
	cfg.CheckpointEvery = 5

	// The second checkpoint write (iteration 10) dies between write and
	// rename; the first (iteration 5) must remain the published file.
	crash := errors.New("simulated crash before rename")
	faultinject.Enable(faultinject.PersistRename, faultinject.OnCall(2, faultinject.Fail(crash)))

	model, err := Fit(x, omega, l, SMF, cfg)
	if !errors.Is(err, crash) {
		t.Fatalf("fit returned %v, want the injected crash", err)
	}
	if model == nil || !model.Partial {
		t.Fatal("a fit killed by checkpoint failure must return the partial model")
	}
	faultinject.Reset()

	ck, err := LoadCheckpoint(ckpt)
	if err != nil {
		t.Fatalf("previous checkpoint did not survive the crash: %v", err)
	}
	if ck.Model.Iters != 5 {
		t.Fatalf("surviving checkpoint holds %d iterations, want 5", ck.Model.Iters)
	}
	if _, err := ResumeFit(ckpt, x, omega, &ResumeOptions{MaxIter: 30}); err != nil {
		t.Fatalf("resume from surviving checkpoint: %v", err)
	}
}

// TestResumeRejectsMismatchedRun guards the hash binding: a checkpoint must
// refuse to resume against different data, weights, or solver configuration.
func TestResumeRejectsMismatchedRun(t *testing.T) {
	x, omega, l := testProblem(t, 100, 10)
	ckpt := filepath.Join(t.TempDir(), "fit.ckpt")
	cfg := quickCfg(4)
	cfg.MaxIter = 8
	cfg.Tol = 1e-12
	cfg.CheckpointPath = ckpt
	if _, err := Fit(x, omega, l, SMFL, cfg); err != nil {
		t.Fatal(err)
	}

	// Different data (same shape).
	x2 := x.Clone()
	x2.Set(3, 3, x2.At(3, 3)+0.25)
	if _, err := ResumeFit(ckpt, x2, omega, &ResumeOptions{MaxIter: 20}); err == nil {
		t.Fatal("resume accepted different data")
	}

	// Different weights.
	w := mat.NewDense(100, 6)
	for i := range w.Data() {
		w.Data()[i] = 1
	}
	w.Set(0, 0, 2)
	if _, err := ResumeFit(ckpt, x, omega, &ResumeOptions{MaxIter: 20, Weights: w}); err == nil {
		t.Fatal("resume accepted different weights")
	}

	// Different shape.
	if _, err := ResumeFit(ckpt, x.Slice(0, 50, 0, 6), nil, nil); err == nil {
		t.Fatal("resume accepted a differently-shaped matrix")
	}

	// A configuration Fit would refuse, behind a hash recomputed to match:
	// resume must validate it before building the graph.
	ck, err := LoadCheckpoint(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	ck.Model.Config.P = 1 << 62
	in := &input{src: mat.NewDenseSource(x, omega), x: x, omega: omega}
	var payload bytes.Buffer
	if err := ck.Model.Save(&payload); err != nil {
		t.Fatal(err)
	}
	wire := checkpointWire{
		Magic: ckptMagic, Version: ckptVersion, Model: payload.Bytes(), StepScale: ck.StepScale,
		Hash: fitHash(in, ck.Model.Method, ck.Model.L, ck.Model.Config),
	}
	var raw bytes.Buffer
	if err := gob.NewEncoder(&raw).Encode(&wire); err != nil {
		t.Fatal(err)
	}
	hostile := filepath.Join(t.TempDir(), "hostile.ckpt")
	if err := os.WriteFile(hostile, raw.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ResumeFit(hostile, x, omega, &ResumeOptions{MaxIter: 20}); err == nil {
		t.Fatal("resume accepted a checkpoint with P ≥ N")
	}
}

// TestLoadCheckpointRejectsHostileFiles mirrors the model-file validation:
// garbage, wrong magic, and torn payloads must all be refused cleanly.
func TestLoadCheckpointRejectsHostileFiles(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.ckpt")
	if err := os.WriteFile(bad, []byte("not a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCheckpoint(bad); err == nil {
		t.Fatal("accepted garbage")
	}

	// A valid model file is not a checkpoint.
	x, omega, l := testProblem(t, 60, 11)
	cfg := quickCfg(3)
	cfg.MaxIter = 4
	model, err := Fit(x, omega, l, NMF, cfg)
	if err != nil {
		t.Fatal(err)
	}
	modelFile := filepath.Join(dir, "model.smfl")
	if err := model.SaveFile(modelFile); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCheckpoint(modelFile); err == nil {
		t.Fatal("accepted a plain model file as a checkpoint")
	}

	// Truncation of a real checkpoint.
	ckpt := filepath.Join(dir, "fit.ckpt")
	cfg.CheckpointPath = ckpt
	if _, err := Fit(x, omega, l, NMF, cfg); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(ckpt, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCheckpoint(ckpt); err == nil {
		t.Fatal("accepted a torn checkpoint")
	}
}

// TestResumeFinishedRunReturnsImmediately: resuming a checkpoint of a
// completed run is a no-op unless MaxIter is raised.
func TestResumeFinishedRunReturnsImmediately(t *testing.T) {
	x, omega, l := testProblem(t, 80, 12)
	ckpt := filepath.Join(t.TempDir(), "fit.ckpt")
	cfg := quickCfg(3)
	cfg.MaxIter = 6
	cfg.Tol = 1e-12
	cfg.CheckpointPath = ckpt
	model, err := Fit(x, omega, l, SMF, cfg)
	if err != nil {
		t.Fatal(err)
	}
	same, err := ResumeFit(ckpt, x, omega, nil)
	if err != nil {
		t.Fatal(err)
	}
	if same.Iters != model.Iters {
		t.Fatalf("no-op resume ran %d extra iterations", same.Iters-model.Iters)
	}
	longer, err := ResumeFit(ckpt, x, omega, &ResumeOptions{MaxIter: 12})
	if err != nil {
		t.Fatal(err)
	}
	if longer.Iters <= model.Iters {
		t.Fatalf("raised MaxIter did not extend the run (%d iters)", longer.Iters)
	}
}

// fixedSource is a DataSource over resident data with a chosen content
// hash, so the source fitHash stream can be pinned independently of the
// shard store's own hashing.
type fixedSource struct {
	*mat.DenseSource
	content uint64
}

func (s fixedSource) ContentHash() uint64 { return s.content }

// TestFitHashPinned pins both fitHash byte streams to fixed values. A
// checkpoint stores the hash and resume recomputes it, so any change to
// either stream (field order, marker, encoding) strands every checkpoint
// written before it — this test makes such a change deliberate.
func TestFitHashPinned(t *testing.T) {
	x := mat.NewDense(5, 4)
	w := mat.NewDense(5, 4)
	for i := 0; i < 5; i++ {
		for j := 0; j < 4; j++ {
			x.Set(i, j, float64(i*4+j+1)/20)
			w.Set(i, j, 1+float64((i+j)%3)/2)
		}
	}
	omega := mat.FullMask(5, 4)
	omega.Hide(1, 2)
	omega.Hide(3, 0)
	omega.Hide(4, 3)
	cfg := Config{K: 3, Lambda: 0.2, P: 2, Seed: 7}.withDefaults()
	weighted := cfg
	weighted.Weights = w
	stochastic := cfg
	stochastic.Updater = SGD

	dense := &input{src: mat.NewDenseSource(x, omega), x: x, omega: omega}
	source := &input{src: fixedSource{mat.NewDenseSource(x, omega), 0x0123456789abcdef}}
	for _, tc := range []struct {
		name string
		in   *input
		cfg  Config
		want uint64
	}{
		{"dense", dense, cfg, 0xf00d6d28d83e116a},
		{"dense weighted", dense, weighted, 0x748b8762feed645f},
		{"dense sgd", dense, stochastic, 0x6c9df6c4f4b400e8},
		{"source sgd", source, stochastic, 0xfefb95dbd86293c8},
	} {
		if got := fitHash(tc.in, SMFL, 2, tc.cfg); got != tc.want {
			t.Errorf("%s: fitHash = %#016x, want %#016x", tc.name, got, tc.want)
		}
	}
}

// TestSaveBytesPinned pins the bytes Save writes for a fixed model. Every
// .smfl file and checkpoint carries them, so a change to the container, to
// configWire or to the values Save writes into it is refused here unless
// it is deliberate. The model comes from fixed matrices, not a fit, so the
// bytes do not depend on floating-point contraction on the host.
func TestSaveBytesPinned(t *testing.T) {
	m := fuzzSeedModel()
	m.Config = m.Config.withDefaults() // as every fit saves it
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	h.Write(buf.Bytes())
	if got, want := h.Sum64(), uint64(0xf70a2d8cb744b98a); got != want {
		t.Errorf("Save bytes hash = %#016x (%d bytes), want %#016x", got, buf.Len(), want)
	}
}
