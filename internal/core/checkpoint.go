package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"os"

	"github.com/spatialmf/smfl/internal/atomicfile"
	"github.com/spatialmf/smfl/internal/faultinject"
	"github.com/spatialmf/smfl/internal/landmark"
	"github.com/spatialmf/smfl/internal/mat"
)

// Checkpoint format: a gob container wrapping the standard .smfl model
// payload (so a checkpoint is also a loadable model image) plus the trainer
// state that the model alone cannot reconstruct — the GD step scale and the
// watchdog's jitter-RNG state — and a hash binding the checkpoint to the
// exact (data, mask, weights, solver configuration) it was trained on.
// Everything else needed to continue (iteration index = Iters, objective
// history, landmarks, configuration) already travels inside the model
// payload. Files are written atomically: temp file in the target directory,
// fsync, rename, directory fsync — a crash at any instant leaves either the
// previous checkpoint or the new one, never a torn file.

// ckptMagic/ckptVersion identify the checkpoint container. Bump the version
// only for incompatible layouts; gob tolerates appended fields.
const (
	ckptMagic   = "SMFL-CKPT"
	ckptVersion = 1
)

type checkpointWire struct {
	Magic     string
	Version   int
	Hash      uint64
	Model     []byte // core Save payload, Partial and Recoveries included
	StepScale float64
	Jitter    uint64

	// Stochastic-updater state (appended fields; gob leaves them zero when
	// decoding checkpoints written before the stochastic updaters existed).
	// SampleState is the batch sampler's RNG position; AnchorU/AnchorV/GradV
	// and AnchorAge are the SVRG anchor snapshot (empty for SGD).
	SampleState uint64
	AnchorAge   int
	AnchorU     []byte
	AnchorV     []byte
	GradV       []byte
}

// Checkpoint is the decoded image of a training checkpoint.
type Checkpoint struct {
	Model     *Model
	Hash      uint64
	StepScale float64
	Jitter    uint64

	// Stochastic-updater state (zero/nil unless written by an SGD/SVRG fit).
	SampleState uint64
	AnchorAge   int
	AnchorU     *mat.Dense
	AnchorV     *mat.Dense
	GradV       *mat.Dense
}

// writeCheckpoint atomically persists the current trainer state.
func (tr *trainer) writeCheckpoint(model *Model) error {
	var buf bytes.Buffer
	if err := model.Save(&buf); err != nil {
		return fmt.Errorf("core: checkpoint %s: %w", tr.ckptPath, err)
	}
	wire := checkpointWire{
		Magic: ckptMagic, Version: ckptVersion, Hash: tr.hash,
		Model: buf.Bytes(), StepScale: tr.stepScale, Jitter: tr.jitter,
		SampleState: tr.sample, AnchorAge: tr.anchorAge,
	}
	if tr.anchorU != nil {
		var err error
		if wire.AnchorU, err = tr.anchorU.MarshalBinary(); err != nil {
			return fmt.Errorf("core: checkpoint %s: %w", tr.ckptPath, err)
		}
		if wire.AnchorV, err = tr.anchorV.MarshalBinary(); err != nil {
			return fmt.Errorf("core: checkpoint %s: %w", tr.ckptPath, err)
		}
		if wire.GradV, err = tr.gradV.MarshalBinary(); err != nil {
			return fmt.Errorf("core: checkpoint %s: %w", tr.ckptPath, err)
		}
	}
	write := func(w io.Writer) error { return gob.NewEncoder(w).Encode(&wire) }
	fault := &PersistFault{Path: tr.ckptPath}
	if err := atomicfile.Write(tr.ckptPath, 0o600, write, faultinject.PersistWrite, faultinject.PersistRename, fault); err != nil {
		return fmt.Errorf("core: checkpoint %s: %w", tr.ckptPath, err)
	}
	return nil
}

// LoadCheckpoint reads and validates a checkpoint written during Fit. The
// embedded model passes the same hostile-input validation as a model file.
func LoadCheckpoint(path string) (*Checkpoint, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var wire checkpointWire
	if err := gob.NewDecoder(f).Decode(&wire); err != nil {
		return nil, fmt.Errorf("core: checkpoint %s: %w", path, err)
	}
	if wire.Magic != ckptMagic {
		return nil, fmt.Errorf("core: %s is not a training checkpoint", path)
	}
	if wire.Version != ckptVersion {
		return nil, fmt.Errorf("core: checkpoint %s has unsupported version %d", path, wire.Version)
	}
	model, err := Load(bytes.NewReader(wire.Model))
	if err != nil {
		return nil, fmt.Errorf("core: checkpoint %s: %w", path, err)
	}
	ck := &Checkpoint{
		Model: model, Hash: wire.Hash, StepScale: wire.StepScale, Jitter: wire.Jitter,
		SampleState: wire.SampleState, AnchorAge: wire.AnchorAge,
	}
	if ck.StepScale <= 0 || math.IsNaN(ck.StepScale) || math.IsInf(ck.StepScale, 0) {
		return nil, fmt.Errorf("core: checkpoint %s has invalid step scale %v", path, ck.StepScale)
	}
	if ck.AnchorAge < 0 {
		return nil, fmt.Errorf("core: checkpoint %s has negative anchor age %d", path, ck.AnchorAge)
	}
	// SVRG anchor snapshot: all three blobs travel together, with the exact
	// factor shapes and finite entries (hostile-input parity with the model
	// payload itself).
	present := 0
	for _, b := range [][]byte{wire.AnchorU, wire.AnchorV, wire.GradV} {
		if len(b) > 0 {
			present++
		}
	}
	if present != 0 && present != 3 {
		return nil, fmt.Errorf("core: checkpoint %s has a torn anchor snapshot", path)
	}
	if present == 3 {
		ck.AnchorU, ck.AnchorV, ck.GradV = new(mat.Dense), new(mat.Dense), new(mat.Dense)
		for i, p := range []struct {
			blob []byte
			dst  *mat.Dense
		}{{wire.AnchorU, ck.AnchorU}, {wire.AnchorV, ck.AnchorV}, {wire.GradV, ck.GradV}} {
			if err := p.dst.UnmarshalBinary(p.blob); err != nil {
				return nil, fmt.Errorf("core: checkpoint %s anchor %d: %w", path, i, err)
			}
			if !p.dst.IsFinite() {
				return nil, fmt.Errorf("core: checkpoint %s anchor %d has non-finite entries", path, i)
			}
		}
		un, uk := model.U.Dims()
		vk, vm := model.V.Dims()
		if ar, ac := ck.AnchorU.Dims(); ar != un || ac != uk {
			return nil, fmt.Errorf("core: checkpoint %s anchor U is %dx%d, want %dx%d", path, ar, ac, un, uk)
		}
		if ar, ac := ck.AnchorV.Dims(); ar != vk || ac != vm {
			return nil, fmt.Errorf("core: checkpoint %s anchor V is %dx%d, want %dx%d", path, ar, ac, vk, vm)
		}
		if ar, ac := ck.GradV.Dims(); ar != vk || ac != vm {
			return nil, fmt.Errorf("core: checkpoint %s anchor gradient is %dx%d, want %dx%d", path, ar, ac, vk, vm)
		}
	}
	return ck, nil
}

// ResumeOptions carries the runtime-only inputs of a resumed fit — values
// that are intentionally not serialized into checkpoints. Everything else
// (hyperparameters, method, landmarks, iteration index, objective history)
// is restored from the checkpoint itself.
type ResumeOptions struct {
	// Ctx cancels the resumed fit, exactly like Config.Ctx on Fit.
	Ctx context.Context
	// Weights must be the same confidence-weight matrix the original Fit
	// ran with (it participates in the checkpoint hash), or nil.
	Weights *mat.Dense
	// MaxIter, when positive, replaces the checkpointed iteration cap —
	// the knob for "train a finished run for longer". 0 keeps the cap; a
	// negative value is refused, as Fit refuses it.
	MaxIter int
	// CheckpointEvery, when positive, overrides the cadence of further
	// checkpoints, which overwrite the file being resumed.
	CheckpointEvery int
}

// ResumeFit continues an interrupted Fit from the checkpoint at path,
// producing a trajectory bit-identical to the uninterrupted run: x and omega
// must be the exact training inputs (verified against the checkpoint's
// hash), the spatial graph is rebuilt deterministically from them, and the
// factors, objective history, and watchdog RNG state are restored from the
// checkpoint. A checkpoint of a converged (or iteration-capped) run trains no
// further unless opts raises MaxIter.
func ResumeFit(path string, x *mat.Dense, omega *mat.Mask, opts *ResumeOptions) (*Model, error) {
	return resume(path, &input{x: x, omega: omega}, opts)
}

// resume continues the checkpointed fit at path over in, for ResumeFit and
// ResumeFitSource alike. A dense input arrives holding only x and omega (nil
// meaning fully observed): resume checks x against the checkpoint before it
// checks the mask and binds src, which keeps ResumeFit's error order, and
// binds rx only once the run is known to continue.
func resume(path string, in *input, opts *ResumeOptions) (*Model, error) {
	if opts != nil {
		if err := negativeIters(opts.MaxIter); err != nil {
			return nil, err
		}
	}
	ck, err := LoadCheckpoint(path)
	if err != nil {
		return nil, err
	}
	model := ck.Model
	cfg := resumeConfig(model, path, opts)

	dense := in.x != nil
	n, m, what := 0, 0, "data"
	if dense {
		n, m = in.x.Dims()
	} else {
		if !cfg.Updater.Stochastic() {
			return nil, fmt.Errorf("core: checkpoint %s was written by a %s fit; source-backed resume supports sgd/svrg only", path, cfg.Updater)
		}
		n, m = in.src.Dims()
		what = "source"
	}
	if un, _ := model.U.Dims(); un != n {
		return nil, fmt.Errorf("core: resume: checkpoint has %d rows, %s has %d", un, what, n)
	}
	if _, vm := model.V.Dims(); vm != m {
		return nil, fmt.Errorf("core: resume: checkpoint has %d columns, %s has %d", vm, what, m)
	}
	if dense {
		if in.omega == nil {
			in.omega = mat.FullMask(n, m)
		}
		if or, oc := in.omega.Dims(); or != n || oc != m {
			return nil, fmt.Errorf("core: resume: mask shape %dx%d vs data %dx%d", or, oc, n, m)
		}
		in.src = mat.NewDenseSource(in.x, in.omega)
	}
	if h := fitHash(in, model.Method, model.L, cfg); h != ck.Hash {
		return nil, fmt.Errorf("core: checkpoint %s was written for different data, weights or configuration, or by a fit on the other storage backend", path)
	}
	if err := cfg.validate(n, m, model.L, model.Method); err != nil {
		return nil, fmt.Errorf("core: checkpoint %s: %w", path, err)
	}

	model.Partial = false
	if model.Converged || model.Iters >= cfg.MaxIter {
		// The checkpoint was written before train attached the Placer,
		// which needs the landmark index but not the p-NN graph.
		if cfg.SpatialIndex == SpatialLandmark && model.Method != NMF {
			ix, err := landmark.Build(siFilled(in.src, model.L), landmarkConfig(model.Method, cfg))
			if err != nil {
				return nil, err
			}
			model.Placer = ix.NewPlacer(model.U)
		}
		return model, nil
	}
	_, graph, ix, err := buildSpatial(in.src, model.L, model.Method, cfg)
	if err != nil {
		return nil, err
	}
	if dense {
		in.rx = in.omega.Project(nil, in.x)
	}
	return train(model, resumedTrainer(ck, model.Method, cfg), in, graph, ix)
}

// resumeConfig overlays the runtime-only ResumeOptions onto the
// checkpointed configuration (defaults were applied by the original Fit)
// and installs the result on the model.
func resumeConfig(model *Model, path string, opts *ResumeOptions) Config {
	if opts == nil {
		opts = &ResumeOptions{}
	}
	cfg := model.Config
	cfg.Ctx = opts.Ctx
	cfg.Weights = opts.Weights
	if opts.MaxIter > 0 {
		cfg.MaxIter = opts.MaxIter
	}
	cfg.CheckpointPath = path
	if opts.CheckpointEvery > 0 {
		cfg.CheckpointEvery = opts.CheckpointEvery
	}
	model.Config = cfg
	return cfg
}

// resumedTrainer rebuilds the trainer state a checkpoint captured.
func resumedTrainer(ck *Checkpoint, method Method, cfg Config) *trainer {
	tr := newTrainer(method, cfg)
	tr.hash = ck.Hash
	tr.stepScale = ck.StepScale
	tr.jitter = ck.Jitter
	if cfg.Updater.Stochastic() {
		tr.sample = ck.SampleState
		tr.anchorU, tr.anchorV, tr.gradV = ck.AnchorU, ck.AnchorV, ck.GradV
		tr.anchorAge = ck.AnchorAge
	}
	return tr
}

// fitHash binds a checkpoint to its training run: FNV-1a over the training
// input and every configuration field that shapes the optimization
// trajectory. A dense input contributes its data matrix, observation mask
// and confidence weights. A source-backed input contributes the source's
// ContentHash instead (streaming the full data would defeat out-of-core
// operation) behind a leading "SMFL-SRC" marker that keeps the two streams
// disjoint, so a checkpoint is never resumed against the wrong storage
// backend by accident. Runtime-only fields (Ctx, checkpoint knobs) and
// MaxIter (legitimately raised on resume) are excluded; the fixed solver
// constants keep their slots, so existing checkpoints still resume.
func fitHash(in *input, method Method, l int, cfg Config) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	w64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	wf := func(v float64) { w64(math.Float64bits(v)) }
	wi := func(v int64) { w64(uint64(v)) }

	if in.x == nil {
		h.Write([]byte("SMFL-SRC"))
	}
	wi(int64(method))
	wi(int64(l))
	n, m := in.src.Dims()
	wi(int64(n))
	wi(int64(m))
	if in.x == nil {
		w64(in.src.(DataSource).ContentHash())
	} else {
		for _, v := range in.x.Data() {
			wf(v)
		}
		if b, err := in.omega.MarshalBinary(); err == nil {
			h.Write(b)
		}
		if cfg.Weights != nil {
			wi(1)
			for _, v := range cfg.Weights.Data() {
				wf(v)
			}
		}
	}
	wi(int64(cfg.K))
	wf(cfg.Lambda)
	wi(int64(cfg.P))
	wf(cfg.Tol)
	wi(cfg.Seed)
	wi(kmeansMaxIter)
	wi(kmeansRestarts)
	wf(cfg.LearningRate)
	wf(eps)
	wi(int64(cfg.Updater))
	wi(int64(cfg.BatchCells))
	wi(anchorEvery)
	wi(int64(cfg.LandmarkSource))
	wi(int64(cfg.GraphMode))
	wi(int64(cfg.SpatialIndex))
	return h.Sum64()
}
