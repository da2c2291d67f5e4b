package core

import (
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math"
	"os"

	"github.com/spatialmf/smfl/internal/atomicfile"
	"github.com/spatialmf/smfl/internal/faultinject"
	"github.com/spatialmf/smfl/internal/landmark"
	"github.com/spatialmf/smfl/internal/mat"
	"github.com/spatialmf/smfl/internal/spatial"
)

// wireVersion is the .smfl container version. Load reads only this version
// and refuses any other with ErrWireVersion. gob leaves absent fields zero
// and skips unknown ones, so bump the version whenever modelWire or
// configWire changes, and never repurpose a field name.
const wireVersion = 6

// ErrWireVersion tags the error Load returns for a file written at a wire
// version other than wireVersion.
var ErrWireVersion = errors.New("core: unsupported model wire version")

// modelWire is the gob-encodable image of a fitted Model. Matrices travel
// through their binary marshalers (see internal/mat/serialize.go).
type modelWire struct {
	Method    Method
	Config    configWire
	L         int
	U, V, C   []byte
	Objective []float64
	Iters     int
	Converged bool

	Version            int
	NormMins, NormMaxs []float64

	Partial    bool
	Recoveries int

	// Placer is the O(L) warm-start model attached by landmark-index fits
	// (empty when absent).
	Placer []byte
}

// configWire mirrors Config minus the runtime-only fields: the Weights
// matrix (a training-time input, not fitted state), Ctx, and CheckpointPath
// (a checkpoint already knows where it lives). Save writes the fixed solver
// constants into KMeansMaxIter, KMeansRestarts, Eps, WatchdogRetries,
// WatchdogExplode and AnchorEvery, and 1e-8, the retired fold-in early-stop
// tolerance, into FoldInTol; Load ignores them.
type configWire struct {
	K              int
	Lambda         float64
	P              int
	MaxIter        int
	Tol            float64
	Seed           int64
	KMeansMaxIter  int
	KMeansRestarts int
	LearningRate   float64
	Eps            float64
	Updater        Updater
	LandmarkSource LandmarkSource

	FoldInTol       float64
	CheckpointEvery int
	WatchdogRetries int
	WatchdogExplode float64

	SpatialIndex SpatialIndex

	BatchCells  int
	AnchorEvery int

	GraphMode spatial.BuildMode
}

// Save serializes the fitted model (gob container with binary matrices).
// Deploy pattern: Fit offline, Save, then Load + FoldIn/CompleteRows online.
func (m *Model) Save(w io.Writer) error {
	if m.U == nil || m.V == nil {
		return errors.New("core: cannot save an unfitted model")
	}
	u, err := m.U.MarshalBinary()
	if err != nil {
		return err
	}
	v, err := m.V.MarshalBinary()
	if err != nil {
		return err
	}
	var c []byte
	if m.C != nil {
		if c, err = m.C.MarshalBinary(); err != nil {
			return err
		}
	}
	cfg := m.Config
	wire := modelWire{
		Method: m.Method,
		Config: configWire{
			K: cfg.K, Lambda: cfg.Lambda, P: cfg.P, MaxIter: cfg.MaxIter,
			Tol: cfg.Tol, Seed: cfg.Seed, KMeansMaxIter: kmeansMaxIter,
			KMeansRestarts: kmeansRestarts, LearningRate: cfg.LearningRate,
			Eps: eps, Updater: cfg.Updater, LandmarkSource: cfg.LandmarkSource,
			FoldInTol: 1e-8, CheckpointEvery: cfg.CheckpointEvery,
			WatchdogRetries: watchdogRetries, WatchdogExplode: watchdogExplode,
			SpatialIndex: cfg.SpatialIndex,
			BatchCells:   cfg.BatchCells, AnchorEvery: anchorEvery,
			GraphMode: cfg.GraphMode,
		},
		L: m.L, U: u, V: v, C: c,
		Objective: m.Objective, Iters: m.Iters, Converged: m.Converged,
		Version: wireVersion,
		Partial: m.Partial, Recoveries: m.Recoveries,
	}
	if m.Norm != nil {
		_, cols := m.V.Dims()
		if err := m.Norm.Validate(cols); err != nil {
			return err
		}
		wire.NormMins, wire.NormMaxs = m.Norm.Mins, m.Norm.Maxs
	}
	if m.Placer != nil {
		if wire.Placer, err = m.Placer.MarshalBinary(); err != nil {
			return err
		}
	}
	return gob.NewEncoder(w).Encode(&wire)
}

// Load deserializes a model written by Save. A file of another wire
// version is refused with an error wrapping ErrWireVersion.
func Load(r io.Reader) (*Model, error) {
	var wire modelWire
	if err := gob.NewDecoder(r).Decode(&wire); err != nil {
		return nil, err
	}
	if wire.Version != wireVersion {
		return nil, fmt.Errorf("%w: the file is version %d, this build reads version %d; refit the model and re-save it",
			ErrWireVersion, wire.Version, wireVersion)
	}
	u := new(mat.Dense)
	if err := u.UnmarshalBinary(wire.U); err != nil {
		return nil, err
	}
	v := new(mat.Dense)
	if err := v.UnmarshalBinary(wire.V); err != nil {
		return nil, err
	}
	var c *mat.Dense
	if len(wire.C) > 0 {
		c = new(mat.Dense)
		if err := c.UnmarshalBinary(wire.C); err != nil {
			return nil, err
		}
	}
	var norm *Norm
	if len(wire.NormMins) > 0 || len(wire.NormMaxs) > 0 {
		norm = &Norm{Mins: wire.NormMins, Maxs: wire.NormMaxs}
		_, cols := v.Dims()
		if err := norm.Validate(cols); err != nil {
			return nil, err
		}
	}
	cw := wire.Config
	m := &Model{
		Method: wire.Method,
		Config: Config{
			K: cw.K, Lambda: cw.Lambda, P: cw.P, MaxIter: cw.MaxIter,
			Tol: cw.Tol, Seed: cw.Seed, LearningRate: cw.LearningRate,
			Updater: cw.Updater, LandmarkSource: cw.LandmarkSource,
			CheckpointEvery: cw.CheckpointEvery, SpatialIndex: cw.SpatialIndex,
			BatchCells: cw.BatchCells, GraphMode: cw.GraphMode,
		},
		L: wire.L, U: u, V: v, C: c, Norm: norm,
		Objective: wire.Objective, Iters: wire.Iters, Converged: wire.Converged,
		Partial: wire.Partial, Recoveries: wire.Recoveries,
	}
	if len(wire.Placer) > 0 {
		p := new(landmark.Placer)
		if err := p.UnmarshalBinary(wire.Placer); err != nil {
			return nil, fmt.Errorf("core: load: placer: %w", err)
		}
		m.Placer = p
	}
	if err := validateLoaded(m); err != nil {
		return nil, err
	}
	return m, nil
}

// validateLoaded rejects wire images that decode but do not describe a
// well-formed fitted model: inconsistent factor shapes, an SI width outside
// the column range, landmark matrices that disagree with V, a stored K that
// does not match the factors (FoldIn sizes its coefficient block from
// Config.K), or non-finite payloads. A hostile or corrupted .smfl file must
// be refused here rather than crash the serving layer later — the
// FuzzReadModel target drives this.
func validateLoaded(m *Model) error {
	n, k := m.U.Dims()
	kv, cols := m.V.Dims()
	if n < 1 || k < 1 || cols < 1 {
		return fmt.Errorf("core: load: degenerate factor shapes U %dx%d, V %dx%d", n, k, kv, cols)
	}
	if kv != k {
		return fmt.Errorf("core: load: U has %d features, V has %d", k, kv)
	}
	if m.Config.K != k {
		return fmt.Errorf("core: load: stored K=%d does not match %d-feature factors", m.Config.K, k)
	}
	if m.L < 0 || m.L > cols {
		return fmt.Errorf("core: load: SI width %d outside [0, %d]", m.L, cols)
	}
	if m.C != nil {
		ck, cl := m.C.Dims()
		if ck != k || cl != m.L {
			return fmt.Errorf("core: load: landmarks are %dx%d, want %dx%d", ck, cl, k, m.L)
		}
		if !m.C.IsFinite() {
			return errors.New("core: load: landmark matrix has non-finite entries")
		}
	}
	if !m.U.IsFinite() || !m.V.IsFinite() {
		return errors.New("core: load: factors have non-finite entries")
	}
	switch m.Method {
	case NMF, SMF, SMFL:
	default:
		return fmt.Errorf("core: load: unknown method %d", int(m.Method))
	}
	switch m.Config.LandmarkSource {
	case KMeansCenters, RandomObservations, UniformGrid:
	default:
		return fmt.Errorf("core: load: unknown landmark source %d", int(m.Config.LandmarkSource))
	}
	if m.Config.SpatialIndex != SpatialExact && m.Config.SpatialIndex != SpatialLandmark {
		return fmt.Errorf("core: load: unknown spatial index %d", m.Config.SpatialIndex)
	}
	if m.Config.GraphMode != spatial.KDTreeMode && m.Config.GraphMode != spatial.BruteForceMode {
		return fmt.Errorf("core: load: unknown graph mode %d", m.Config.GraphMode)
	}
	switch m.Config.Updater {
	case Multiplicative, GradientDescent, SGD, SVRG:
	default:
		return fmt.Errorf("core: load: unknown updater %d", int(m.Config.Updater))
	}
	if m.Config.BatchCells < 0 {
		return fmt.Errorf("core: load: negative stochastic batch size %d", m.Config.BatchCells)
	}
	if m.Placer != nil {
		if d := m.Placer.Dim(); d != m.L {
			return fmt.Errorf("core: load: placer expects %d SI columns, model has %d", d, m.L)
		}
		if pc := m.Placer.Coeff().Cols(); pc != k {
			return fmt.Errorf("core: load: placer carries %d-feature coefficients, model has %d", pc, k)
		}
		if err := m.Placer.Validate(); err != nil {
			return fmt.Errorf("core: load: %w", err)
		}
	}
	for i, v := range m.Objective {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("core: load: objective[%d] is non-finite", i)
		}
	}
	return nil
}

// SaveFile writes the model to a file path atomically: a reader (or a crash)
// at any instant sees either the previous complete file or the new one, never
// a torn write. Serving deployments rely on this to hot-swap model files in
// place. The faultinject points PersistWrite and PersistRename simulate an
// I/O error mid-write and a crash before the rename.
func (m *Model) SaveFile(path string) error {
	return atomicfile.Write(path, 0o600, m.Save, faultinject.PersistWrite, faultinject.PersistRename, &PersistFault{Path: path})
}

// LoadFile reads a model written by SaveFile.
func LoadFile(path string) (*Model, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(f)
}
