// Package serve turns fitted SMFL models into an online imputation service:
// a hot-reloadable versioned model registry, a micro-batching fold-in queue
// per model version, cost-aware adaptive admission control, and the HTTP
// layer of cmd/smfld. It is standard-library only, like the rest of the
// repository.
package serve

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"github.com/spatialmf/smfl/internal/core"
	"github.com/spatialmf/smfl/internal/dataset"
	"github.com/spatialmf/smfl/internal/faultinject"
)

// Registry errors surfaced to the admin handlers.
var (
	// ErrUnknownModel is returned for operations on an unregistered name.
	ErrUnknownModel = errors.New("serve: model not registered")
	// ErrNoPreviousVersion is returned by Rollback when the active version
	// is already the oldest retained one.
	ErrNoPreviousVersion = errors.New("serve: no previous version to roll back to")
	// ErrPartialModel is returned by Register/LoadFile for a model tagged
	// Partial — the best-so-far state of an interrupted or diverged fit.
	// Such files exist to be resumed or inspected, not served; finish the
	// training run (smfl -resume) before deploying.
	ErrPartialModel = errors.New("serve: model is a partial training artifact")
)

// Config tunes the serving layer. Zero values take the defaults below.
type Config struct {
	// Window is ignored: a batch flushes as soon as the model's fold-in
	// goroutine is free (see batcher).
	//
	// Deprecated: ignored; kept only so existing callers still compile.
	Window time.Duration

	MaxBatchRows int             // a batch takes no more requests once it holds this many rows (default 256)
	QueueDepth   int             // per-model pending-request cap (default 1024)
	FoldInIters  int             // fold-in updates per row (0 = core.Model.FoldIn's default, 100)
	KeepVersions int             // model versions retained per name for rollback/pinning (default 3)
	Admission    AdmissionConfig // cost-aware admission control (see AdmissionConfig)

	DefaultTimeout   time.Duration // per-request deadline when ?timeout_ms= is absent (default 10s)
	MaxTimeout       time.Duration // ceiling for ?timeout_ms= overrides (default 60s)
	DegradedFallback string        // FallbackAuto (default), FallbackMeans, or FallbackOff
}

func (c Config) withDefaults() Config {
	if c.MaxBatchRows <= 0 {
		c.MaxBatchRows = 256
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 1024
	}
	if c.KeepVersions <= 0 {
		c.KeepVersions = 3
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 10 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 60 * time.Second
	}
	if c.MaxTimeout < c.DefaultTimeout {
		c.MaxTimeout = c.DefaultTimeout
	}
	if c.DegradedFallback == "" {
		c.DegradedFallback = FallbackAuto
	}
	c.Admission = c.Admission.withDefaults()
	return c
}

// Entry is one served model version: the immutable fitted Model, its
// training normalization (nil when the model was saved without one), and the
// micro-batcher that owns its FoldIn calls. Entries are never mutated after
// registration — hot reload appends a new Entry and moves the active
// pointer, so an in-flight request holding an Entry can never observe a torn
// model.
type Entry struct {
	Name     string
	Path     string
	Version  int // monotonically increasing per name, starting at 1
	Model    *core.Model
	Norm     *dataset.Normalizer
	LoadedAt time.Time
	batcher  *batcher
	fallback *fallback // degraded-mode answer path, built at registration
}

// modelVersions is the per-name version chain: entries ascending by Version
// with active indexing the one unpinned requests route to. Rollback moves
// active backwards without discarding the newer entries, so a bad reload can
// be rolled back and, if it turns out fine after all, rolled forward again
// by re-registering (versions are only evicted when a Register pushes the
// chain past KeepVersions).
type modelVersions struct {
	entries []*Entry
	active  int
	nextVer int
}

// Registry is the RWMutex-guarded name → version-chain map behind the
// server. Reads (every impute request) take the read lock only long enough
// to fetch an entry pointer; loads, rollbacks and removals swap indices and
// close displaced batchers outside the lock.
type Registry struct {
	cfg     Config
	metrics *Metrics

	mu     sync.RWMutex
	models map[string]*modelVersions
}

// NewRegistry returns an empty registry; metrics must not be nil.
func NewRegistry(cfg Config, metrics *Metrics) *Registry {
	return &Registry{cfg: cfg.withDefaults(), metrics: metrics, models: make(map[string]*modelVersions)}
}

// Register installs a fitted model as the next version of name and makes it
// active. Older versions stay registered (pinnable via GetVersion, restorable
// via Rollback) until the chain exceeds KeepVersions, at which point the
// oldest inactive entries are evicted and their batchers drained. In-flight
// requests against any displaced entry finish on the model they started with.
func (r *Registry) Register(name string, model *core.Model, path string) (*Entry, error) {
	if name == "" {
		return nil, fmt.Errorf("serve: empty model name")
	}
	if model == nil || model.V == nil {
		return nil, fmt.Errorf("serve: model %q is unfitted", name)
	}
	if model.Partial {
		return nil, fmt.Errorf("%w: %q", ErrPartialModel, name)
	}
	var norm *dataset.Normalizer
	if model.Norm != nil {
		_, cols := model.V.Dims()
		if err := model.Norm.Validate(cols); err != nil {
			return nil, fmt.Errorf("serve: model %q: %w", name, err)
		}
		var err error
		if norm, err = dataset.NewNormalizer(model.Norm.Mins, model.Norm.Maxs); err != nil {
			return nil, fmt.Errorf("serve: model %q: %w", name, err)
		}
	}
	entry := &Entry{
		Name:     name,
		Path:     path,
		Model:    model,
		Norm:     norm,
		LoadedAt: time.Now(),
		batcher:  newBatcher(model, r.cfg, r.metrics),
		fallback: newFallback(model),
	}
	r.mu.Lock()
	mv := r.models[name]
	if mv == nil {
		mv = &modelVersions{nextVer: 1}
		r.models[name] = mv
	}
	entry.Version = mv.nextVer
	mv.nextVer++
	mv.entries = append(mv.entries, entry)
	mv.active = len(mv.entries) - 1
	var evicted []*Entry
	for len(mv.entries) > r.cfg.KeepVersions && mv.active > 0 {
		evicted = append(evicted, mv.entries[0])
		mv.entries = mv.entries[1:]
		mv.active--
	}
	r.mu.Unlock()
	r.metrics.SetModelVersion(name, entry.Version)
	for _, e := range evicted {
		e.batcher.Close()
	}
	return entry, nil
}

// LoadFile reads a .smfl model file of the current wire version and
// registers it. Partial training artifacts are refused with ErrPartialModel.
func (r *Registry) LoadFile(name, path string) (*Entry, error) {
	model, err := core.LoadFile(path)
	if err != nil {
		return nil, fmt.Errorf("serve: load %q from %s: %w", name, path, err)
	}
	if faultinject.Enabled() {
		// An injected load failure must behave exactly like a real one:
		// error out before Register so the previously served version (if
		// any) stays active and untouched.
		if err := faultinject.Fire(faultinject.ServeRegistryLoad, path); err != nil {
			return nil, fmt.Errorf("serve: load %q from %s: %w", name, path, err)
		}
	}
	return r.Register(name, model, path)
}

// Rollback makes the version preceding the active one active again — the
// one-call revert for a bad hot reload. The rolled-back-from version stays
// registered (still pinnable) until evicted by a later Register.
func (r *Registry) Rollback(name string) (*Entry, error) {
	r.mu.Lock()
	mv := r.models[name]
	if mv == nil {
		r.mu.Unlock()
		return nil, ErrUnknownModel
	}
	if mv.active == 0 {
		r.mu.Unlock()
		return nil, ErrNoPreviousVersion
	}
	mv.active--
	e := mv.entries[mv.active]
	r.mu.Unlock()
	r.metrics.SetModelVersion(name, e.Version)
	return e, nil
}

// Get returns the active entry serving name, or false if it is not
// registered.
func (r *Registry) Get(name string) (*Entry, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	mv := r.models[name]
	if mv == nil {
		return nil, false
	}
	return mv.entries[mv.active], true
}

// GetVersion returns a specific retained version of name (the ?version= pin
// for A/B routing), or false if that version is not retained.
func (r *Registry) GetVersion(name string, version int) (*Entry, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	mv := r.models[name]
	if mv == nil {
		return nil, false
	}
	for _, e := range mv.entries {
		if e.Version == version {
			return e, true
		}
	}
	return nil, false
}

// Versions returns the retained version numbers for name (ascending) and the
// active version.
func (r *Registry) Versions(name string) (versions []int, active int, ok bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	mv := r.models[name]
	if mv == nil {
		return nil, 0, false
	}
	versions = make([]int, len(mv.entries))
	for i, e := range mv.entries {
		versions[i] = e.Version
	}
	return versions, mv.entries[mv.active].Version, true
}

// Remove unregisters name, draining the batchers of every retained version.
// It reports whether the model existed.
func (r *Registry) Remove(name string) bool {
	r.mu.Lock()
	mv := r.models[name]
	delete(r.models, name)
	r.mu.Unlock()
	if mv == nil {
		return false
	}
	r.metrics.DropModel(name)
	for _, e := range mv.entries {
		e.batcher.Close()
	}
	return true
}

// Entries returns the active entries sorted by name.
func (r *Registry) Entries() []*Entry {
	r.mu.RLock()
	out := make([]*Entry, 0, len(r.models))
	for _, mv := range r.models {
		out = append(out, mv.entries[mv.active])
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Len returns the number of registered model names.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.models)
}

// Close drains every batcher of every version; the registry is unusable
// afterwards.
func (r *Registry) Close() {
	r.mu.Lock()
	models := r.models
	r.models = make(map[string]*modelVersions)
	r.mu.Unlock()
	for name, mv := range models {
		r.metrics.DropModel(name)
		for _, e := range mv.entries {
			e.batcher.Close()
		}
	}
}
