package core

import (
	"fmt"
	"math"

	"github.com/spatialmf/smfl/internal/faultinject"
	"github.com/spatialmf/smfl/internal/mat"
)

// FitFault is the payload delivered at the faultinject.FitIter point, fired
// once per iteration before the factor updates. Hooks may mutate U/V in place
// (the divergence watchdog must then detect and repair the corruption) or
// return an error to abort the fit with a partial model.
type FitFault struct {
	Method Method
	Iter   int
	U, V   *mat.Dense
}

// FoldInFault is the payload at the faultinject.FoldInIter point.
type FoldInFault struct {
	Iter int
	U    *mat.Dense
}

// PersistFault is the payload at the persist.* points.
type PersistFault struct {
	Path string
}

// trainer carries the fault-tolerance state of the iteration loop:
// cancellation, checkpoint cadence, and the divergence watchdog's last-good
// snapshot. One trainer serves exactly one fit or resume call.
type trainer struct {
	cfg    Config
	method Method

	ckptPath  string
	ckptEvery int
	hash      uint64 // fitHash of the training input and solver config

	// Watchdog state. goodU/goodV snapshot the factors after the last
	// healthy iteration; restores CopyFrom into the live factors so the
	// backing slices hoisted by the update kernels stay valid.
	goodU, goodV *mat.Dense
	haveGood     bool
	goodObj      float64
	retries      int

	// stepScale multiplies the GD learning rate; the watchdog halves it on
	// each rollback. jitter is the splitmix64 state behind the multiplicative
	// re-jitter. Both are persisted in checkpoints so a resumed run replays
	// the identical trajectory.
	stepScale float64
	jitter    uint64

	// Stochastic-updater state (SGD/SVRG), checkpointed alongside the
	// factors so resumed runs replay bit-identically. sample is the batch
	// sampler's RNG position as of the last committed epoch. anchorU/anchorV
	// are SVRG's variance-reduction anchor, gradV the anchor's full observed
	// V-gradient, and anchorAge the committed epochs since the last refresh
	// (all nil/zero for SGD and fresh SVRG fits).
	sample    uint64
	anchorU   *mat.Dense
	anchorV   *mat.Dense
	gradV     *mat.Dense
	anchorAge int
}

// newTrainer builds the trainer for a fresh Fit. cfg must already have
// defaults applied.
func newTrainer(method Method, cfg Config) *trainer {
	return &trainer{
		cfg:       cfg,
		method:    method,
		ckptPath:  cfg.CheckpointPath,
		ckptEvery: cfg.CheckpointEvery,
		stepScale: 1,
		jitter:    uint64(cfg.Seed) ^ 0xda3e39cb94b95bdb,
		sample:    uint64(cfg.Seed) ^ 0x6a09e667f3bcc908,
	}
}

// begin allocates the watchdog snapshot from the model's current (initial or
// resumed) factors.
func (tr *trainer) begin(model *Model) {
	tr.goodU = model.U.Clone()
	tr.goodV = model.V.Clone()
	tr.goodObj = lastObj(model)
	tr.haveGood = len(model.Objective) > 0
}

// lastObj returns the objective after the most recent committed iteration,
// or +Inf before the first one — the prevObj the convergence test compares
// against. Deriving it from the history (rather than storing it separately)
// keeps resumed runs trivially consistent.
func lastObj(model *Model) float64 {
	if len(model.Objective) == 0 {
		return math.Inf(1)
	}
	return model.Objective[len(model.Objective)-1]
}

// interrupted checks Config.Ctx at an iteration boundary. On cancellation it
// tags the model partial, writes a final checkpoint when configured (so the
// cancelled work is resumable with zero iterations lost), and returns an
// error wrapping both ErrInterrupted and the context error.
func (tr *trainer) interrupted(model *Model) error {
	if tr.cfg.Ctx == nil {
		return nil
	}
	err := tr.cfg.Ctx.Err()
	if err == nil {
		return nil
	}
	model.Partial = true
	if cerr := tr.maybeCheckpoint(model, true); cerr != nil {
		return fmt.Errorf("%w after %d iterations: %w (final checkpoint failed: %v)",
			ErrInterrupted, model.Iters, err, cerr)
	}
	return fmt.Errorf("%w after %d iterations: %w", ErrInterrupted, model.Iters, err)
}

// fireIterFault hits the per-iteration fault point. A hook-returned error is
// treated like an unrecoverable kernel failure: the fit aborts with the
// best-so-far model tagged partial.
func (tr *trainer) fireIterFault(model *Model, it int) error {
	if !faultinject.Enabled() {
		return nil
	}
	if err := faultinject.Fire(faultinject.FitIter, &FitFault{Method: tr.method, Iter: it, U: model.U, V: model.V}); err != nil {
		model.Partial = true
		return fmt.Errorf("core: fit iteration %d: %w", it, err)
	}
	return nil
}

// healthy screens the just-computed iteration. The fused masked objective
// pass already propagates any NaN/Inf reachable through observed entries
// into obj, so obj doubles as the Ω-side finiteness scan; the two FiniteAll
// sweeps (one pooled dispatch per factor, O((N+M)·K) against the iteration's
// O(|Ω|·K)) cover factor entries outside Ω that the objective never touches.
func (tr *trainer) healthy(obj float64, u, v *mat.Dense) (ok bool, reason string) {
	if !mat.FiniteAll(u) {
		return false, "non-finite U"
	}
	if !mat.FiniteAll(v) {
		return false, "non-finite V"
	}
	if math.IsNaN(obj) || math.IsInf(obj, 0) {
		return false, "non-finite objective"
	}
	if tr.haveGood && obj > watchdogExplode*math.Max(tr.goodObj, 1e-9) {
		return false, fmt.Sprintf("objective explosion %.3g -> %.3g", tr.goodObj, obj)
	}
	return true, ""
}

// recover rolls the factors back to the last healthy snapshot and perturbs
// the dynamics so the retry does not replay the same divergence: the
// multiplicative updater re-jitters the offending factor (its fixed point is
// deterministic, so an unperturbed retry would diverge identically), the
// gradient-descent updater halves its step. Returns a DivergenceError once
// the consecutive-retry budget is exhausted, leaving the model at the last
// good state, tagged partial.
func (tr *trainer) recover(model *Model, it int, reason string) error {
	tr.retries++
	if tr.retries > watchdogRetries {
		model.U.CopyFrom(tr.goodU)
		model.V.CopyFrom(tr.goodV)
		model.Partial = true
		return &DivergenceError{
			Method: tr.method, Updater: tr.cfg.Updater,
			Iter: it, Retries: tr.retries - 1, Reason: reason,
		}
	}
	offendV := reason == "non-finite V"
	model.U.CopyFrom(tr.goodU)
	model.V.CopyFrom(tr.goodV)
	model.Recoveries++
	switch tr.cfg.Updater {
	case GradientDescent, SGD, SVRG:
		// Learning-rate backoff; the stochastic runners additionally rewind
		// their sampler/anchor state before retrying the epoch.
		tr.stepScale *= 0.5
	default:
		if offendV {
			tr.jitterFactor(model.V, model.startCol())
		} else {
			tr.jitterFactor(model.U, 0)
		}
	}
	return nil
}

// commit records a healthy iteration: snapshot the factors, remember the
// objective, reset the consecutive-retry counter.
func (tr *trainer) commit(model *Model, obj float64) {
	tr.retries = 0
	tr.goodU.CopyFrom(model.U)
	tr.goodV.CopyFrom(model.V)
	tr.goodObj = obj
	tr.haveGood = true
}

// loop is the iteration driver every updater shares. From model.Iters up to
// MaxIter it checks cancellation, fires the per-iteration fault point, runs
// step (the updater's arithmetic for one iteration or epoch, returning the
// objective), and screens the result with the divergence watchdog. A failed
// screen calls rewind (when non-nil) to restore updater state that the
// factor rollback does not cover, then rolls back and retries the same
// iteration. A healthy one is appended to the history, keep (when non-nil)
// records updater state, and the trainer commits, tests convergence and
// checkpoints — keep runs before the commit so the checkpoint carries it.
func (tr *trainer) loop(model *Model, step func() float64, rewind, keep func()) error {
	cfg := tr.cfg
	for it := model.Iters; it < cfg.MaxIter; {
		if err := tr.interrupted(model); err != nil {
			return err
		}
		if err := tr.fireIterFault(model, it); err != nil {
			return err
		}
		obj := step()
		if ok, reason := tr.healthy(obj, model.U, model.V); !ok {
			if rewind != nil {
				rewind()
			}
			if err := tr.recover(model, it, reason); err != nil {
				return err
			}
			continue
		}

		prevObj := lastObj(model)
		model.Objective = append(model.Objective, obj)
		model.Iters = it + 1
		if keep != nil {
			keep()
		}
		tr.commit(model, obj)
		if !math.IsInf(prevObj, 1) && math.Abs(prevObj-obj) <= cfg.Tol*math.Max(prevObj, 1e-12) {
			model.Converged = true
		}
		it++
		if err := tr.maybeCheckpoint(model, model.Converged || it == cfg.MaxIter); err != nil {
			model.Partial = true
			return err
		}
		if model.Converged {
			break
		}
	}
	return nil
}

// maybeCheckpoint writes an atomic checkpoint when one is configured and due
// (every ckptEvery committed iterations, or unconditionally when force).
func (tr *trainer) maybeCheckpoint(model *Model, force bool) error {
	if tr.ckptPath == "" {
		return nil
	}
	if !force && (tr.ckptEvery <= 0 || model.Iters == 0 || model.Iters%tr.ckptEvery != 0) {
		return nil
	}
	return tr.writeCheckpoint(model)
}

// jitterFactor multiplies the positive entries of f (columns >= c0; landmark
// columns stay frozen) by 1+δ with seeded δ ∈ (0, 0.05], and lifts exact
// zeros slightly — a zero is an absorbing state of the multiplicative rule,
// so a divergence that zeroed a row could never be escaped otherwise.
func (tr *trainer) jitterFactor(f *mat.Dense, c0 int) {
	_, cols := f.Dims()
	d := f.Data()
	for i := range d {
		if i%cols < c0 {
			continue
		}
		r := tr.nextJitter()
		if d[i] > 0 {
			d[i] *= 1 + 0.05*r
		} else {
			d[i] = 1e-8 * (r + 1e-3)
		}
	}
}

// nextJitter advances the splitmix64 state and returns a float in [0, 1).
func (tr *trainer) nextJitter() float64 {
	tr.jitter += 0x9e3779b97f4a7c15
	z := tr.jitter
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4b5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return float64(z>>11) / (1 << 53)
}

// startCol returns the first non-frozen column of V (landmark columns are
// pinned under SMFL).
func (m *Model) startCol() int {
	if m.Method == SMFL {
		return m.L
	}
	return 0
}
