package serve

import (
	"math"
	"sort"
	"sync"
	"time"

	"github.com/spatialmf/smfl/internal/mat"
)

// AdmissionConfig tunes the cost-aware admission controller. Zero values
// take the defaults below.
//
// Cost is measured in observed cells: a request's projected cost is
// rows × observed-column count (see requestCost), which is what FoldIn's
// masked kernels actually pay, so a 256-row bulk impute consumes the window
// 256× faster than a single-row probe instead of counting as one request.
type AdmissionConfig struct {
	MaxCost   int64         // admitted in-flight cost ceiling (default 65536 cells)
	MinCost   int64         // adaptive window floor (default MaxCost/16)
	TargetP95 time.Duration // p95 batch latency target (default 250ms)
}

// The controller's fixed dynamics.
const (
	admitRecoverRatio  = 0.8                    // regrow only when p95 < admitRecoverRatio·TargetP95
	admitShrinkFactor  = 0.5                    // window ← window·admitShrinkFactor on a breach
	admitGrowFraction  = 0.125                  // window ← window + admitGrowFraction·MaxCost on recovery
	admitAdaptEvery    = 250 * time.Millisecond // adaptation cadence
	admitMaxRetryAfter = 30 * time.Second       // Retry-After clamp
)

func (c AdmissionConfig) withDefaults() AdmissionConfig {
	if c.MaxCost <= 0 {
		c.MaxCost = 65536
	}
	if c.MinCost <= 0 {
		c.MinCost = c.MaxCost / 16
		if c.MinCost < 1 {
			c.MinCost = 1
		}
	}
	if c.MinCost > c.MaxCost {
		c.MinCost = c.MaxCost
	}
	if c.TargetP95 <= 0 {
		c.TargetP95 = 250 * time.Millisecond
	}
	return c
}

// requestCost is the projected row-cost of one impute request: the number of
// observed cells FoldIn will contract against V (at least 1, so degenerate
// requests still consume a slot).
func requestCost(mask *mat.Mask) int64 {
	c := int64(mask.Count())
	if c < 1 {
		c = 1
	}
	return c
}

// Admission is an adaptive cost-aware admission controller (AIMD over an
// in-flight cost window). Requests are admitted while the sum of admitted
// costs fits the current window; the window shrinks multiplicatively when
// the p95 of recent batch latencies exceeds the target and regrows
// additively once latency recovers (with a hysteresis band between
// admitRecoverRatio·target and target where it holds still). Rejected
// requests get a Retry-After estimate computed from the observed cost drain
// rate.
//
// Adaptation is driven lazily from Admit/Release using the injected clock —
// there is no background goroutine, so tests substitute a fake clock and
// never sleep.
type Admission struct {
	cfg AdmissionConfig
	now func() time.Time

	mu        sync.Mutex
	window    int64     // current admitted-cost capacity
	admitted  int64     // cost currently in flight
	samples   []float64 // batch latencies (seconds) observed this epoch
	released  int64     // cost released this epoch (drain-rate input)
	costRate  float64   // EWMA of released cost per second
	lastAdapt time.Time
}

// NewAdmission returns a controller whose window starts at cfg.MaxCost.
func NewAdmission(cfg AdmissionConfig) *Admission {
	cfg = cfg.withDefaults()
	return &Admission{cfg: cfg, now: time.Now, window: cfg.MaxCost}
}

// Admit asks to put cost in flight. On success the caller must pair it with
// exactly one Release or ReleaseDropped. A request larger than the whole
// window is admitted when nothing else is in flight, so oversized batches
// cannot starve. On rejection it returns the computed Retry-After hint.
func (a *Admission) Admit(cost int64) (ok bool, retryAfter time.Duration) {
	if cost < 1 {
		cost = 1
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.adaptLocked(a.now())
	if a.admitted+cost <= a.window || a.admitted == 0 {
		a.admitted += cost
		return true, 0
	}
	return false, a.retryAfterLocked(cost)
}

// Release returns cost to the window, counts it toward the drain-rate
// estimate, and records the request's batch latency (queue wait + solve) as
// a p95 sample for the adaptive controller.
func (a *Admission) Release(cost int64, batchLatency time.Duration) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if cost < 1 {
		cost = 1
	}
	a.releaseLocked(cost)
	a.released += cost
	a.samples = append(a.samples, batchLatency.Seconds())
	a.adaptLocked(a.now())
}

// ReleaseDropped returns cost without recording a latency sample or drain
// throughput — for requests that were admitted but then shed downstream
// (queue full): they never drained through a batch, so their near-zero
// turnaround would corrupt both the p95 estimate and the Retry-After rate.
func (a *Admission) ReleaseDropped(cost int64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if cost < 1 {
		cost = 1
	}
	a.releaseLocked(cost)
	a.adaptLocked(a.now())
}

func (a *Admission) releaseLocked(cost int64) {
	a.admitted -= cost
	if a.admitted < 0 {
		a.admitted = 0
	}
}

// RetryAfter estimates how long a caller of the given cost should wait
// before retrying, from the current backlog and observed drain rate.
func (a *Admission) RetryAfter(cost int64) time.Duration {
	if cost < 1 {
		cost = 1
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.retryAfterLocked(cost)
}

// State reports the current window capacity and admitted in-flight cost
// (exposed as gauges on /metrics).
func (a *Admission) State() (window, admitted int64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.window, a.admitted
}

// retryAfterLocked computes ceil(need/rate) seconds, clamped to
// [1s, admitMaxRetryAfter], where need is the cost that must drain before
// the caller fits and rate is the EWMA drain throughput (1s floor when the
// controller has not observed any drain yet).
func (a *Admission) retryAfterLocked(cost int64) time.Duration {
	need := a.admitted + cost - a.window
	if need < cost {
		need = cost // shed with a free window (downstream queue full): at least one batch must drain
	}
	secs := 1.0
	if a.costRate > 0 {
		secs = float64(need) / a.costRate
	}
	d := time.Duration(math.Ceil(secs)) * time.Second
	if d < time.Second {
		d = time.Second
	}
	if d > admitMaxRetryAfter {
		d = admitMaxRetryAfter
	}
	return d
}

// adaptLocked runs one controller step when admitAdaptEvery has elapsed:
// fold the epoch's released cost into the drain-rate EWMA, then shrink or
// regrow the window from the epoch's p95 latency. An idle epoch (no samples) regrows —
// the overload that shrank the window is over.
func (a *Admission) adaptLocked(now time.Time) {
	if a.lastAdapt.IsZero() {
		a.lastAdapt = now
		return
	}
	elapsed := now.Sub(a.lastAdapt)
	if elapsed < admitAdaptEvery {
		return
	}
	rate := float64(a.released) / elapsed.Seconds()
	if a.costRate == 0 { //lint:ignore floatcmp first sample initializes the EWMA
		a.costRate = rate
	} else {
		a.costRate = 0.3*rate + 0.7*a.costRate
	}
	a.released = 0

	target := a.cfg.TargetP95.Seconds()
	if len(a.samples) > 0 {
		p95 := quantile(a.samples, 0.95)
		switch {
		case p95 > target:
			a.window = int64(float64(a.window) * admitShrinkFactor)
			if a.window < a.cfg.MinCost {
				a.window = a.cfg.MinCost
			}
		case p95 < admitRecoverRatio*target:
			a.grow()
		}
		a.samples = a.samples[:0]
	} else {
		a.grow()
	}
	a.lastAdapt = now
}

func (a *Admission) grow() {
	a.window += int64(admitGrowFraction * float64(a.cfg.MaxCost))
	if a.window > a.cfg.MaxCost {
		a.window = a.cfg.MaxCost
	}
}

// quantile is the nearest-rank q-quantile of xs (not mutated).
func quantile(xs []float64, q float64) float64 {
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	idx := int(math.Ceil(q*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}
