package serve

import (
	"sync"
	"time"
)

// State is the server's coarse health, reported by /healthz and steering how
// impute requests are answered.
type State int32

const (
	// Healthy routes every request through the real fold-in path.
	Healthy State = iota
	// Degraded answers impute requests from the cheap fallback (column
	// means, or the landmark placer's Shepard warm start) while half-open
	// probes test whether the real path has recovered.
	Degraded
	// Draining is the terminal shutdown state: new impute requests get
	// clean 503s while in-flight ones finish.
	Draining
)

func (s State) String() string {
	switch s {
	case Healthy:
		return "ok"
	case Degraded:
		return "degraded"
	case Draining:
		return "draining"
	}
	return "unknown"
}

// BreakerState is the classic circuit-breaker view of Health, exposed as the
// smfld_breaker_state gauge.
type BreakerState int

const (
	// BreakerClosed: requests flow through the real path.
	BreakerClosed BreakerState = iota
	// BreakerHalfOpen: degraded, and a probe is in flight or has partially
	// succeeded — the breaker is testing the real path.
	BreakerHalfOpen
	// BreakerOpen: degraded with no active probe.
	BreakerOpen
)

// Route tells the impute handler how to answer one request.
type Route int

const (
	// RouteReal: the full admission + coalesced fold-in path.
	RouteReal Route = iota
	// RouteFallback: answer from the degraded fallback, marked as such.
	RouteFallback
	// RouteProbe: the real path, but its outcome decides breaker recovery.
	// Exactly one Report or Abort with probe=true must follow.
	RouteProbe
)

// The circuit breaker driving the health state machine.
const (
	breakerWindow         = 64                     // recent real-path outcomes considered
	breakerMinSamples     = 16                     // outcomes required before the breaker may trip
	breakerFailureRate    = 0.5                    // trip when failures/window ≥ this
	breakerLatencyP95     = 2 * time.Second        // trip when the window's success-latency p95 exceeds this
	breakerProbeEvery     = 250 * time.Millisecond // half-open probe cadence while degraded
	breakerProbeSuccesses = 3                      // consecutive probe successes that close the breaker
)

// outcome is one real-path request result: failed fold-ins, recovered
// panics, and deadline expiries count as failures; successes carry their
// batch latency for the p95 trip condition.
type outcome struct {
	ok  bool
	lat float64 // seconds, successes only
}

// Health is the healthy → degraded → draining state machine, driven by a
// circuit breaker over the fold-in failure rate and success-latency p95 of a
// sliding window of real-path outcomes. While degraded, Route hands out one
// half-open probe per breakerProbeEvery; breakerProbeSuccesses consecutive
// probe successes close the breaker. Draining is entered once via
// SetDraining and never left. All methods are goroutine-safe.
type Health struct {
	now func() time.Time

	mu        sync.Mutex
	state     State
	ring      []outcome // last breakerWindow real-path outcomes (healthy state only)
	next      int       // ring write cursor
	filled    int       // outcomes recorded, capped at breakerWindow
	trips     uint64    // breaker trips (healthy → degraded transitions)
	lastProbe time.Time
	probing   bool // a RouteProbe is in flight
	probeOK   int  // consecutive probe successes
}

// NewHealth returns a healthy state machine.
func NewHealth() *Health {
	return &Health{now: time.Now}
}

// State returns the current health state.
func (h *Health) State() State {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.state
}

// Breaker returns the circuit-breaker view: closed while healthy (and while
// draining — the breaker is moot), open while degraded, half-open while a
// probe is in flight or partially succeeded.
func (h *Health) Breaker() BreakerState {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.state != Degraded {
		return BreakerClosed
	}
	if h.probing || h.probeOK > 0 {
		return BreakerHalfOpen
	}
	return BreakerOpen
}

// Trips returns the number of healthy → degraded transitions so far.
func (h *Health) Trips() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.trips
}

// SetDraining moves to the terminal draining state (shutdown has begun).
func (h *Health) SetDraining() {
	h.mu.Lock()
	h.state = Draining
	h.mu.Unlock()
}

// Draining reports whether shutdown has begun.
func (h *Health) Draining() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.state == Draining
}

// Route decides how the next impute request is answered. A returned
// RouteProbe claims the half-open slot: the caller must follow up with
// exactly one Report or Abort carrying probe=true.
func (h *Health) Route() Route {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.state != Degraded {
		return RouteReal
	}
	now := h.now()
	if !h.probing && now.Sub(h.lastProbe) >= breakerProbeEvery {
		h.probing = true
		h.lastProbe = now
		return RouteProbe
	}
	return RouteFallback
}

// Report records one real-path outcome. While healthy it feeds the breaker
// window and may trip the state to degraded; a probe outcome advances or
// resets the half-open recovery count.
func (h *Health) Report(ok bool, latency time.Duration, probe bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if probe {
		h.probing = false
		if h.state != Degraded {
			return // recovered (or draining) while the probe was in flight
		}
		if !ok {
			h.probeOK = 0
			h.lastProbe = h.now()
			return
		}
		h.probeOK++
		if h.probeOK >= breakerProbeSuccesses {
			h.state = Healthy
			h.resetRingLocked()
			h.probeOK = 0
		}
		return
	}
	if h.state != Healthy {
		// Requests admitted before a trip (or during draining) still report;
		// they must not perturb the half-open bookkeeping.
		return
	}
	o := outcome{ok: ok}
	if ok {
		o.lat = latency.Seconds()
	}
	if len(h.ring) == 0 {
		h.ring = make([]outcome, breakerWindow)
	}
	h.ring[h.next] = o
	h.next = (h.next + 1) % breakerWindow
	if h.filled < breakerWindow {
		h.filled++
	}
	if h.tripLocked() {
		h.state = Degraded
		h.trips++
		h.resetRingLocked()
		h.lastProbe = h.now()
		h.probeOK = 0
		h.probing = false
	}
}

// Abort releases a claimed probe slot without recording an outcome — for
// probes shed before reaching the fold-in path (admission reject, queue
// full, client gone before compute).
func (h *Health) Abort(probe bool) {
	if !probe {
		return
	}
	h.mu.Lock()
	h.probing = false
	h.lastProbe = h.now() // back off: the real path was not actually tested
	h.mu.Unlock()
}

func (h *Health) resetRingLocked() {
	h.next, h.filled = 0, 0
}

// tripLocked evaluates the breaker over the current window: enough samples
// and either the failure rate or the success-latency p95 over threshold.
func (h *Health) tripLocked() bool {
	if h.filled < breakerMinSamples {
		return false
	}
	fails := 0
	lats := make([]float64, 0, h.filled)
	for i := 0; i < h.filled; i++ {
		if h.ring[i].ok {
			lats = append(lats, h.ring[i].lat)
		} else {
			fails++
		}
	}
	if float64(fails)/float64(h.filled) >= breakerFailureRate {
		return true
	}
	return len(lats) > 0 && quantile(lats, 0.95) > breakerLatencyP95.Seconds()
}
