package serve

import (
	"testing"
	"time"
)

// newTestHealth wires a Health to the fakeClock from admission_test.go so
// the probe cadence is deterministic.
func newTestHealth() (*Health, *fakeClock) {
	h := NewHealth()
	clk := &fakeClock{t: time.Unix(1000, 0)}
	h.now = clk.now
	return h, clk
}

// trip reports the fewest failures that open the breaker.
func trip(h *Health) {
	for i := 0; i < breakerMinSamples; i++ {
		h.Report(false, 0, false)
	}
}

func TestHealthTripsOnFailureRate(t *testing.T) {
	h, _ := newTestHealth()
	if h.State() != Healthy || h.Breaker() != BreakerClosed || h.Route() != RouteReal {
		t.Fatal("fresh Health not healthy/closed/real")
	}
	// Three failures in four: under breakerMinSamples until the last.
	for i := 0; i < breakerMinSamples-1; i++ {
		h.Report(i%4 == 2, time.Millisecond, false)
	}
	if h.State() != Healthy {
		t.Fatal("tripped below breakerMinSamples")
	}
	h.Report(false, 0, false)
	if h.State() != Degraded || h.Breaker() != BreakerOpen {
		t.Fatalf("state %v breaker %v after 3/4 failures, want degraded/open", h.State(), h.Breaker())
	}
	if h.Trips() != 1 {
		t.Fatalf("trips = %d", h.Trips())
	}
}

func TestHealthTripsOnLatencyP95(t *testing.T) {
	h, _ := newTestHealth()
	for i := 0; i < breakerMinSamples; i++ {
		h.Report(true, breakerLatencyP95+time.Second, false) // all succeed, all slow
	}
	if h.State() != Degraded {
		t.Fatal("slow successes did not trip the latency condition")
	}
}

func TestHealthProbeCadenceAndRecovery(t *testing.T) {
	h, clk := newTestHealth()
	trip(h)
	if h.State() != Degraded {
		t.Fatal("not degraded")
	}
	// Immediately after the trip the probe timer restarts: fallback only.
	if r := h.Route(); r != RouteFallback {
		t.Fatalf("route %v right after trip, want fallback", r)
	}
	clk.advance(breakerProbeEvery + 50*time.Millisecond)
	if r := h.Route(); r != RouteProbe {
		t.Fatalf("route %v after breakerProbeEvery elapsed, want probe", r)
	}
	// The slot is claimed: concurrent requests keep falling back.
	if r := h.Route(); r != RouteFallback {
		t.Fatalf("route %v while probe in flight, want fallback", r)
	}
	// Probe failure resets the count and restarts the cadence.
	h.Report(false, 0, true)
	if h.Breaker() != BreakerOpen {
		t.Fatalf("breaker %v after failed probe, want open", h.Breaker())
	}
	for i := 1; i < breakerProbeSuccesses; i++ {
		clk.advance(breakerProbeEvery + 50*time.Millisecond)
		if r := h.Route(); r != RouteProbe {
			t.Fatalf("no probe %d", i)
		}
		h.Report(true, time.Millisecond, true)
		if h.Breaker() != BreakerHalfOpen {
			t.Fatalf("breaker %v after %d good probes, want half-open", h.Breaker(), i)
		}
		if h.State() != Degraded {
			t.Fatalf("closed after %d of %d required probe successes", i, breakerProbeSuccesses)
		}
	}
	clk.advance(breakerProbeEvery + 50*time.Millisecond)
	if r := h.Route(); r != RouteProbe {
		t.Fatal("no last probe")
	}
	h.Report(true, time.Millisecond, true)
	if h.State() != Healthy || h.Breaker() != BreakerClosed {
		t.Fatalf("state %v breaker %v after recovery, want healthy/closed", h.State(), h.Breaker())
	}
	// The window was reset: old failures must not re-trip instantly.
	h.Report(false, 0, false)
	if h.State() != Healthy {
		t.Fatal("stale window survived recovery")
	}
}

func TestHealthAbortReleasesProbeSlot(t *testing.T) {
	h, clk := newTestHealth()
	trip(h)
	clk.advance(breakerProbeEvery + 50*time.Millisecond)
	if h.Route() != RouteProbe {
		t.Fatal("no probe")
	}
	// The probe was shed before testing the real path: slot released, cadence
	// backed off so the next probe waits a full interval.
	h.Abort(true)
	if h.Route() != RouteFallback {
		t.Fatal("aborted probe did not back off the cadence")
	}
	clk.advance(breakerProbeEvery + 50*time.Millisecond)
	if h.Route() != RouteProbe {
		t.Fatal("no probe after backoff interval")
	}
	h.Report(true, time.Millisecond, true)
	if h.Breaker() != BreakerHalfOpen {
		t.Fatalf("breaker %v after a good probe, want half-open", h.Breaker())
	}
}

func TestHealthDrainingIsTerminal(t *testing.T) {
	h, _ := newTestHealth()
	h.SetDraining()
	if h.State() != Draining || !h.Draining() {
		t.Fatal("not draining")
	}
	if h.State().String() != "draining" {
		t.Fatalf("draining String() = %q", h.State().String())
	}
	// Outcomes while draining change nothing.
	trip(h)
	if h.State() != Draining {
		t.Fatal("left draining")
	}
	if h.Breaker() != BreakerClosed {
		t.Fatalf("breaker %v while draining, want closed (moot)", h.Breaker())
	}
}

func TestHealthLateReportsAfterTripIgnored(t *testing.T) {
	h, _ := newTestHealth()
	trip(h)
	if h.State() != Degraded {
		t.Fatal("not degraded")
	}
	// A request admitted before the trip reports late: it must not touch the
	// half-open bookkeeping.
	h.Report(true, time.Millisecond, false)
	if h.Breaker() != BreakerOpen {
		t.Fatalf("late non-probe report moved the breaker to %v", h.Breaker())
	}
}
