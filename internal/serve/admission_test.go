package serve

import (
	"testing"
	"time"

	"github.com/spatialmf/smfl/internal/mat"
)

// fakeClock drives an Admission deterministically: no test in this file
// sleeps.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }
func newFakeAdmission(cfg AdmissionConfig) (*Admission, *fakeClock) {
	a := NewAdmission(cfg)
	clk := &fakeClock{t: time.Unix(1700000000, 0)}
	a.now = clk.now
	return a, clk
}

func TestRequestCost(t *testing.T) {
	full := mat.FullMask(4, 6)
	half := mat.NewMask(2, 6)
	for j := 0; j < 3; j++ {
		half.Observe(0, j)
		half.Observe(1, j)
	}
	single := mat.NewMask(1, 6)
	single.Observe(0, 2)
	empty := mat.NewMask(3, 6)
	cases := []struct {
		name string
		mask *mat.Mask
		want int64
	}{
		{"rows x all columns", full, 24},
		{"rows x half the columns", half, 6},
		{"one observed cell", single, 1},
		{"empty mask floors at 1", empty, 1},
	}
	for _, tc := range cases {
		if got := requestCost(tc.mask); got != tc.want {
			t.Errorf("%s: cost %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestAdmissionWindowAccounting(t *testing.T) {
	a, _ := newFakeAdmission(AdmissionConfig{MaxCost: 100})
	if ok, _ := a.Admit(60); !ok {
		t.Fatal("first request rejected with an empty window")
	}
	if ok, _ := a.Admit(40); !ok {
		t.Fatal("request fitting the window exactly rejected")
	}
	if ok, retry := a.Admit(1); ok {
		t.Fatal("request admitted over a full window")
	} else if retry < time.Second {
		t.Fatalf("Retry-After %v below the 1s floor", retry)
	}
	a.ReleaseDropped(40)
	if ok, _ := a.Admit(30); !ok {
		t.Fatal("request rejected after release freed capacity")
	}
	if _, admitted := a.State(); admitted != 90 {
		t.Fatalf("admitted cost %d, want 90", admitted)
	}
}

func TestAdmissionOversizedRequestNotStarved(t *testing.T) {
	a, _ := newFakeAdmission(AdmissionConfig{MaxCost: 10})
	// Larger than the whole window: admitted alone.
	if ok, _ := a.Admit(500); !ok {
		t.Fatal("oversized request starved on an idle controller")
	}
	if ok, _ := a.Admit(1); ok {
		t.Fatal("request admitted alongside an oversized one")
	}
	a.ReleaseDropped(500)
	if ok, _ := a.Admit(1); !ok {
		t.Fatal("controller stuck after oversized release")
	}
}

// fillEpoch admits and releases one request of the given cost and latency so
// the epoch has a p95 sample, then advances past the adaptation interval and
// pokes the controller.
func fillEpoch(a *Admission, clk *fakeClock, cost int64, latency time.Duration, n int) {
	for i := 0; i < n; i++ {
		a.Admit(cost)
		a.Release(cost, latency)
	}
	clk.advance(admitAdaptEvery + time.Millisecond)
	a.Admit(0) // lazy adaptation runs on the next call
	a.ReleaseDropped(0)
}

func TestAdmissionShrinkRegrowHysteresis(t *testing.T) {
	cfg := AdmissionConfig{
		MaxCost:   1000,
		MinCost:   100,
		TargetP95: 100 * time.Millisecond,
	}
	a, clk := newFakeAdmission(cfg)
	clk.advance(time.Millisecond)
	a.Admit(0) // arm lastAdapt
	a.ReleaseDropped(0)

	steps := []struct {
		name    string
		latency time.Duration
		want    int64
	}{
		{"p95 over target shrinks multiplicatively", 150 * time.Millisecond, 500},
		{"second breach shrinks again", 200 * time.Millisecond, 250},
		{"keeps shrinking to the floor", time.Second, 125},
		{"floor holds", time.Second, 100},
		{"hysteresis band holds the window still", 90 * time.Millisecond, 100},
		{"recovery regrows additively", 10 * time.Millisecond, 225},
		{"second recovery epoch regrows again", 10 * time.Millisecond, 350},
		{"band between recover and target still holds", 85 * time.Millisecond, 350},
	}
	for _, step := range steps {
		fillEpoch(a, clk, 10, step.latency, 4)
		if window, _ := a.State(); window != step.want {
			t.Fatalf("%s: window %d, want %d", step.name, window, step.want)
		}
	}

	// Idle epochs (no samples at all) regrow toward the ceiling.
	for i := 0; i < 20; i++ {
		clk.advance(admitAdaptEvery + time.Millisecond)
		a.Admit(0)
		a.ReleaseDropped(0)
	}
	if window, _ := a.State(); window != cfg.MaxCost {
		t.Fatalf("idle recovery window %d, want ceiling %d", window, cfg.MaxCost)
	}
}

func TestAdmissionP95NotMean(t *testing.T) {
	cfg := AdmissionConfig{MaxCost: 1000, MinCost: 100, TargetP95: 100 * time.Millisecond}
	a, clk := newFakeAdmission(cfg)
	clk.advance(time.Millisecond)
	a.Admit(0)
	a.ReleaseDropped(0)
	// 10 fast requests and 1 slow: the mean (~46ms) is far under the 100ms
	// target but the nearest-rank p95 over 11 samples is the slowest one,
	// which breaches it.
	for i := 0; i < 10; i++ {
		a.Admit(1)
		a.Release(1, time.Millisecond)
	}
	a.Admit(1)
	a.Release(1, 500*time.Millisecond)
	clk.advance(admitAdaptEvery + time.Millisecond)
	a.Admit(0)
	a.ReleaseDropped(0)
	if window, _ := a.State(); window != 500 {
		t.Fatalf("window %d after tail-latency breach, want 500", window)
	}
}

func TestAdmissionRetryAfter(t *testing.T) {
	cfg := AdmissionConfig{
		MaxCost: 100, MinCost: 100, TargetP95: time.Hour, // window never moves
	}
	a, clk := newFakeAdmission(cfg)
	clk.advance(time.Millisecond)
	a.Admit(0)
	a.ReleaseDropped(0)

	// No drain observed yet: the conservative 1s floor.
	a.Admit(100)
	if _, retry := a.Admit(10); retry != time.Second {
		t.Fatalf("cold Retry-After %v, want 1s", retry)
	}
	a.ReleaseDropped(100)

	// Establish a measured drain rate of 50 cost/sec.
	a.Admit(50)
	a.Release(50, 10*time.Millisecond)
	clk.advance(time.Second)
	a.Admit(0)
	a.ReleaseDropped(0)

	a.Admit(100) // window full again
	cases := []struct {
		cost int64
		want time.Duration
	}{
		// need = admitted + cost − window = cost here; ceil(need/50)s.
		{25, time.Second},
		{50, time.Second},
		{60, 2 * time.Second},
		{100, 2 * time.Second},
		{10000, admitMaxRetryAfter}, // clamped
	}
	for _, tc := range cases {
		if got := a.RetryAfter(tc.cost); got != tc.want {
			t.Errorf("RetryAfter(%d) = %v, want %v", tc.cost, got, tc.want)
		}
	}
}

func TestQuantileNearestRank(t *testing.T) {
	cases := []struct {
		xs   []float64
		q    float64
		want float64
	}{
		{[]float64{1}, 0.95, 1},
		{[]float64{1, 2, 3, 4}, 0.5, 2},
		{[]float64{4, 3, 2, 1}, 0.95, 4},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 0.95, 10},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20}, 0.95, 19},
	}
	for _, tc := range cases {
		if got := quantile(tc.xs, tc.q); got != tc.want {
			t.Errorf("quantile(%v, %v) = %v, want %v", tc.xs, tc.q, got, tc.want)
		}
	}
}
