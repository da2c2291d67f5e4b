package serve

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/spatialmf/smfl/internal/faultinject"
)

// lifecycleServer spins up a served fixture model with cfg and returns the
// test server plus its pieces.
func lifecycleServer(t *testing.T, cfg Config) (*httptest.Server, *Server, *Metrics) {
	t.Helper()
	path, _, _ := fixture(t)
	metrics := NewMetrics()
	registry := NewRegistry(cfg, metrics)
	t.Cleanup(registry.Close)
	if _, err := registry.LoadFile("air", path); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(registry, metrics)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, srv, metrics
}

// lifecycleRow is a fully observed single-row impute body against the
// fixture model (6 columns).
func lifecycleRow(t *testing.T, ts *httptest.Server) imputeRequest {
	t.Helper()
	// Mid-range values are always within the training normalization.
	vals := []float64{40.0, 116.5, 0.5, 50.0, 50.0, 50.0}
	return imputeRequestFromValues(vals)
}

func imputeRequestFromValues(vals []float64) imputeRequest {
	cells := make([]*float64, len(vals))
	for i := range vals {
		v := vals[i]
		cells[i] = &v
	}
	return imputeRequest{Rows: [][]*float64{cells}}
}

func TestWriteOverloadedClampsToBudget(t *testing.T) {
	cases := []struct {
		retryAfter, budget time.Duration
		want               string
	}{
		{30 * time.Second, 0, "30"},                     // no explicit budget: hint unclamped
		{30 * time.Second, 5 * time.Second, "5"},        // clamped to the requester's remaining deadline
		{2 * time.Second, 5 * time.Second, "2"},         // budget above the hint: untouched
		{30 * time.Second, 200 * time.Millisecond, "1"}, // never below the 1s floor
	}
	for _, tc := range cases {
		rec := httptest.NewRecorder()
		writeOverloaded(rec, tc.retryAfter, tc.budget, "x")
		if got := rec.Header().Get("Retry-After"); got != tc.want {
			t.Errorf("writeOverloaded(%v, %v): Retry-After = %q, want %q", tc.retryAfter, tc.budget, got, tc.want)
		}
		var body overloadBody
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
			t.Fatal(err)
		}
		if want, _ := strconv.ParseInt(tc.want, 10, 64); body.RetryAfterSeconds != want {
			t.Errorf("body hint %d, want %s", body.RetryAfterSeconds, tc.want)
		}
	}
}

func TestBadTimeoutMsRejected(t *testing.T) {
	ts, _, _ := lifecycleServer(t, Config{})
	for _, v := range []string{"nope", "-5", "0", "1.5"} {
		resp, doc := postRaw(t, ts.Client(), ts.URL+"/v1/models/air/impute?timeout_ms="+v, lifecycleRow(t, ts))
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("timeout_ms=%s: status %d, want 400", v, resp.StatusCode)
		}
		if msg, _ := doc["error"].(string); !strings.Contains(msg, "timeout_ms") {
			t.Errorf("timeout_ms=%s: error %q does not name the parameter", v, msg)
		}
	}
}

// TestTimeoutMsClampsToMax pins the ?timeout_ms= ceiling for overrides so
// large that their Duration would wrap negative.
func TestTimeoutMsClampsToMax(t *testing.T) {
	metrics := NewMetrics()
	srv := NewServer(NewRegistry(Config{}, metrics), metrics)
	cases := map[string]time.Duration{
		"1500":                1500 * time.Millisecond,
		"60001":               time.Minute,
		"9223372036854":       time.Minute,
		"10000000000000":      time.Minute,
		"9223372036854775807": time.Minute, // MaxInt64
	}
	for v, want := range cases {
		d, explicit, err := srv.requestTimeout(httptest.NewRequest(http.MethodPost, "/?timeout_ms="+v, nil))
		if err != nil || !explicit || d != want {
			t.Errorf("timeout_ms=%s resolved to %v (explicit %v, err %v), want %v", v, d, explicit, err, want)
		}
	}
}

// TestImputeDeadlineExceeded504 injects a slow batch compute and asserts the
// per-request deadline bounds it with an honest 504, the timeout metric
// moves, and the very next request is served normally.
func TestImputeDeadlineExceeded504(t *testing.T) {
	ts, _, metrics := lifecycleServer(t, Config{})
	defer faultinject.Reset()
	faultinject.Enable(faultinject.ServeBatch, faultinject.Once(func(any) error {
		time.Sleep(400 * time.Millisecond)
		return nil
	}))
	start := time.Now()
	resp, doc := postRaw(t, ts.Client(), ts.URL+"/v1/models/air/impute?timeout_ms=50", lifecycleRow(t, ts))
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504", resp.StatusCode)
	}
	if elapsed := time.Since(start); elapsed > 350*time.Millisecond {
		t.Fatalf("504 took %v — the response waited for the slow batch instead of the deadline", elapsed)
	}
	if msg, _ := doc["error"].(string); !strings.Contains(msg, "deadline") {
		t.Fatalf("504 body %v does not name the deadline", doc)
	}
	if got := metrics.Snapshot().TimeoutsTotal; got != 1 {
		t.Fatalf("timeouts_total = %d, want 1", got)
	}
	// The daemon is fine: the next request (fault consumed by Once) succeeds.
	resp2, _ := postRaw(t, ts.Client(), ts.URL+"/v1/models/air/impute", lifecycleRow(t, ts))
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("request after injected slowness: status %d", resp2.StatusCode)
	}
}

// TestParkedRequestDroppedReleasesCost is the coalescer-lifecycle guarantee:
// a request that times out while queued behind a busy batch is dropped from
// the next batch — never computed — and its admission cost returns to the
// window.
func TestParkedRequestDroppedReleasesCost(t *testing.T) {
	ts, srv, metrics := lifecycleServer(t, Config{})
	entered, release := holdFirstBatch(t)
	held := make(chan int, 1)
	go func() {
		resp, _ := postRaw(t, ts.Client(), ts.URL+"/v1/models/air/impute", lifecycleRow(t, ts))
		held <- resp.StatusCode
	}()
	awaitHeld(t, entered)
	// Queued behind the held batch far longer than its own deadline.
	resp, _ := postRaw(t, ts.Client(), ts.URL+"/v1/models/air/impute?timeout_ms=40", lifecycleRow(t, ts))
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504", resp.StatusCode)
	}
	release()
	if code := <-held; code != http.StatusOK {
		t.Fatalf("held request: status %d, want 200", code)
	}
	// The next flush must release the dropped request's cost without
	// computing it.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, admitted := srv.admission.State(); admitted == 0 {
			break
		}
		if time.Now().After(deadline) {
			_, admitted := srv.admission.State()
			t.Fatalf("dropped request's cost never released (still %d in flight)", admitted)
		}
		time.Sleep(time.Millisecond)
	}
	snap := metrics.Snapshot()
	if snap.RowsTotal != 1 {
		t.Fatalf("rows_total = %d, want 1 (the held batch) — the expired request was computed and discarded instead of dropped", snap.RowsTotal)
	}
	if snap.TimeoutsTotal != 1 {
		t.Fatalf("timeouts_total = %d, want 1", snap.TimeoutsTotal)
	}
}

// TestRetryAfterClampedToRequestBudget drives the S2 contract end to end: a
// shed request carrying ?timeout_ms= must never be told to retry after its
// own budget expires.
func TestRetryAfterClampedToRequestBudget(t *testing.T) {
	path, _, _ := fixture(t)
	metrics := NewMetrics()
	registry := NewRegistry(Config{}, metrics)
	defer registry.Close()
	stuffed, err := registry.LoadFile("air", path)
	if err != nil {
		t.Fatal(err)
	}
	// Replace the batcher with a zero-capacity one so every request sheds on
	// the queue-full path, whose hint comes from Admission.RetryAfter.
	stuffed.batcher.Close()
	stuffed.batcher = &batcher{in: make(chan *foldRequest), metrics: metrics}
	srv := NewServer(registry, metrics)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Doctor the drain-rate estimate so the unclamped hint is large: cost 6
	// at 0.5 cells/sec → 12s.
	srv.admission.mu.Lock()
	srv.admission.costRate = 0.5
	srv.admission.mu.Unlock()

	resp, doc := postRaw(t, ts.Client(), ts.URL+"/v1/models/air/impute", lifecycleRow(t, ts))
	if secs := checkOverloaded(t, resp, doc); secs != 12 {
		t.Fatalf("unclamped Retry-After = %d, want 12 (doctored drain rate)", secs)
	}
	resp, doc = postRaw(t, ts.Client(), ts.URL+"/v1/models/air/impute?timeout_ms=3000", lifecycleRow(t, ts))
	if secs := checkOverloaded(t, resp, doc); secs != 3 {
		t.Fatalf("clamped Retry-After = %d, want 3 (the requester's whole budget)", secs)
	}
}

// TestPanicIsolation injects a panic into one batch compute and asserts the
// blast radius: that batch's requests fail with 500, panics_total moves, and
// the daemon keeps serving.
func TestPanicIsolation(t *testing.T) {
	ts, srv, metrics := lifecycleServer(t, Config{})
	defer faultinject.Reset()
	faultinject.Enable(faultinject.ServeBatch, faultinject.Once(func(any) error {
		panic("injected: batch compute blew up")
	}))
	resp, doc := postRaw(t, ts.Client(), ts.URL+"/v1/models/air/impute", lifecycleRow(t, ts))
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", resp.StatusCode)
	}
	if msg, _ := doc["error"].(string); !strings.Contains(msg, "panic") {
		t.Fatalf("500 body %v does not mention the panic", doc)
	}
	if got := metrics.Snapshot().PanicsTotal; got != 1 {
		t.Fatalf("panics_total = %d, want 1", got)
	}
	// One contained panic must not trip the breaker or kill the flush loop.
	if srv.health.State() != Healthy {
		t.Fatalf("health %v after one contained panic", srv.health.State())
	}
	resp2, _ := postRaw(t, ts.Client(), ts.URL+"/v1/models/air/impute", lifecycleRow(t, ts))
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("request after contained panic: status %d — flush goroutine died", resp2.StatusCode)
	}
}

// TestBreakerTripDegradedAndRecovery is the degraded-mode e2e: persistent
// fold-in failures trip the breaker, requests are answered from the fallback
// with an explicit degraded marker, /healthz and /metrics reflect the state,
// and once the fault clears half-open probes close the breaker again.
func TestBreakerTripDegradedAndRecovery(t *testing.T) {
	ts, srv, metrics := lifecycleServer(t, Config{
		Health: HealthConfig{
			WindowSize: 8, MinSamples: 2, FailureRate: 0.5,
			ProbeEvery: 20 * time.Millisecond, ProbeSuccesses: 2,
		},
	})
	defer faultinject.Reset()
	batchErr := errors.New("injected: compute failure")
	faultinject.Enable(faultinject.ServeBatch, faultinject.Fail(batchErr))

	// Fail real-path requests until the breaker trips.
	tripped := false
	for i := 0; i < 20; i++ {
		resp, _ := postRaw(t, ts.Client(), ts.URL+"/v1/models/air/impute", lifecycleRow(t, ts))
		resp.Body.Close()
		if srv.health.State() == Degraded {
			tripped = true
			break
		}
		if resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("pre-trip request: status %d, want 500", resp.StatusCode)
		}
	}
	if !tripped {
		t.Fatal("breaker never tripped under persistent failures")
	}
	if srv.health.Trips() != 1 {
		t.Fatalf("trips = %d", srv.health.Trips())
	}

	// Degraded requests answer from the fallback, marked as such, without
	// touching the (still broken) fold-in path.
	degradedSeen := 0
	for i := 0; i < 10; i++ {
		resp, doc := postRaw(t, ts.Client(), ts.URL+"/v1/models/air/impute", lifecycleRow(t, ts))
		if resp.StatusCode == http.StatusOK {
			if deg, _ := doc["degraded"].(bool); !deg {
				t.Fatalf("200 while degraded without degraded marker: %v", doc)
			}
			if src, _ := doc["fallback"].(string); src != "means" && src != "placer" {
				t.Fatalf("degraded response fallback = %q", src)
			}
			if rows, ok := doc["rows"].([]any); !ok || len(rows) != 1 {
				t.Fatalf("degraded response has no rows: %v", doc)
			}
			degradedSeen++
		}
		// Occasional non-200s are half-open probes failing against the still
		// armed fault; they must stay 500s, not torn states.
		time.Sleep(5 * time.Millisecond)
	}
	if degradedSeen == 0 {
		t.Fatal("no degraded responses while the breaker was open")
	}
	snap := metrics.Snapshot()
	if snap.DegradedTotal == 0 {
		t.Fatal("degraded_responses_total did not move")
	}

	// /healthz reports degraded with 200 (the daemon is still answering).
	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hz struct {
		Status  string `json:"status"`
		Breaker int    `json:"breaker"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || hz.Status != "degraded" {
		t.Fatalf("healthz while degraded: %d %+v", resp.StatusCode, hz)
	}

	// Clear the fault; half-open probes must close the breaker.
	faultinject.Reset()
	deadline := time.Now().Add(10 * time.Second)
	for srv.health.State() != Healthy {
		if time.Now().After(deadline) {
			t.Fatalf("breaker never closed after the fault cleared (state %v, breaker %v)", srv.health.State(), srv.health.Breaker())
		}
		resp, _ := postRaw(t, ts.Client(), ts.URL+"/v1/models/air/impute", lifecycleRow(t, ts))
		resp.Body.Close()
		time.Sleep(10 * time.Millisecond)
	}
	// Recovered: real responses again, unmarked.
	resp2, doc := postRaw(t, ts.Client(), ts.URL+"/v1/models/air/impute", lifecycleRow(t, ts))
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("post-recovery status %d", resp2.StatusCode)
	}
	if _, marked := doc["degraded"]; marked {
		t.Fatalf("post-recovery response still marked degraded: %v", doc)
	}
}

// TestDegradedFallbackOff asserts the -degraded-fallback off policy: while
// the breaker is open, requests get clean 503s instead of fallback answers.
func TestDegradedFallbackOff(t *testing.T) {
	ts, srv, _ := lifecycleServer(t, Config{
		DegradedFallback: FallbackOff,
		Health: HealthConfig{
			WindowSize: 8, MinSamples: 2, FailureRate: 0.5,
			ProbeEvery: time.Hour, // no probes: deterministic fallback routing
		},
	})
	defer faultinject.Reset()
	faultinject.Enable(faultinject.ServeBatch, faultinject.Fail(errors.New("injected")))
	for i := 0; i < 10 && srv.health.State() != Degraded; i++ {
		resp, _ := postRaw(t, ts.Client(), ts.URL+"/v1/models/air/impute", lifecycleRow(t, ts))
		resp.Body.Close()
	}
	if srv.health.State() != Degraded {
		t.Fatal("breaker never tripped")
	}
	resp, doc := postRaw(t, ts.Client(), ts.URL+"/v1/models/air/impute", lifecycleRow(t, ts))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d with fallback off, want 503", resp.StatusCode)
	}
	if msg, _ := doc["error"].(string); !strings.Contains(msg, "degraded") {
		t.Fatalf("503 body %v does not explain the degradation", doc)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("degraded 503 missing Retry-After")
	}
}

// TestDrainingRejectsImpute asserts BeginDrain semantics: /healthz flips to
// 503 "draining" and new impute requests get clean 503s.
func TestDrainingRejectsImpute(t *testing.T) {
	ts, srv, _ := lifecycleServer(t, Config{})
	srv.BeginDrain()
	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hz struct {
		Status string `json:"status"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || hz.Status != "draining" {
		t.Fatalf("healthz while draining: %d %+v", resp.StatusCode, hz)
	}
	resp2, doc := postRaw(t, ts.Client(), ts.URL+"/v1/models/air/impute", lifecycleRow(t, ts))
	if resp2.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("impute while draining: status %d, want 503", resp2.StatusCode)
	}
	if msg, _ := doc["error"].(string); !strings.Contains(msg, "draining") {
		t.Fatalf("503 body %v does not name the drain", doc)
	}
}

// TestWriteFaultAbortsConnectionNoTornJSON injects a response-write fault
// and asserts the client sees a transport error — never a truncated JSON
// document it could half-parse.
func TestWriteFaultAbortsConnectionNoTornJSON(t *testing.T) {
	ts, _, _ := lifecycleServer(t, Config{})
	defer faultinject.Reset()
	faultinject.Enable(faultinject.ServeWrite, faultinject.Once(faultinject.Fail(errors.New("injected: write abort"))))
	body, err := json.Marshal(lifecycleRow(t, ts))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Post(ts.URL+"/v1/models/air/impute", "application/json", strings.NewReader(string(body)))
	if err == nil {
		// If any response arrived, it must not be a 200 with a torn body.
		defer resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			t.Fatalf("write fault produced a %d response instead of an aborted connection", resp.StatusCode)
		}
	}
	// The daemon survived the abort and serves the next request.
	resp2, _ := postRaw(t, ts.Client(), ts.URL+"/v1/models/air/impute", lifecycleRow(t, ts))
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("request after write abort: status %d", resp2.StatusCode)
	}
}

// TestRegistryLoadFaultKeepsPreviousVersion injects a registry-load failure
// and asserts the previously served version keeps answering.
func TestRegistryLoadFaultKeepsPreviousVersion(t *testing.T) {
	path, _, _ := fixture(t)
	metrics := NewMetrics()
	registry := NewRegistry(Config{}, metrics)
	defer registry.Close()
	if _, err := registry.LoadFile("air", path); err != nil {
		t.Fatal(err)
	}
	defer faultinject.Reset()
	faultinject.Enable(faultinject.ServeRegistryLoad, faultinject.Fail(errors.New("injected: load failure")))
	if _, err := registry.LoadFile("air", path); err == nil {
		t.Fatal("injected load failure did not surface")
	}
	entry, ok := registry.Get("air")
	if !ok || entry.Version != 1 {
		t.Fatalf("previous version not intact after failed reload: %+v ok=%v", entry, ok)
	}
	faultinject.Reset()
	if _, err := registry.LoadFile("air", path); err != nil {
		t.Fatalf("reload after fault cleared: %v", err)
	}
}

// TestFallbackCompleteMeans pins the degraded fallback's means path: hidden
// cells take the precomputed column means, observed cells echo exactly.
func TestFallbackCompleteMeans(t *testing.T) {
	path, _, _ := fixture(t)
	metrics := NewMetrics()
	registry := NewRegistry(Config{}, metrics)
	defer registry.Close()
	entry, err := registry.LoadFile("air", path)
	if err != nil {
		t.Fatal(err)
	}
	f := entry.fallback
	if f == nil {
		t.Fatal("entry has no fallback")
	}
	req := lifecycleRow(t, nil)
	req.Rows[0][3] = nil // hide one cell
	rows, mask, err := buildRows(req.Rows, entry)
	if err != nil {
		t.Fatal(err)
	}
	hiddenBefore := rows.At(0, 3)
	out, source := f.complete(rows, mask, false)
	if source != "means" {
		t.Fatalf("source = %q with usePlacer=false", source)
	}
	_, cols := rows.Dims()
	for j := 0; j < cols; j++ {
		if mask.Observed(0, j) {
			if out.At(0, j) != rows.At(0, j) {
				t.Fatalf("observed cell %d rewritten: %v != %v", j, out.At(0, j), rows.At(0, j))
			}
		} else if out.At(0, j) != f.colMeans[j] {
			t.Fatalf("hidden cell %d = %v, want column mean %v", j, out.At(0, j), f.colMeans[j])
		}
	}
	// The input must not be mutated (it may be shared with a parked batch).
	if rows.At(0, 3) != hiddenBefore {
		t.Fatal("fallback mutated the caller's rows")
	}
}
