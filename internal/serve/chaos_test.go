package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/spatialmf/smfl/internal/faultinject"
)

// chaosGrace is the slack allowed past a request's own deadline before the
// suite calls it an overshoot: handler scheduling, response marshaling, and
// race-detector overhead, not fold-in work (the deadline bounds that).
const chaosGrace = 1500 * time.Millisecond

// TestChaosSuite arms seed-deterministic faults at every serve-path
// injection point and hammers the daemon with concurrent deadline-carrying
// requests plus admin reload churn. Invariants, checked under -race in CI:
//
//  1. No request outlives its deadline beyond a grace margin.
//  2. Every received body parses as complete JSON — write faults abort the
//     connection (a transport error), never a torn document.
//  3. Every status is from the request lifecycle's contract.
//  4. The registry stays consistent through failed reloads.
//  5. After the faults clear, the server returns to healthy and serves
//     real (unmarked) responses again.
func TestChaosSuite(t *testing.T) {
	path, _, _ := fixture(t)
	metrics := NewMetrics()
	registry := NewRegistry(Config{
		DefaultTimeout: 2 * time.Second,
		Health: HealthConfig{
			WindowSize: 16, MinSamples: 8, FailureRate: 0.5,
			ProbeEvery: 20 * time.Millisecond, ProbeSuccesses: 2,
		},
	}, metrics)
	defer registry.Close()
	if _, err := registry.LoadFile("air", path); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(registry, metrics)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	disarm := ArmChaos(42, ChaosConfig{
		BatchErr:   0.15,
		BatchPanic: 0.10,
		BatchDelay: 0.15,
		DelayMax:   80 * time.Millisecond,
		LoadErr:    0.30,
		WriteAbort: 0.05,
	})
	defer disarm()

	allowed := map[int]bool{
		http.StatusOK:                  true,
		http.StatusTooManyRequests:     true,
		http.StatusInternalServerError: true,
		http.StatusServiceUnavailable:  true,
		http.StatusGatewayTimeout:      true,
	}
	timeouts := []time.Duration{100, 250, 500, 1000} // ms, per-request budgets
	reqBody, err := json.Marshal(lifecycleRow(t, ts))
	if err != nil {
		t.Fatal(err)
	}

	const workers, perWorker = 8, 25
	var (
		wg                     sync.WaitGroup
		transportErrs, served  atomic.Int64
		degradedSeen, shedSeen atomic.Int64
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				budget := timeouts[(w+i)%len(timeouts)] * time.Millisecond
				url := fmt.Sprintf("%s/v1/models/air/impute?timeout_ms=%d", ts.URL, budget/time.Millisecond)
				start := time.Now()
				resp, err := ts.Client().Post(url, "application/json", bytes.NewReader(reqBody))
				elapsed := time.Since(start)
				if elapsed > budget+chaosGrace {
					t.Errorf("worker %d req %d outlived its %v deadline: took %v", w, i, budget, elapsed)
				}
				if err != nil {
					// An injected write abort: the client sees a transport
					// error, which is exactly the no-torn-JSON contract.
					transportErrs.Add(1)
					continue
				}
				raw, rerr := io.ReadAll(resp.Body)
				resp.Body.Close()
				if rerr != nil {
					transportErrs.Add(1)
					continue
				}
				if !allowed[resp.StatusCode] {
					t.Errorf("worker %d req %d: status %d outside the lifecycle contract", w, i, resp.StatusCode)
					continue
				}
				doc := map[string]any{}
				if uerr := json.Unmarshal(raw, &doc); uerr != nil {
					t.Errorf("worker %d req %d: torn JSON body (status %d): %q", w, i, resp.StatusCode, raw)
					continue
				}
				switch resp.StatusCode {
				case http.StatusOK:
					served.Add(1)
					if deg, _ := doc["degraded"].(bool); deg {
						degradedSeen.Add(1)
					} else if rows, ok := doc["rows"].([]any); !ok || len(rows) != 1 {
						t.Errorf("worker %d req %d: 200 without rows: %v", w, i, doc)
					}
				case http.StatusTooManyRequests:
					shedSeen.Add(1)
					if resp.Header.Get("Retry-After") == "" {
						t.Errorf("worker %d req %d: 429 without Retry-After", w, i)
					}
				default:
					if msg, _ := doc["error"].(string); msg == "" {
						t.Errorf("worker %d req %d: error status %d without error body: %v", w, i, resp.StatusCode, doc)
					}
				}
			}
		}(w)
	}

	// Admin churn alongside the load: reloads fail ~30% of the time at the
	// injected load point; the active version must keep serving regardless.
	reloadDone := make(chan struct{})
	go func() {
		defer close(reloadDone)
		for r := 0; r < 10; r++ {
			body := fmt.Sprintf(`{"path":%q}`, path)
			resp, err := ts.Client().Post(ts.URL+"/admin/models/air", "application/json", bytes.NewReader([]byte(body)))
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusUnprocessableEntity {
					t.Errorf("reload %d: status %d", r, resp.StatusCode)
				}
			}
			if _, ok := registry.Get("air"); !ok {
				t.Errorf("reload %d: model vanished from the registry", r)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}()
	wg.Wait()
	<-reloadDone

	t.Logf("chaos phase: %d served (%d degraded), %d shed, %d transport errors; panics=%d timeouts=%d trips=%d",
		served.Load(), degradedSeen.Load(), shedSeen.Load(), transportErrs.Load(),
		metrics.Snapshot().PanicsTotal, metrics.Snapshot().TimeoutsTotal, srv.health.Trips())
	if served.Load() == 0 {
		t.Fatal("no request was ever served during the chaos phase")
	}

	// Faults off: the breaker must close and real serving must resume. The
	// loop retries until the half-open probes succeed.
	disarm()
	recoverBy := time.Now().Add(15 * time.Second)
	for srv.health.State() != Healthy {
		if time.Now().After(recoverBy) {
			t.Fatalf("server never returned to healthy (state %v, breaker %v)", srv.health.State(), srv.health.Breaker())
		}
		if resp, err := ts.Client().Post(ts.URL+"/v1/models/air/impute", "application/json", bytes.NewReader(reqBody)); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		time.Sleep(10 * time.Millisecond)
	}
	final, resp := postImpute(t, ts.Client(), ts.URL+"/v1/models/air/impute", lifecycleRow(t, ts))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-recovery impute: status %d", resp.StatusCode)
	}
	if final.Degraded || len(final.Rows) != 1 || final.Version < 1 {
		t.Fatalf("post-recovery response %+v, want a real versioned answer", final)
	}

	// Registry consistency survived the churn: the version chain is intact.
	versions, active, ok := registry.Versions("air")
	if !ok || len(versions) == 0 || active < 1 {
		t.Fatalf("registry inconsistent after chaos: versions %v active %d ok %v", versions, active, ok)
	}

	// Every admitted cost was released: nothing leaks in flight once quiet.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, admitted := srv.admission.State(); admitted == 0 {
			break
		}
		if time.Now().After(deadline) {
			_, admitted := srv.admission.State()
			t.Fatalf("admission cost leaked: %d still in flight after quiesce", admitted)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if qd := metrics.QueueDepth(); qd != 0 {
		t.Fatalf("queue depth %d after quiesce", qd)
	}
	if hz := srv.health.State(); hz != Healthy {
		t.Fatalf("final health %v, want healthy", hz)
	}
}

// TestArmChaosDeterministic asserts the fault schedule is a pure function
// of the seed and the order in which points are hit: hooks armed twice with
// the same seed make identical decisions for the same hit sequence.
func TestArmChaosDeterministic(t *testing.T) {
	cfg := ChaosConfig{BatchErr: 0.5, LoadErr: 0.5, WriteAbort: 0.5}
	sequence := func() []bool {
		disarm := ArmChaos(1234, cfg)
		defer disarm()
		var outcomes []bool
		for i := 0; i < 32; i++ {
			outcomes = append(outcomes,
				faultinject.Fire(faultinject.ServeBatch, nil) != nil,
				faultinject.Fire(faultinject.ServeRegistryLoad, nil) != nil,
				faultinject.Fire(faultinject.ServeWrite, nil) != nil,
			)
		}
		return outcomes
	}
	a, b := sequence(), sequence()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at hit %d", i)
		}
	}
	fired := false
	for _, v := range a {
		fired = fired || v
	}
	if !fired {
		t.Fatal("50% schedule fired nothing in 96 hits")
	}
}
