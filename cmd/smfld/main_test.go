package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/spatialmf/smfl/internal/core"
	"github.com/spatialmf/smfl/internal/dataset"
)

func TestModelFlags(t *testing.T) {
	var m modelFlags
	if err := m.Set("air=/tmp/a.smfl"); err != nil {
		t.Fatal(err)
	}
	if err := m.Set("fuel=/tmp/b.smfl"); err != nil {
		t.Fatal(err)
	}
	if got := m.String(); got != "air=/tmp/a.smfl,fuel=/tmp/b.smfl" {
		t.Fatalf("String = %q", got)
	}
	for _, bad := range []string{"", "justaname", "=path", "name="} {
		if err := m.Set(bad); err == nil {
			t.Fatalf("Set(%q) accepted", bad)
		}
	}
}

func TestRunErrors(t *testing.T) {
	var stderr bytes.Buffer
	if err := run(context.Background(), nil, &stderr, nil); err == nil {
		t.Fatal("expected missing -model error")
	}
	if err := run(context.Background(), []string{"-model", "m=/nonexistent.smfl"}, &stderr, nil); err == nil {
		t.Fatal("expected load error")
	}
}

// TestRunRefusesNegativeIters: a negative -iters fails startup, before any
// model loads, instead of failing every request's fold-in.
func TestRunRefusesNegativeIters(t *testing.T) {
	var stderr bytes.Buffer
	err := run(context.Background(), []string{"-iters", "-5", "-model", "m=/nonexistent.smfl"}, &stderr, nil)
	if err == nil || !strings.Contains(err.Error(), "-iters -5") {
		t.Fatalf("smfld -iters -5: err %v, want the -iters refusal", err)
	}
}

// TestRunServesAndShutsDown boots the daemon on an ephemeral port, imputes
// through it, and verifies context cancellation (the signal path) shuts it
// down cleanly.
func TestRunServesAndShutsDown(t *testing.T) {
	res, err := dataset.Generate(dataset.Spec{
		Name: "smfld", N: 150, M: 5, L: 2,
		Latents: 2, Bumps: 3, Clusters: 3, Noise: 0.02, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	orig := res.Data.X.Clone()
	nz, err := res.Data.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	model, err := core.Fit(res.Data.X, nil, 2, core.SMFL, core.Config{K: 4, MaxIter: 80, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	model.Norm = &core.Norm{Mins: nz.Mins, Maxs: nz.Maxs}
	path := filepath.Join(t.TempDir(), "m.smfl")
	if err := model.SaveFile(path); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	addrs := make(chan string, 1)
	var stderr syncBuffer
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"-addr", "127.0.0.1:0", "-model", "m=" + path},
			&stderr, func(addr string) { addrs <- addr })
	}()
	var addr string
	select {
	case addr = <-addrs:
	case err := <-done:
		t.Fatalf("run exited early: %v (stderr %s)", err, stderr.String())
	}

	// One in-range row (original units) with its middle cell missing.
	cells := make([]any, orig.Cols())
	for j := range cells {
		cells[j] = orig.At(0, j)
	}
	cells[2] = nil
	body, err := json.Marshal(map[string]any{"rows": []any{cells}})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post("http://"+addr+"/v1/models/m/impute", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var out struct {
		Filled int    `json:"filled"`
		Units  string `json:"units"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || out.Filled != 1 || out.Units != "original" {
		t.Fatalf("impute: status %d body %+v", resp.StatusCode, out)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("daemon did not shut down")
	}
}

// TestRunServesLandmarkModel fits with the landmark spatial index, saves the
// model, and serves it end to end: the placer must survive the save/load
// round trip into the registry (visible in the startup log) and imputation
// must still work through the daemon.
func TestRunServesLandmarkModel(t *testing.T) {
	res, err := dataset.Generate(dataset.Spec{
		Name: "smfld-lm", N: 200, M: 5, L: 2,
		Latents: 2, Bumps: 3, Clusters: 3, Noise: 0.02, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	orig := res.Data.X.Clone()
	nz, err := res.Data.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	model, err := core.Fit(res.Data.X, nil, 2, core.SMFL,
		core.Config{K: 4, MaxIter: 80, Seed: 11, SpatialIndex: core.SpatialLandmark})
	if err != nil {
		t.Fatal(err)
	}
	if model.Placer == nil {
		t.Fatal("landmark fit did not attach a placer")
	}
	model.Norm = &core.Norm{Mins: nz.Mins, Maxs: nz.Maxs}
	path := filepath.Join(t.TempDir(), "m.smfl")
	if err := model.SaveFile(path); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	addrs := make(chan string, 1)
	var stderr syncBuffer
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"-addr", "127.0.0.1:0", "-model", "m=" + path},
			&stderr, func(addr string) { addrs <- addr })
	}()
	var addr string
	select {
	case addr = <-addrs:
	case err := <-done:
		t.Fatalf("run exited early: %v (stderr %s)", err, stderr.String())
	}
	if log := stderr.String(); !strings.Contains(log, "landmarks") {
		t.Fatalf("startup log does not report the placer: %s", log)
	}

	cells := make([]any, orig.Cols())
	for j := range cells {
		cells[j] = orig.At(0, j)
	}
	cells[3] = nil
	body, err := json.Marshal(map[string]any{"rows": []any{cells}})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post("http://"+addr+"/v1/models/m/impute", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var out struct {
		Filled int `json:"filled"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || out.Filled != 1 {
		t.Fatalf("impute: status %d body %+v", resp.StatusCode, out)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("daemon did not shut down")
	}
}

// syncBuffer is a goroutine-safe bytes.Buffer for capturing daemon stderr.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

var _ io.Writer = (*syncBuffer)(nil)

// TestGracefulDrainUnderChaos is the S-level shutdown contract with faults
// armed: SIGTERM (context cancellation) while chaos-injected requests are in
// flight must drain within the grace period, finish or cleanly refuse every
// in-flight request (no torn bodies, no hangs), and exit with the same nil
// error as a quiet shutdown.
func TestGracefulDrainUnderChaos(t *testing.T) {
	res, err := dataset.Generate(dataset.Spec{
		Name: "smfld-chaos", N: 150, M: 5, L: 2,
		Latents: 2, Bumps: 3, Clusters: 3, Noise: 0.02, Seed: 13,
	})
	if err != nil {
		t.Fatal(err)
	}
	orig := res.Data.X.Clone()
	nz, err := res.Data.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	model, err := core.Fit(res.Data.X, nil, 2, core.SMFL, core.Config{K: 4, MaxIter: 80, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	model.Norm = &core.Norm{Mins: nz.Mins, Maxs: nz.Maxs}
	path := filepath.Join(t.TempDir(), "m.smfl")
	if err := model.SaveFile(path); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	addrs := make(chan string, 1)
	var stderr syncBuffer
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{
			"-addr", "127.0.0.1:0", "-model", "m=" + path,
			"-chaos-seed", "42", "-grace", "10s", "-timeout", "2s",
		}, &stderr, func(addr string) { addrs <- addr })
	}()
	var addr string
	select {
	case addr = <-addrs:
	case err := <-done:
		t.Fatalf("run exited early: %v (stderr %s)", err, stderr.String())
	}
	if log := stderr.String(); !strings.Contains(log, "chaos fault injection armed") {
		t.Fatalf("startup log does not announce armed chaos: %s", log)
	}

	cells := make([]any, orig.Cols())
	for j := range cells {
		cells[j] = orig.At(0, j)
	}
	body, err := json.Marshal(map[string]any{"rows": []any{cells}})
	if err != nil {
		t.Fatal(err)
	}

	// Keep a stream of chaos-exposed requests in flight, then SIGTERM mid-load.
	const workers = 6
	stop := make(chan struct{})
	codes := make(chan int, 1024)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Post("http://"+addr+"/v1/models/m/impute", "application/json", bytes.NewReader(body))
				if err != nil {
					// Transport errors: injected write aborts or the listener
					// closing mid-request — both clean refusals.
					continue
				}
				raw, rerr := io.ReadAll(resp.Body)
				resp.Body.Close()
				if rerr != nil {
					continue
				}
				if resp.StatusCode == http.StatusOK {
					var out struct {
						Rows [][]float64 `json:"rows"`
					}
					if jerr := json.Unmarshal(raw, &out); jerr != nil || len(out.Rows) != 1 {
						t.Errorf("torn or empty 200 body during chaos/drain: %q", raw)
					}
				}
				codes <- resp.StatusCode
			}
		}()
	}
	time.Sleep(300 * time.Millisecond) // let chaos traffic build up
	cancel()                           // SIGTERM path
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("drain under chaos changed the exit contract: run returned %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("daemon did not drain within the grace period under chaos")
	}
	close(stop)
	wg.Wait()
	close(codes)

	seen := map[int]int{}
	for code := range codes {
		seen[code]++
	}
	for code := range seen {
		switch code {
		case http.StatusOK, http.StatusTooManyRequests, http.StatusInternalServerError,
			http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		default:
			t.Errorf("status %d seen during chaos drain (%d times)", code, seen[code])
		}
	}
	if seen[http.StatusOK] == 0 {
		t.Error("no request was served before the drain")
	}
	if log := stderr.String(); !strings.Contains(log, "draining in-flight requests") {
		t.Fatalf("shutdown log missing drain message: %s", log)
	}
}
