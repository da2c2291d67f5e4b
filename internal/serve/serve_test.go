package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/spatialmf/smfl/internal/core"
	"github.com/spatialmf/smfl/internal/dataset"
	"github.com/spatialmf/smfl/internal/mat"
)

// fixture fits SMFL on the head of a synthetic table and saves it (with
// normalization stats) to a temp .smfl file. It returns the file path, the
// full table in original units, and the index where the held-out tail starts.
func fixture(t testing.TB) (path string, orig *mat.Dense, tail int) {
	t.Helper()
	res, err := dataset.Generate(dataset.Spec{
		Name: "serve", N: 300, M: 6, L: 2,
		Latents: 3, Bumps: 4, Clusters: 4, Noise: 0.02, Seed: 50,
	})
	if err != nil {
		t.Fatal(err)
	}
	orig = res.Data.X.Clone()
	nz, err := res.Data.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	train := res.Data.X.Slice(0, 240, 0, 6)
	model, err := core.Fit(train, nil, 2, core.SMFL, core.Config{K: 5, Lambda: 0.1, MaxIter: 200, Seed: 50})
	if err != nil {
		t.Fatal(err)
	}
	model.Norm = &core.Norm{Mins: nz.Mins, Maxs: nz.Maxs}
	path = filepath.Join(t.TempDir(), "model.smfl")
	if err := model.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	return path, orig, 240
}

func postImpute(t *testing.T, client *http.Client, url string, req imputeRequest) (imputeResponse, *http.Response) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out imputeResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
	}
	return out, resp
}

// TestServerEndToEnd is the acceptance test: ephemeral port, ≥32 concurrent
// impute requests, denormalized values checked against the original units,
// mean batch size > 1 on /metrics, and a shutdown that drains in-flight
// requests.
func TestServerEndToEnd(t *testing.T) {
	path, orig, tail := fixture(t)
	metrics := NewMetrics()
	registry := NewRegistry(Config{FoldInIters: 100}, metrics)
	t.Cleanup(registry.Close)
	entry, err := registry.LoadFile("air", path)
	if err != nil {
		t.Fatal(err)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	server := &http.Server{Handler: NewServer(registry, metrics).Handler()}
	served := make(chan error, 1)
	go func() { served <- server.Serve(ln) }()
	base := "http://" + ln.Addr().String()
	client := &http.Client{Timeout: 10 * time.Second}

	// Phase 1: 48 concurrent single-row requests, each hiding one non-SI
	// cell of a held-out row. The first is held in its batch compute while
	// the other 47 queue behind it, one after another, and coalesce into
	// one batch. The fixed arrival order pins each row's batch position,
	// which draws the row's random fold-in start, so the quality check
	// below reads the same numbers on every run.
	entered, release := holdFirstBatch(t)
	const nreq = 48
	_, cols := orig.Dims()
	type outcome struct {
		predErr float64 // |prediction − truth| on the hidden cell
		baseErr float64 // |column-mean − truth| baseline on the same cell
	}
	outcomes := make([]outcome, nreq)
	var wg sync.WaitGroup
	for i := 0; i < nreq; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			row := tail + i%(orig.Rows()-tail)
			hide := 2 + i%(cols-2)
			cells := make([]*float64, cols)
			for j := 0; j < cols; j++ {
				if j == hide {
					continue
				}
				v := orig.At(row, j)
				cells[j] = &v
			}
			out, resp := postImpute(t, client, base+"/v1/models/air/impute", imputeRequest{Rows: [][]*float64{cells}})
			if resp.StatusCode != http.StatusOK {
				t.Errorf("request %d: status %d", i, resp.StatusCode)
				return
			}
			if out.Units != "original" || out.Filled != 1 || len(out.Rows) != 1 {
				t.Errorf("request %d: unexpected response %+v", i, out)
				return
			}
			for j := 0; j < cols; j++ {
				if j == hide {
					continue
				}
				want := orig.At(row, j)
				if math.Abs(out.Rows[0][j]-want) > 1e-9*math.Max(1, math.Abs(want)) {
					t.Errorf("request %d: observed cell %d = %v, want %v (denormalization broken)", i, j, out.Rows[0][j], want)
				}
			}
			truth := orig.At(row, hide)
			var mean float64
			for r := 0; r < tail; r++ {
				mean += orig.At(r, hide)
			}
			mean /= float64(tail)
			outcomes[i] = outcome{predErr: math.Abs(out.Rows[0][hide] - truth), baseErr: math.Abs(mean - truth)}
		}(i)
		if i == 0 {
			awaitHeld(t, entered)
		} else {
			awaitQueued(t, entry.batcher, i)
		}
	}
	release()
	wg.Wait()
	var predMAE, baseMAE float64
	for _, o := range outcomes {
		predMAE += o.predErr
		baseMAE += o.baseErr
	}
	predMAE /= nreq
	baseMAE /= nreq
	if predMAE >= baseMAE {
		t.Fatalf("served imputations MAE %v not better than column-mean baseline %v", predMAE, baseMAE)
	}

	// Metrics: the requests queued behind the held batch must have
	// coalesced into multi-row batches.
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if snap.MeanBatchSize <= 1 {
		t.Fatalf("mean batch size %v, want > 1 (micro-batching not coalescing)", snap.MeanBatchSize)
	}
	if snap.RowsTotal != nreq {
		t.Fatalf("rows_total %d, want %d", snap.RowsTotal, nreq)
	}
	imp := snap.Endpoints["impute"]
	if imp.Count != nreq || imp.Errors != 0 {
		t.Fatalf("impute endpoint counters %+v", imp)
	}
	if snap.RowsPerSecond <= 0 {
		t.Fatalf("rows_per_second %v", snap.RowsPerSecond)
	}

	// Phase 2: shutdown must drain in-flight requests. Launch a wave that
	// queues behind a held batch, release it only once Shutdown has begun,
	// and require all of them to succeed.
	entered, release = holdFirstBatch(t)
	server.RegisterOnShutdown(release)
	const drainReq = 8
	codes := make(chan int, drainReq)
	for i := 0; i < drainReq; i++ {
		go func(i int) {
			row := tail + i
			cells := make([]*float64, cols)
			for j := 0; j < cols; j++ {
				v := orig.At(row, j)
				cells[j] = &v
			}
			_, resp := postImpute(t, client, base+"/v1/models/air/impute", imputeRequest{Rows: [][]*float64{cells}})
			codes <- resp.StatusCode
		}(i)
	}
	// Requests that reach the flush goroutine together share the held batch.
	held := awaitHeld(t, entered)
	awaitQueued(t, entry.batcher, drainReq-held.Requests)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := server.Shutdown(shutdownCtx); err != nil {
		t.Fatalf("shutdown did not drain: %v", err)
	}
	for i := 0; i < drainReq; i++ {
		if code := <-codes; code != http.StatusOK {
			t.Fatalf("in-flight request dropped during shutdown: status %d", code)
		}
	}
	if err := <-served; err != http.ErrServerClosed {
		t.Fatalf("Serve returned %v", err)
	}
}

func TestServerFullyObservedRoundTrip(t *testing.T) {
	path, orig, tail := fixture(t)
	metrics := NewMetrics()
	registry := NewRegistry(Config{}, metrics)
	defer registry.Close()
	if _, err := registry.LoadFile("air", path); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewServer(registry, metrics).Handler())
	defer ts.Close()

	_, cols := orig.Dims()
	cells := make([]*float64, cols)
	for j := 0; j < cols; j++ {
		v := orig.At(tail, j)
		cells[j] = &v
	}
	out, resp := postImpute(t, ts.Client(), ts.URL+"/v1/models/air/impute", imputeRequest{Rows: [][]*float64{cells}, Coefficients: true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if out.Filled != 0 {
		t.Fatalf("filled %d on a fully observed row", out.Filled)
	}
	for j := 0; j < cols; j++ {
		want := orig.At(tail, j)
		if math.Abs(out.Rows[0][j]-want) > 1e-9*math.Max(1, math.Abs(want)) {
			t.Fatalf("cell %d = %v, want %v", j, out.Rows[0][j], want)
		}
	}
	if len(out.Coefficients) != 1 || len(out.Coefficients[0]) != 5 {
		t.Fatalf("coefficients shape %v", out.Coefficients)
	}
}

func TestServerValidationAndErrors(t *testing.T) {
	path, _, _ := fixture(t)
	metrics := NewMetrics()
	registry := NewRegistry(Config{}, metrics)
	defer registry.Close()
	if _, err := registry.LoadFile("air", path); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewServer(registry, metrics).Handler())
	defer ts.Close()
	client := ts.Client()

	post := func(url, body string) int {
		resp, err := client.Post(url, "application/json", bytes.NewBufferString(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := post(ts.URL+"/v1/models/nope/impute", `{"rows":[[1,2,3,4,5,6]]}`); code != http.StatusNotFound {
		t.Fatalf("unknown model: status %d", code)
	}
	if code := post(ts.URL+"/v1/models/air/impute", `{"rows":[]}`); code != http.StatusBadRequest {
		t.Fatalf("empty rows: status %d", code)
	}
	if code := post(ts.URL+"/v1/models/air/impute", `{"rows":[[1,2,3]]}`); code != http.StatusBadRequest {
		t.Fatalf("short row: status %d", code)
	}
	if code := post(ts.URL+"/v1/models/air/impute", `{"rows":[[null,null,null,null,null,null]]}`); code != http.StatusBadRequest {
		t.Fatalf("all-null rows: status %d", code)
	}
	// An all-null row is refused beside a full one too: fold-in would
	// answer it with the training minimum of every column.
	resp, err := client.Post(ts.URL+"/v1/models/air/impute", "application/json",
		bytes.NewBufferString(`{"rows":[[40,116.5,0.5,50,50,50],[null,null,null,null,null,null]]}`))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct{ Error string }
	json.NewDecoder(resp.Body).Decode(&doc)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(doc.Error, "row 1 ") {
		t.Fatalf("full row beside an all-null row: status %d error %q, want 400 naming row 1", resp.StatusCode, doc.Error)
	}
	if code := post(ts.URL+"/v1/models/air/impute", `not json`); code != http.StatusBadRequest {
		t.Fatalf("bad json: status %d", code)
	}
	// A value far below the training minimum maps to a negative normalized
	// cell, which FoldIn cannot accept.
	if code := post(ts.URL+"/v1/models/air/impute", `{"rows":[[-1e12,1,1,1,1,1]]}`); code != http.StatusBadRequest {
		t.Fatalf("below-min value: status %d", code)
	}
	// Error counters made it into /metrics.
	snap := metrics.Snapshot()
	if snap.Endpoints["impute"].Errors == 0 {
		t.Fatal("impute errors not counted")
	}
}

// TestOverflowingCellRejectedAlone queues a well-formed request behind a
// held batch, next to one whose observed value overflows the training
// normalization. The hostile request must get its own 400 and leave its
// batch-mate a 200: once stacked, FoldIn would reject the whole batch.
func TestOverflowingCellRejectedAlone(t *testing.T) {
	path, _, _ := fixture(t)
	model, err := core.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	model.Norm.Maxs[4] = model.Norm.Mins[4] + 0.5 // a training span under 1
	metrics := NewMetrics()
	registry := NewRegistry(Config{}, metrics)
	t.Cleanup(registry.Close)
	entry, err := registry.Register("air", model, path)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewServer(registry, metrics).Handler())
	t.Cleanup(ts.Close)
	post := func(req imputeRequest, code chan<- int) {
		body, _ := json.Marshal(req) // finite values always encode
		resp, err := ts.Client().Post(ts.URL+"/v1/models/air/impute", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Error(err)
			code <- 0
			return
		}
		resp.Body.Close()
		code <- resp.StatusCode
	}

	entered, release := holdFirstBatch(t)
	held, good, hostile := make(chan int, 1), make(chan int, 1), make(chan int, 1)
	go post(lifecycleRow(t, ts), held)
	awaitHeld(t, entered)
	go post(lifecycleRow(t, ts), good)
	awaitQueued(t, entry.batcher, 1)
	bad := lifecycleRow(t, ts)
	*bad.Rows[0][4] = math.MaxFloat64
	go post(bad, hostile)
	deadline := time.Now().Add(10 * time.Second)
	for len(hostile) == 0 && len(entry.batcher.in) < 2 {
		if time.Now().After(deadline) {
			t.Fatal("hostile request neither answered nor queued")
		}
		time.Sleep(100 * time.Microsecond)
	}
	release()
	if code := <-held; code != http.StatusOK {
		t.Fatalf("held request: status %d, want 200", code)
	}
	if code := <-good; code != http.StatusOK {
		t.Fatalf("batch-mate of the hostile request: status %d, want 200", code)
	}
	if code := <-hostile; code != http.StatusBadRequest {
		t.Fatalf("hostile request: status %d, want 400", code)
	}
}

// TestNonFiniteAnswerIs422 sends a value that stays finite once normalized
// but folds in to NaN: the answer cannot be encoded as JSON, so the client
// must get a 422 with an error body, not a dropped connection.
func TestNonFiniteAnswerIs422(t *testing.T) {
	ts, _, _ := lifecycleServer(t, Config{})
	coeffs := lifecycleRow(t, ts) // fully observed: only the coefficients are NaN
	*coeffs.Rows[0][4] = 1.797e308
	coeffs.Coefficients = true
	hidden := lifecycleRow(t, ts) // the reconstructed cell is NaN
	*hidden.Rows[0][4] = 1.797e308
	hidden.Rows[0][3] = nil
	for _, req := range []imputeRequest{coeffs, hidden} {
		resp, doc := postRaw(t, ts.Client(), ts.URL+"/v1/models/air/impute", req)
		if resp.StatusCode != http.StatusUnprocessableEntity {
			t.Fatalf("status %d, want 422", resp.StatusCode)
		}
		if msg, _ := doc["error"].(string); msg == "" {
			t.Fatalf("422 without an error body: %v", doc)
		}
	}
}

// FuzzImputeRequest sends arbitrary bodies through the impute handler. Each
// must be answered 200, 400 or 422; a panic, which is how an aborted write
// surfaces under httptest.NewRecorder, fails the input.
func FuzzImputeRequest(f *testing.F) {
	path, _, _ := fixture(f)
	metrics := NewMetrics()
	registry := NewRegistry(Config{}, metrics)
	f.Cleanup(registry.Close)
	if _, err := registry.LoadFile("air", path); err != nil {
		f.Fatal(err)
	}
	handler := NewServer(registry, metrics).Handler()
	for _, seed := range []string{
		`{"rows":[[40,116.5,0.5,50,50,50]]}`,
		`{"rows":[[40,116.5,0.5,50,1.797e308,50]],"coefficients":true}`,
		`{"rows":[[null,null,null,null,null,null]]}`,
		`{"rows":[]}`,
		`{"rows":[[1,2,3]]}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/models/air/impute", bytes.NewReader(body)))
		switch rec.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusUnprocessableEntity:
		default:
			t.Fatalf("status %d for body %q: %s", rec.Code, body, rec.Body)
		}
	})
}

func TestServerAdminLoadReloadRemove(t *testing.T) {
	path, orig, tail := fixture(t)
	metrics := NewMetrics()
	registry := NewRegistry(Config{}, metrics)
	defer registry.Close()
	if _, err := registry.LoadFile("air", path); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewServer(registry, metrics).Handler())
	defer ts.Close()
	client := ts.Client()

	// healthz before and after.
	resp, err := client.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Status string `json:"status"`
		Models int    `json:"models"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if health.Status != "ok" || health.Models != 1 {
		t.Fatalf("healthz %+v", health)
	}

	// Hot-load a second name from the same file, then reload the first.
	for _, name := range []string{"fuel", "air"} {
		body := fmt.Sprintf(`{"path":%q}`, path)
		resp, err := client.Post(ts.URL+"/admin/models/"+name, "application/json", bytes.NewBufferString(body))
		if err != nil {
			t.Fatal(err)
		}
		var info modelInfo
		if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || info.Name != name || !info.HasNorm || info.Method != "SMFL" {
			t.Fatalf("admin load %s: status %d info %+v", name, resp.StatusCode, info)
		}
	}
	resp, err = client.Get(ts.URL + "/v1/models")
	if err != nil {
		t.Fatal(err)
	}
	var list struct {
		Models []modelInfo `json:"models"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(list.Models) != 2 || list.Models[0].Name != "air" || list.Models[1].Name != "fuel" {
		t.Fatalf("model list %+v", list.Models)
	}

	// The reloaded model still serves.
	_, cols := orig.Dims()
	cells := make([]*float64, cols)
	for j := 0; j < cols; j++ {
		v := orig.At(tail, j)
		cells[j] = &v
	}
	if _, resp := postImpute(t, client, ts.URL+"/v1/models/fuel/impute", imputeRequest{Rows: [][]*float64{cells}}); resp.StatusCode != http.StatusOK {
		t.Fatalf("impute after reload: status %d", resp.StatusCode)
	}

	// Loading a bogus path must fail without clobbering the old entry.
	resp, err = client.Post(ts.URL+"/admin/models/air", "application/json", bytes.NewBufferString(`{"path":"/nonexistent.smfl"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("bogus load: status %d", resp.StatusCode)
	}
	if _, ok := registry.Get("air"); !ok {
		t.Fatal("failed reload removed the live model")
	}

	// Remove, then 404.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/admin/models/fuel", nil)
	resp, err = client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete: status %d", resp.StatusCode)
	}
	if _, resp := postImpute(t, client, ts.URL+"/v1/models/fuel/impute", imputeRequest{Rows: [][]*float64{cells}}); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("impute after delete: status %d", resp.StatusCode)
	}
}

// fullRow builds a fully observed request row from orig's given row.
func fullRow(orig *mat.Dense, row int) []*float64 {
	_, cols := orig.Dims()
	cells := make([]*float64, cols)
	for j := 0; j < cols; j++ {
		v := orig.At(row, j)
		cells[j] = &v
	}
	return cells
}

// postRaw posts an impute request and returns the response plus its decoded
// JSON body as a generic map (postImpute only decodes 200s).
func postRaw(t *testing.T, client *http.Client, url string, req imputeRequest) (*http.Response, map[string]any) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	doc := map[string]any{}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("response body is not JSON: %v", err)
	}
	return resp, doc
}

// checkOverloaded asserts the shared 429 contract: status, a Retry-After
// header of at least one whole second, and the single error body shape with a
// matching retry hint. It returns the header value.
func checkOverloaded(t *testing.T, resp *http.Response, doc map[string]any) int {
	t.Helper()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	header := resp.Header.Get("Retry-After")
	secs, err := strconv.Atoi(header)
	if err != nil || secs < 1 {
		t.Fatalf("Retry-After header %q, want an integer >= 1", header)
	}
	if len(doc) != 2 {
		t.Fatalf("429 body has keys %v, want exactly {error, retry_after_seconds}", doc)
	}
	msg, _ := doc["error"].(string)
	if msg == "" {
		t.Fatalf("429 body missing error: %v", doc)
	}
	hint, ok := doc["retry_after_seconds"].(float64)
	if !ok || int(hint) != secs {
		t.Fatalf("retry_after_seconds %v does not match Retry-After header %d", doc["retry_after_seconds"], secs)
	}
	return secs
}

// TestServerOverloadShedsAndRecovers drives the two shed paths end to end:
// a synthetic overload against a tiny admission window must answer 429 with
// Retry-After while the parked request completes normally, service must
// recover once the window drains, and a stuffed model queue must shed with
// the identical body shape.
func TestServerOverloadShedsAndRecovers(t *testing.T) {
	path, orig, tail := fixture(t)
	metrics := NewMetrics()
	// A window that fits one full-row request (cost 6 of 8) but not two;
	// MinCost = MaxCost pins it.
	registry := NewRegistry(Config{
		Admission: AdmissionConfig{MaxCost: 8, MinCost: 8, TargetP95: time.Hour},
	}, metrics)
	t.Cleanup(registry.Close)
	if _, err := registry.LoadFile("air", path); err != nil {
		t.Fatal(err)
	}
	// A second model whose batcher is replaced (before any traffic) with one
	// that has no capacity and no flush goroutine, so Submit deterministically
	// reports a full queue.
	stuffed, err := registry.LoadFile("stuffed", path)
	if err != nil {
		t.Fatal(err)
	}
	stuffed.batcher.Close()
	stuffed.batcher = &batcher{in: make(chan *foldRequest), metrics: metrics}

	srv := NewServer(registry, metrics)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	client := ts.Client()

	// Hold one admitted request in its batch compute.
	entered, release := holdFirstBatch(t)
	blocked := make(chan int, 1)
	go func() {
		_, resp := postImpute(t, client, ts.URL+"/v1/models/air/impute", imputeRequest{Rows: [][]*float64{fullRow(orig, tail)}})
		blocked <- resp.StatusCode
	}()
	awaitHeld(t, entered)

	// Overload wave: every request must shed with the full 429 contract.
	const waveSize = 5
	type shed struct {
		resp *http.Response
		doc  map[string]any
	}
	sheds := make(chan shed, waveSize)
	var wave sync.WaitGroup
	for i := 0; i < waveSize; i++ {
		wave.Add(1)
		go func(i int) {
			defer wave.Done()
			resp, doc := postRaw(t, client, ts.URL+"/v1/models/air/impute", imputeRequest{Rows: [][]*float64{fullRow(orig, tail+1+i)}})
			sheds <- shed{resp, doc}
		}(i)
	}
	wave.Wait()
	close(sheds)
	for s := range sheds {
		checkOverloaded(t, s.resp, s.doc)
	}
	release()
	if code := <-blocked; code != http.StatusOK {
		t.Fatalf("parked request shed alongside the wave: status %d", code)
	}

	// Recovery: with the window drained the same request is admitted again.
	if _, resp := postImpute(t, client, ts.URL+"/v1/models/air/impute", imputeRequest{Rows: [][]*float64{fullRow(orig, tail)}}); resp.StatusCode != http.StatusOK {
		t.Fatalf("request after drain: status %d, want 200 (no recovery)", resp.StatusCode)
	}

	// Queue-full path: same 429 contract, different cause.
	resp, doc := postRaw(t, client, ts.URL+"/v1/models/stuffed/impute", imputeRequest{Rows: [][]*float64{fullRow(orig, tail)}})
	checkOverloaded(t, resp, doc)
	if msg, _ := doc["error"].(string); !strings.Contains(msg, "queue full") {
		t.Fatalf("queue-full error %q does not name the cause", msg)
	}

	// Shed accounting reached /metrics: the wave plus the stuffed queue.
	snap := metrics.Snapshot()
	if snap.AdmissionRejections != waveSize+1 {
		t.Fatalf("admission_rejections %d, want %d", snap.AdmissionRejections, waveSize+1)
	}
	if want := uint64((waveSize + 1) * 6); snap.ShedCostTotal != want {
		t.Fatalf("shed_cost_total %d, want %d", snap.ShedCostTotal, want)
	}
}

// TestServerReloadRollbackUnderLoad hammers the impute endpoint from
// concurrent workers while the model is hot-reloaded and rolled back
// underneath them. Every in-flight request must succeed against a coherent
// model — observed cells echo exactly and the reported version is a retained
// one — and version pins must keep routing to their pinned entry.
func TestServerReloadRollbackUnderLoad(t *testing.T) {
	path, orig, tail := fixture(t)
	metrics := NewMetrics()
	// KeepVersions exceeds the number of reloads below so no batcher is ever
	// evicted mid-flight: with retention this generous, zero requests may
	// fail for any reason.
	registry := NewRegistry(Config{KeepVersions: 16}, metrics)
	defer registry.Close()
	if _, err := registry.LoadFile("air", path); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewServer(registry, metrics).Handler())
	defer ts.Close()
	client := ts.Client()

	const workers = 8
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var requests atomic.Int64
	_, cols := orig.Dims()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				row := tail + (w*7+i)%(orig.Rows()-tail)
				out, resp := postImpute(t, client, ts.URL+"/v1/models/air/impute", imputeRequest{Rows: [][]*float64{fullRow(orig, row)}})
				if resp.StatusCode != http.StatusOK {
					t.Errorf("worker %d: in-flight request failed during reload/rollback: status %d", w, resp.StatusCode)
					return
				}
				if out.Version < 1 {
					t.Errorf("worker %d: response version %d", w, out.Version)
					return
				}
				for j := 0; j < cols; j++ {
					want := orig.At(row, j)
					if math.Abs(out.Rows[0][j]-want) > 1e-9*math.Max(1, math.Abs(want)) {
						t.Errorf("worker %d: observed cell %d = %v, want %v (torn model state)", w, j, out.Rows[0][j], want)
						return
					}
				}
				requests.Add(1)
			}
		}(w)
	}

	admin := func(method, url string) (int, modelInfo) {
		req, err := http.NewRequest(method, url, strings.NewReader(fmt.Sprintf(`{"path":%q}`, path)))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var info modelInfo
		if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, info
	}

	// Interleave reloads and rollbacks while the workers run.
	wantActive := 1
	for round := 0; round < 3; round++ {
		time.Sleep(20 * time.Millisecond)
		code, info := admin(http.MethodPost, ts.URL+"/admin/models/air")
		if code != http.StatusOK {
			t.Fatalf("round %d reload: status %d", round, code)
		}
		wantActive = info.Version
		time.Sleep(20 * time.Millisecond)
		code, info = admin(http.MethodPost, ts.URL+"/admin/models/air/rollback")
		if code != http.StatusOK {
			t.Fatalf("round %d rollback: status %d", round, code)
		}
		if info.Version != wantActive-1 {
			t.Fatalf("round %d rollback landed on version %d, want %d", round, info.Version, wantActive-1)
		}
		wantActive = info.Version
	}
	time.Sleep(20 * time.Millisecond)
	close(stop)
	wg.Wait()
	if requests.Load() < workers {
		t.Fatalf("only %d requests completed during the churn", requests.Load())
	}

	// The version gauge tracks the rollback target.
	if got := metrics.Snapshot().ModelVersions["air"]; got != wantActive {
		t.Fatalf("model version gauge %d, want %d", got, wantActive)
	}

	// Pins route to their exact retained version, active or not.
	versions, active, ok := registry.Versions("air")
	if !ok || len(versions) < 4 {
		t.Fatalf("retained versions %v (ok=%v), want the full chain", versions, ok)
	}
	if active != wantActive {
		t.Fatalf("active version %d, want %d", active, wantActive)
	}
	for _, v := range []int{versions[0], versions[len(versions)-1]} {
		out, resp := postImpute(t, client, fmt.Sprintf("%s/v1/models/air/impute?version=%d", ts.URL, v), imputeRequest{Rows: [][]*float64{fullRow(orig, tail)}})
		if resp.StatusCode != http.StatusOK || out.Version != v {
			t.Fatalf("pinned version %d: status %d, served version %d", v, resp.StatusCode, out.Version)
		}
	}
	if _, resp := postImpute(t, client, ts.URL+"/v1/models/air/impute?version=999", imputeRequest{Rows: [][]*float64{fullRow(orig, tail)}}); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unretained pin: status %d, want 404", resp.StatusCode)
	}
	if _, resp := postImpute(t, client, ts.URL+"/v1/models/air/impute?version=two", imputeRequest{Rows: [][]*float64{fullRow(orig, tail)}}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed pin: status %d, want 400", resp.StatusCode)
	}
}

// TestRegistryRefusesPartialModels covers the guard against deploying an
// interrupted or diverged training artifact: Register and LoadFile must both
// classify the rejection as ErrPartialModel, and the registry must stay
// empty afterwards.
func TestRegistryRefusesPartialModels(t *testing.T) {
	path, _, _ := fixture(t)
	model, err := core.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	model.Partial = true
	partialPath := filepath.Join(t.TempDir(), "partial.smfl")
	if err := model.SaveFile(partialPath); err != nil {
		t.Fatal(err)
	}

	registry := NewRegistry(Config{}, NewMetrics())
	defer registry.Close()
	if _, err := registry.Register("air", model, partialPath); !errors.Is(err, ErrPartialModel) {
		t.Fatalf("Register(partial) error = %v, want ErrPartialModel", err)
	}
	if _, err := registry.LoadFile("air", partialPath); !errors.Is(err, ErrPartialModel) {
		t.Fatalf("LoadFile(partial) error = %v, want ErrPartialModel", err)
	}
	if registry.Len() != 0 {
		t.Fatalf("registry has %d models after refused registrations, want 0", registry.Len())
	}

	// The same file resumes/loads fine outside the serving layer and, once the
	// partial tag is cleared (a finished training run), registers normally.
	model.Partial = false
	if _, err := registry.Register("air", model, partialPath); err != nil {
		t.Fatalf("Register(completed) error = %v", err)
	}
}
