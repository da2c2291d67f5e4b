package serve

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"
	"time"

	"github.com/spatialmf/smfl/internal/core"
	"github.com/spatialmf/smfl/internal/dataset"
	"github.com/spatialmf/smfl/internal/faultinject"
	"github.com/spatialmf/smfl/internal/mat"
)

// smallModel fits a tiny SMFL model for batcher/registry unit tests and
// returns it with the normalized table it was trained on.
func smallModel(t testing.TB) (*core.Model, *mat.Dense) {
	t.Helper()
	res, err := dataset.Generate(dataset.Spec{
		Name: "unit", N: 120, M: 6, L: 2,
		Latents: 2, Bumps: 3, Clusters: 3, Noise: 0.02, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := res.Data.Normalize(); err != nil {
		t.Fatal(err)
	}
	model, err := core.Fit(res.Data.X, nil, 2, core.SMFL, core.Config{K: 4, MaxIter: 80, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	return model, res.Data.X
}

// holdFirstBatch arms faultinject.ServeBatch so the next batch to compute
// blocks inside the hook until release is called; entered delivers that
// batch's size once it is blocked. While it is held the flush goroutine is busy, so
// requests submitted meanwhile queue behind it deterministically and the
// next collect drains them together. Register the batcher's (or registry's)
// Close with t.Cleanup before calling: the held batch is then released
// before Close waits for it, even when the test fails early.
func holdFirstBatch(t testing.TB) (entered <-chan BatchFault, release func()) {
	t.Helper()
	in := make(chan BatchFault, 1)
	gate := make(chan struct{})
	faultinject.Enable(faultinject.ServeBatch, faultinject.Once(func(payload any) error {
		in <- *payload.(*BatchFault)
		<-gate
		return nil
	}))
	var once sync.Once
	release = func() { once.Do(func() { close(gate) }) }
	t.Cleanup(func() {
		release()
		faultinject.Reset()
	})
	return in, release
}

// awaitHeld waits for the batch holdFirstBatch arms to reach its hook and
// returns its size.
func awaitHeld(t testing.TB, entered <-chan BatchFault) BatchFault {
	t.Helper()
	select {
	case f := <-entered:
		return f
	case <-time.After(10 * time.Second):
		t.Fatal("first batch never reached compute")
		return BatchFault{}
	}
}

// awaitQueued waits until n requests sit in the batcher's input queue.
func awaitQueued(t testing.TB, b *batcher, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for len(b.in) < n {
		if time.Now().After(deadline) {
			t.Fatalf("%d requests queued, want %d", len(b.in), n)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// unitRequest is row i of x, fully observed, for tests that enqueue on b.in
// directly instead of through Submit.
func unitRequest(x *mat.Dense, i int) *foldRequest {
	return &foldRequest{rows: x.Slice(i, i+1, 0, 6), mask: mat.FullMask(1, 6), done: make(chan foldResult, 1)}
}

func TestBatcherCoalesces(t *testing.T) {
	model, x := smallModel(t)
	b := newBatcher(model, Config{}.withDefaults(), NewMetrics())
	t.Cleanup(b.Close)
	entered, release := holdFirstBatch(t)
	plug := unitRequest(x, 0)
	b.in <- plug
	awaitHeld(t, entered)
	// Every request is pending before the flush goroutine is free again, so
	// the next collect takes all of them.
	const n = 16
	reqs := make([]*foldRequest, n)
	for i := range reqs {
		reqs[i] = unitRequest(x, i)
		b.in <- reqs[i]
	}
	release()
	if res := <-plug.done; res.err != nil || res.batchRows != 1 {
		t.Fatalf("held request: batch of %d rows, err %v", res.batchRows, res.err)
	}
	for i, req := range reqs {
		res := <-req.done
		if res.err != nil {
			t.Fatalf("request %d: %v", i, res.err)
		}
		if res.batchRows != n {
			t.Fatalf("request %d served in a batch of %d rows, want %d", i, res.batchRows, n)
		}
		if r, c := res.completed.Dims(); r != 1 || c != 6 {
			t.Fatalf("request %d completed shape %dx%d", i, r, c)
		}
		if r, c := res.coeff.Dims(); r != 1 || c != 4 {
			t.Fatalf("request %d coeff shape %dx%d", i, r, c)
		}
		// Each caller's slice must match its own row's reconstruction:
		// observed cells are recovered verbatim.
		for j := 0; j < 6; j++ {
			if res.completed.At(0, j) != x.At(i, j) {
				t.Fatalf("request %d cell %d = %v, want %v", i, j, res.completed.At(0, j), x.At(i, j))
			}
		}
	}
}

func TestBatcherFlushesAtMaxRows(t *testing.T) {
	model, x := smallModel(t)
	b := newBatcher(model, Config{MaxBatchRows: 4}.withDefaults(), nil)
	t.Cleanup(b.Close)
	entered, release := holdFirstBatch(t)
	plug := unitRequest(x, 0)
	b.in <- plug
	awaitHeld(t, entered)
	// Twice maxRows queue behind the held batch: collect must cut them into
	// two full batches rather than one oversized one.
	const n = 8
	var wg sync.WaitGroup
	done := make(chan foldResult, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := b.Submit(context.Background(), x.Slice(i, i+1, 0, 6), mat.FullMask(1, 6), nil)
			if err != nil {
				t.Errorf("submit: %v", err)
				return
			}
			done <- res
		}(i)
	}
	awaitQueued(t, b, n)
	release()
	waited := make(chan struct{})
	go func() { wg.Wait(); close(waited) }()
	select {
	case <-waited:
	case <-time.After(10 * time.Second):
		t.Fatal("maxRows flush never fired")
	}
	close(done)
	for res := range done {
		if res.batchRows != 4 {
			t.Fatalf("batch of %d rows, want 4", res.batchRows)
		}
	}
}

// TestBatcherLoneRequestNotParked pins the work-conserving policy: a request
// with nothing queued behind it is solved at once, whatever the deprecated
// Window says, and its answer is the single-row fold-in bit for bit.
func TestBatcherLoneRequestNotParked(t *testing.T) {
	model, x := smallModel(t)
	cfg := Config{Window: time.Hour}.withDefaults()
	b := newBatcher(model, cfg, nil)
	t.Cleanup(b.Close)
	row := x.Slice(3, 4, 0, 6)
	mask := mat.FullMask(1, 6)
	mask.Hide(0, 4)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	res, err := b.Submit(ctx, row, mask, nil)
	if err != nil {
		t.Fatalf("lone request: %v", err)
	}
	if res.batchRows != 1 {
		t.Fatalf("lone request served in a batch of %d rows", res.batchRows)
	}
	want, err := model.FoldIn(row, mask, cfg.FoldInIters)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < want.Cols(); j++ {
		if got := res.coeff.At(0, j); math.Float64bits(got) != math.Float64bits(want.At(0, j)) {
			t.Fatalf("coefficient %d = %v, single-row FoldIn gives %v", j, got, want.At(0, j))
		}
	}
}

// BenchmarkBatcherLoneRequest times serial single-row Submits: with nothing
// to coalesce, each one costs a fold-in plus the hand-off to the flush
// goroutine and back.
func BenchmarkBatcherLoneRequest(b *testing.B) {
	model, x := smallModel(b)
	bt := newBatcher(model, Config{}.withDefaults(), nil)
	defer bt.Close()
	mask := mat.FullMask(1, 6)
	mask.Hide(0, 4)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := i % x.Rows()
		if _, err := bt.Submit(ctx, x.Slice(r, r+1, 0, 6), mask, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func TestBatcherPropagatesFoldInError(t *testing.T) {
	model, _ := smallModel(t)
	b := newBatcher(model, Config{}.withDefaults(), nil)
	defer b.Close()
	// Wrong column count reaches FoldIn (handlers validate, the batcher
	// itself must still fail cleanly) and the error fans back out.
	bad := mat.NewDense(1, 5)
	if _, err := b.Submit(context.Background(), bad, mat.FullMask(1, 5), nil); err == nil {
		t.Fatal("expected FoldIn shape error")
	}
}

func TestBatcherCloseDrainsAndRejects(t *testing.T) {
	model, x := smallModel(t)
	b := newBatcher(model, Config{}.withDefaults(), nil)
	// Queue a wave on the buffered channel, then Close: every queued request
	// must be flushed (drained), not dropped.
	reqs := make([]*foldRequest, 8)
	for i := range reqs {
		reqs[i] = unitRequest(x, i)
		b.in <- reqs[i]
	}
	b.Close()
	for i, req := range reqs {
		select {
		case res := <-req.done:
			if res.err != nil {
				t.Fatalf("request %d dropped during drain: %v", i, res.err)
			}
		default:
			t.Fatalf("request %d never answered after Close", i)
		}
	}
	if _, err := b.Submit(context.Background(), x.Slice(0, 1, 0, 6), mat.FullMask(1, 6), nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after close: %v, want ErrClosed", err)
	}
}

func TestBatcherContextCancel(t *testing.T) {
	model, x := smallModel(t)
	b := newBatcher(model, Config{}.withDefaults(), nil)
	defer b.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := b.Submit(ctx, x.Slice(0, 1, 0, 6), mat.FullMask(1, 6), nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled submit: %v", err)
	}
}

func TestRegistryLifecycle(t *testing.T) {
	model, x := smallModel(t)
	reg := NewRegistry(Config{KeepVersions: 2}, nil)
	defer reg.Close()

	if _, err := reg.Register("", model, ""); err == nil {
		t.Fatal("expected empty-name error")
	}
	if _, err := reg.Register("bad", &core.Model{}, ""); err == nil {
		t.Fatal("expected unfitted-model error")
	}
	first, err := reg.Register("m", model, "a.smfl")
	if err != nil {
		t.Fatal(err)
	}
	if e, ok := reg.Get("m"); !ok || e != first || e.Version != 1 {
		t.Fatal("Get did not return the registered entry")
	}
	if reg.Len() != 1 {
		t.Fatalf("Len = %d", reg.Len())
	}
	// Hot swap appends a new version and routes unpinned requests to it; the
	// displaced version stays retained (and live) for pinning and rollback.
	second, err := reg.Register("m", model, "b.smfl")
	if err != nil {
		t.Fatal(err)
	}
	if e, _ := reg.Get("m"); e != second || e.Path != "b.smfl" || e.Version != 2 {
		t.Fatal("hot swap did not install the new entry")
	}
	if e, ok := reg.GetVersion("m", 1); !ok || e != first {
		t.Fatal("previous version not pinnable after swap")
	}
	if _, err := first.batcher.Submit(context.Background(), x.Slice(0, 1, 0, 6), mat.FullMask(1, 6), nil); err != nil {
		t.Fatalf("retained version stopped serving after swap: %v", err)
	}
	// A third version pushes the chain past KeepVersions=2: version 1 is
	// evicted and its batcher drained.
	third, err := reg.Register("m", model, "c.smfl")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := reg.GetVersion("m", 1); ok {
		t.Fatal("evicted version still pinnable")
	}
	if _, err := first.batcher.Submit(context.Background(), x.Slice(0, 1, 0, 6), mat.FullMask(1, 6), nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("evicted batcher still accepting: %v", err)
	}
	if versions, active, ok := reg.Versions("m"); !ok || active != 3 || len(versions) != 2 || versions[0] != 2 || versions[1] != 3 {
		t.Fatalf("Versions = %v active %d ok %v", versions, active, ok)
	}

	// Rollback reverts the active pointer; the rolled-back-from version stays
	// retained so the revert itself is revertible.
	rolled, err := reg.Rollback("m")
	if err != nil {
		t.Fatal(err)
	}
	if rolled != second {
		t.Fatal("rollback did not restore the previous version")
	}
	if e, _ := reg.Get("m"); e != second {
		t.Fatal("Get does not follow the rollback")
	}
	if e, ok := reg.GetVersion("m", 3); !ok || e != third {
		t.Fatal("rolled-back-from version no longer pinnable")
	}
	if _, err := reg.Rollback("m"); !errors.Is(err, ErrNoPreviousVersion) {
		t.Fatalf("rollback past the oldest version: %v", err)
	}
	if _, err := reg.Rollback("ghost"); !errors.Is(err, ErrUnknownModel) {
		t.Fatalf("rollback on unknown model: %v", err)
	}

	if !reg.Remove("m") || reg.Remove("m") {
		t.Fatal("Remove bookkeeping wrong")
	}
	if reg.Len() != 0 {
		t.Fatalf("Len after remove = %d", reg.Len())
	}
	// Remove drains every retained version, not just the active one.
	for i, e := range []*Entry{second, third} {
		if _, err := e.batcher.Submit(context.Background(), x.Slice(0, 1, 0, 6), mat.FullMask(1, 6), nil); !errors.Is(err, ErrClosed) {
			t.Fatalf("version %d batcher still accepting after Remove: %v", i+2, err)
		}
	}
}

func TestRegistryRollbackThenRegisterEvicts(t *testing.T) {
	model, _ := smallModel(t)
	reg := NewRegistry(Config{KeepVersions: 2}, NewMetrics())
	defer reg.Close()
	for i := 0; i < 2; i++ {
		if _, err := reg.Register("m", model, "p"); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := reg.Rollback("m"); err != nil { // active: v1
		t.Fatal(err)
	}
	// Register after a rollback: v3 becomes active, chain [v2, v3] after
	// eviction (oldest goes first and the active index stays correct).
	e, err := reg.Register("m", model, "p")
	if err != nil {
		t.Fatal(err)
	}
	if e.Version != 3 {
		t.Fatalf("version after rollback+register = %d, want 3", e.Version)
	}
	if got, _ := reg.Get("m"); got != e {
		t.Fatal("active entry wrong after rollback+register")
	}
	if versions, active, _ := reg.Versions("m"); active != 3 || len(versions) != 2 || versions[0] != 2 {
		t.Fatalf("chain %v active %d", versions, active)
	}
}

func TestRegistryNormValidation(t *testing.T) {
	model, _ := smallModel(t)
	model.Norm = &core.Norm{Mins: []float64{0}, Maxs: []float64{1}} // wrong width
	reg := NewRegistry(Config{}, nil)
	defer reg.Close()
	if _, err := reg.Register("m", model, ""); err == nil {
		t.Fatal("expected norm width error")
	}
}

func TestMetricsHistogram(t *testing.T) {
	h := newHistogram([]float64{1, 10})
	for _, v := range []float64{0.5, 1, 5, 100} {
		h.observe(v)
	}
	if h.counts[0] != 2 || h.counts[1] != 1 || h.counts[2] != 1 {
		t.Fatalf("bucket counts %v", h.counts)
	}
	if got := h.mean(); got != 26.625 {
		t.Fatalf("mean %v", got)
	}

	m := NewMetrics()
	m.BeginRequest()
	m.BeginRequest()
	if m.Inflight() != 2 {
		t.Fatal("inflight not tracked")
	}
	m.EndRequest("impute", 2*time.Millisecond, false)
	m.EndRequest("impute", 3*time.Millisecond, true)
	if m.Inflight() != 0 {
		t.Fatal("inflight not released")
	}
	m.ObserveBatch(8)
	m.ObserveBatch(2)
	snap := m.Snapshot()
	ep := snap.Endpoints["impute"]
	if ep.Count != 2 || ep.Errors != 1 {
		t.Fatalf("endpoint snapshot %+v", ep)
	}
	if snap.MeanBatchSize != 5 || snap.RowsTotal != 10 {
		t.Fatalf("batch stats %+v", snap)
	}
}
