package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/spatialmf/smfl/internal/core"
	"github.com/spatialmf/smfl/internal/faultinject"
	"github.com/spatialmf/smfl/internal/mat"
)

// Batching errors surfaced to handlers.
var (
	// ErrClosed is returned by Submit after the batcher began draining; the
	// caller should treat the model as gone (503).
	ErrClosed = errors.New("serve: model batcher closed")
	// ErrOverloaded is returned when the pending-request queue is full —
	// bounded backpressure instead of unbounded memory growth (429).
	ErrOverloaded = errors.New("serve: model queue full")
	// ErrComputePanic tags a batch whose fold-in compute panicked: the panic
	// was contained to the batch (500s for its parked requests) and the
	// flush goroutine keeps serving.
	ErrComputePanic = errors.New("serve: fold-in compute panicked")
)

// BatchFault is the payload of the faultinject.ServeBatch point: one
// coalesced batch about to compute. Hooks may return an error, panic, or
// delay to exercise the failure paths chaos tests assert on.
type BatchFault struct {
	Requests int // parked requests in the batch
	Rows     int // stacked row count
}

// foldRequest is one caller's rows waiting for a coalesced FoldIn. ctx, when
// non-nil, carries the request deadline: a request whose ctx is done by
// flush time is dropped from the batch (never computed) and released back to
// the admission window. release, when non-nil, is called exactly once by the
// batcher after the request was enqueued — computed=true with the batch
// latency when the request went through a fold-in, computed=false when it
// was dropped while parked.
type foldRequest struct {
	ctx     context.Context
	rows    *mat.Dense // normalized units, validated by the handler
	mask    *mat.Mask  // non-nil, same shape as rows
	enq     time.Time
	release func(computed bool, batchLatency time.Duration)
	done    chan foldResult
}

// expired reports whether the request's caller is gone (deadline passed or
// client disconnected).
func (r *foldRequest) expired() bool {
	return r.ctx != nil && r.ctx.Err() != nil
}

// settle invokes the release callback (exactly once per enqueued request —
// the batcher is the sole owner after enqueue) and answers done.
func (r *foldRequest) settle(res foldResult, computed bool) {
	if r.release != nil {
		r.release(computed, time.Since(r.enq))
	}
	r.done <- res
}

type foldResult struct {
	completed *mat.Dense // this caller's rows, hidden cells reconstructed
	coeff     *mat.Dense // this caller's fold-in coefficient block
	batchRows int        // total rows in the FoldIn call that served it
	err       error
}

// batcher coalesces concurrent fold-in requests against one model into
// batched FoldIn calls, solved as a single stacked matrix to amortize the
// masked-matmul cost across callers. Coalescing is work-conserving: the flush
// goroutine takes the oldest request plus whatever is already queued behind
// it (up to maxRows) and computes at once, never waiting for company.
// Requests that arrive during a compute form the next batch, so batches grow
// with load while a lone request pays no dispatch delay. The model is
// immutable (see core.Model), so the single flush goroutine is the only
// coordination needed.
//
// The flush goroutine is panic-isolated: a panic inside one batch's compute
// (a real bug or an injected chaos fault) fails only that batch's parked
// requests with ErrComputePanic and the goroutine keeps serving.
type batcher struct {
	model   *core.Model
	maxRows int
	iters   int
	metrics *Metrics

	mu     sync.RWMutex // guards closed vs. sends on in
	closed bool
	in     chan *foldRequest
	wg     sync.WaitGroup
}

func newBatcher(model *core.Model, cfg Config, metrics *Metrics) *batcher {
	b := &batcher{
		model:   model,
		maxRows: cfg.MaxBatchRows,
		iters:   cfg.FoldInIters,
		metrics: metrics,
		in:      make(chan *foldRequest, cfg.QueueDepth),
	}
	b.wg.Add(1)
	go b.run()
	return b
}

// Submit enqueues rows for the next coalesced FoldIn and blocks until the
// batch containing them is solved or ctx is done. rows/mask must not be
// mutated afterwards; the result matrices are freshly allocated. release,
// when non-nil, is owned by the batcher once the request is enqueued: it
// fires exactly once, even if Submit returns early on ctx — pre-enqueue
// failures (ErrClosed, ErrOverloaded) never invoke it.
func (b *batcher) Submit(ctx context.Context, rows *mat.Dense, mask *mat.Mask, release func(computed bool, batchLatency time.Duration)) (foldResult, error) {
	req := &foldRequest{
		ctx: ctx, rows: rows, mask: mask,
		enq: time.Now(), release: release,
		done: make(chan foldResult, 1),
	}
	b.mu.RLock()
	if b.closed {
		b.mu.RUnlock()
		return foldResult{}, ErrClosed
	}
	// Count the request before the send: the flush goroutine may dequeue it
	// and subtract it at once, and the gauge clamps at zero.
	b.metrics.QueueAdd(1)
	select {
	case b.in <- req:
		b.mu.RUnlock()
	default:
		b.mu.RUnlock()
		b.metrics.QueueAdd(-1)
		return foldResult{}, ErrOverloaded
	}
	select {
	case res := <-req.done:
		return res, res.err
	case <-ctx.Done():
		// The request stays in the batcher's queue; flush will drop it
		// (releasing its admission cost) or compute it, and the buffered
		// done channel absorbs the orphaned result either way.
		return foldResult{}, ctx.Err()
	}
}

// Close stops accepting new requests, drains everything already queued
// through final flushes, and waits for the flush goroutine to exit.
func (b *batcher) Close() {
	b.mu.Lock()
	if !b.closed {
		b.closed = true
		close(b.in)
	}
	b.mu.Unlock()
	b.wg.Wait()
}

func (b *batcher) run() {
	defer b.wg.Done()
	for {
		req, ok := <-b.in
		if !ok {
			return
		}
		b.flush(b.collect(req))
	}
}

// collect gathers the requests already queued behind first, without
// waiting, until maxRows accumulate, the queue is empty, or the input
// channel closes (drain).
func (b *batcher) collect(first *foldRequest) []*foldRequest {
	batch := []*foldRequest{first}
	nrows := first.rows.Rows()
	for nrows < b.maxRows {
		select {
		case req, ok := <-b.in:
			if !ok {
				return batch
			}
			batch = append(batch, req)
			nrows += req.rows.Rows()
		default:
			return batch
		}
	}
	return batch
}

// flush drops requests whose caller is already gone, solves one stacked
// FoldIn for the survivors under the batch deadline, and scatters each
// caller's slice of the result back through its done channel.
func (b *batcher) flush(batch []*foldRequest) {
	b.metrics.QueueAdd(-len(batch))
	live := batch[:0]
	for _, req := range batch {
		if req.expired() {
			// Parked past its deadline (or the client disconnected): release
			// its admission cost without computing it.
			req.settle(foldResult{err: req.ctx.Err()}, false)
			continue
		}
		live = append(live, req)
	}
	if len(live) == 0 {
		return
	}
	blocks := make([]*mat.Dense, len(live))
	masks := make([]*mat.Mask, len(live))
	total := 0
	for i, req := range live {
		blocks[i] = req.rows
		masks[i] = req.mask
		total += req.rows.Rows()
	}
	b.metrics.ObserveBatch(total)
	ctx, cancel := batchContext(live)
	completed, u, err := b.compute(ctx, blocks, masks)
	cancel()
	if err != nil {
		for _, req := range live {
			req.settle(foldResult{err: err, batchRows: total}, true)
		}
		return
	}
	_, k := u.Dims()
	_, cols := completed.Dims()
	off := 0
	for _, req := range live {
		r := req.rows.Rows()
		req.settle(foldResult{
			completed: completed.Slice(off, off+r, 0, cols),
			coeff:     u.Slice(off, off+r, 0, k),
			batchRows: total,
		}, true)
		off += r
	}
}

// batchContext derives the context one coalesced FoldIn runs under: the
// latest member deadline (every member's own deadline is ≤ that, so a
// cancelled batch means every waiter has already timed out), or no deadline
// when any member is deadline-free.
func batchContext(batch []*foldRequest) (context.Context, context.CancelFunc) {
	var latest time.Time
	for _, req := range batch {
		if req.ctx == nil {
			return context.Background(), func() {}
		}
		d, ok := req.ctx.Deadline()
		if !ok {
			return context.Background(), func() {}
		}
		if d.After(latest) {
			latest = d
		}
	}
	return context.WithDeadline(context.Background(), latest)
}

// compute runs the batch's fold-in and reconstruction with panics contained:
// a panicking kernel (or injected chaos fault) surfaces as ErrComputePanic
// for this batch only.
func (b *batcher) compute(ctx context.Context, blocks []*mat.Dense, masks []*mat.Mask) (completed, u *mat.Dense, err error) {
	defer func() {
		if p := recover(); p != nil {
			b.metrics.PanicRecovered()
			completed, u = nil, nil
			err = fmt.Errorf("%w: %v", ErrComputePanic, p)
		}
	}()
	if faultinject.Enabled() {
		rows := 0
		for _, blk := range blocks {
			rows += blk.Rows()
		}
		if ferr := faultinject.Fire(faultinject.ServeBatch, &BatchFault{Requests: len(blocks), Rows: rows}); ferr != nil {
			return nil, nil, fmt.Errorf("serve: batch compute: %w", ferr)
		}
	}
	stacked := mat.VStack(blocks...)
	mask := mat.VStackMasks(masks...)
	u, err = b.model.FoldInCtx(ctx, stacked, mask, b.iters)
	if err != nil {
		return nil, nil, err
	}
	return mask.RecoverInto(mat.Mul(nil, u, b.model.V), stacked), u, nil
}
