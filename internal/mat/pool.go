package mat

import (
	"os"
	"runtime"
	"strconv"
	"sync/atomic"
)

// parallelThreshold is the minimum number of scalar operations in a kernel
// before the work is split across the worker pool. Below it the
// synchronization overhead dominates on small operands. It is a variable so
// tests can force the pooled paths on small inputs.
var parallelThreshold = 1 << 20

// workerPool is a fixed set of persistent goroutines draining a shared task
// queue. Kernels submit contiguous chunk closures and the submitting
// goroutine always executes the first chunk itself, so a pool of size 1
// degenerates to serial execution with zero queue traffic.
type workerPool struct {
	size  int
	tasks chan func()
}

var pool atomic.Pointer[workerPool]

func init() { SetWorkers(0) }

// defaultWorkers sizes the pool from GOMAXPROCS, overridden by the
// SMFL_WORKERS environment variable when set to a positive integer.
func defaultWorkers() int {
	n := runtime.GOMAXPROCS(0)
	if s := os.Getenv("SMFL_WORKERS"); s != "" {
		if v, err := strconv.Atoi(s); err == nil && v > 0 {
			n = v
		}
	}
	if n < 1 {
		n = 1
	}
	return n
}

// Workers returns the current size of the shared worker pool.
func Workers() int { return pool.Load().size }

// SetThreshold replaces the parallelization threshold (minimum scalar-op
// estimate before a kernel splits across the pool) and returns the previous
// value; v <= 0 restores the default. For tests in other packages that need
// to force the pooled paths on small inputs.
func SetThreshold(v int) int {
	old := parallelThreshold
	if v <= 0 {
		v = 1 << 20
	}
	parallelThreshold = v
	return old
}

// SetWorkers replaces the shared worker pool with one of n goroutines and
// returns the previous size. n <= 0 resets to the default (GOMAXPROCS, or
// SMFL_WORKERS when set). The chunk partition — and therefore the exact
// floating-point reduction order — is a deterministic function of the pool
// size, so repeated runs at a fixed size are bit-identical.
//
// SetWorkers must not be called concurrently with matrix operations: swaps
// close the old task queue, and a kernel mid-submission would panic.
func SetWorkers(n int) int {
	if n <= 0 {
		n = defaultWorkers()
	}
	np := &workerPool{size: n, tasks: make(chan func(), 8*n)}
	for i := 0; i < n; i++ {
		go func() {
			for f := range np.tasks {
				f()
			}
		}()
	}
	old := pool.Swap(np)
	if old == nil {
		return 0
	}
	close(old.tasks)
	return old.size
}

// chunksFor returns how many contiguous chunks to split n items into given
// the total scalar-op estimate, mirroring the pre-pool heuristics: serial
// below the threshold or when there are too few items to split.
func chunksFor(n, work int) int {
	if work < parallelThreshold {
		return 1
	}
	nw := pool.Load().size
	if nw <= 1 || n < 2*nw {
		return 1
	}
	return nw
}

// parallelChunks splits [0,n) into nchunks contiguous chunks and runs fn on
// each, passing the chunk index. Chunk 0 runs on the calling goroutine; the
// rest are submitted to the pool. While waiting, the caller helps drain the
// shared queue, so even nested or heavily concurrent use cannot deadlock:
// every blocked waiter is also a consumer.
func parallelChunks(n, nchunks int, fn func(ci, lo, hi int)) {
	p := pool.Load()
	chunk := (n + nchunks - 1) / nchunks
	extra := 0 // chunks beyond chunk 0
	for w := 1; w < nchunks && w*chunk < n; w++ {
		extra++
	}
	if extra == 0 {
		fn(0, 0, n)
		return
	}
	var pending atomic.Int64
	pending.Store(int64(extra))
	done := make(chan struct{})
	for w := 1; w <= extra; w++ {
		ci, lo, hi := w, w*chunk, (w+1)*chunk
		if hi > n {
			hi = n
		}
		task := func() {
			fn(ci, lo, hi)
			if pending.Add(-1) == 0 {
				close(done)
			}
		}
		select {
		case p.tasks <- task:
		default:
			task() // queue saturated: run inline
		}
	}
	fn(0, 0, chunk)
	for {
		select {
		case <-done:
			return
		case t, ok := <-p.tasks:
			if !ok {
				// Pool was resized mid-operation; our tasks were
				// drained by the departing workers.
				<-done
				return
			}
			t()
		}
	}
}

// ParallelRange runs fn over [0,n) split into contiguous chunks across the
// shared worker pool when totalWork (an estimate of scalar operations) is
// large enough; otherwise fn runs serially on the caller. fn must be safe to
// run concurrently on disjoint ranges.
func ParallelRange(n, totalWork int, fn func(lo, hi int)) {
	nw := chunksFor(n, totalWork)
	if nw <= 1 {
		fn(0, n)
		return
	}
	parallelChunks(n, nw, func(_, lo, hi int) { fn(lo, hi) })
}

// ChunksFor reports how many contiguous chunks the pooled helpers would
// split n items into given the total scalar-op estimate (1 means serial).
// Callers that keep per-chunk accumulation buffers size them with this.
func ChunksFor(n, totalWork int) int { return chunksFor(n, totalWork) }

// ParallelChunks runs fn over [0,n) split into exactly nchunks contiguous
// chunks on the shared pool, passing each chunk's index so callers can
// accumulate into disjoint per-chunk buffers and combine them in chunk order
// (the deterministic-reduction pattern of ParallelReduce, exposed for
// kernels whose partials are not a single float64). nchunks <= 1 runs fn
// serially as chunk 0.
func ParallelChunks(n, nchunks int, fn func(ci, lo, hi int)) {
	if nchunks <= 1 || n == 0 {
		fn(0, 0, n)
		return
	}
	parallelChunks(n, nchunks, fn)
}

// ParallelReduce sums fn over [0,n) with per-chunk partials combined in
// chunk order, keeping the reduction deterministic for a fixed pool size.
func ParallelReduce(n, totalWork int, fn func(lo, hi int) float64) float64 {
	nw := chunksFor(n, totalWork)
	if nw <= 1 {
		return fn(0, n)
	}
	partials := make([]float64, nw)
	parallelChunks(n, nw, func(ci, lo, hi int) { partials[ci] = fn(lo, hi) })
	var s float64
	for _, v := range partials {
		s += v
	}
	return s
}

// parallelRows preserves the historical helper signature: split rows into
// chunks given the per-row scalar-op estimate.
func parallelRows(rows, workPerRow int, fn func(lo, hi int)) {
	ParallelRange(rows, rows*workPerRow, fn)
}
