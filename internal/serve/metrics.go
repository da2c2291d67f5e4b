package serve

import (
	"math"
	"sync"
	"time"
)

// latencyBuckets are the upper bounds (milliseconds) of the request-latency
// histograms; the last implicit bucket is +Inf.
var latencyBuckets = []float64{0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100, 250, 500, 1000}

// batchBuckets are the upper bounds (rows) of the batch-size histogram.
var batchBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512}

// histogram is a fixed-bucket counter; not goroutine-safe on its own, callers
// hold the Metrics mutex.
type histogram struct {
	bounds []float64
	counts []uint64
	sum    float64
	n      uint64
}

func newHistogram(bounds []float64) *histogram {
	return &histogram{bounds: bounds, counts: make([]uint64, len(bounds)+1)}
}

func (h *histogram) observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i]++
	h.sum += v
	h.n++
}

func (h *histogram) mean() float64 {
	if h.n == 0 {
		return 0
	}
	return h.sum / float64(h.n)
}

// HistogramSnapshot is the JSON image of a histogram: Counts[i] holds the
// observations ≤ Bounds[i], the final entry the overflow.
type HistogramSnapshot struct {
	Bounds []float64 `json:"bounds"`
	Counts []uint64  `json:"counts"`
	Count  uint64    `json:"count"`
	Sum    float64   `json:"sum"`
	Mean   float64   `json:"mean"`
}

func (h *histogram) snapshot() HistogramSnapshot {
	counts := make([]uint64, len(h.counts))
	copy(counts, h.counts)
	return HistogramSnapshot{Bounds: h.bounds, Counts: counts, Count: h.n, Sum: h.sum, Mean: h.mean()}
}

type endpointStats struct {
	count, errors uint64
	latency       *histogram
}

// Metrics aggregates server-wide counters: per-endpoint request/error counts
// and latency histograms, the fold-in batch-size distribution, and rows/sec
// throughput. All methods are goroutine-safe.
type Metrics struct {
	mu            sync.Mutex
	start         time.Time
	inflight      int64
	endpoints     map[string]*endpointStats
	batch         *histogram
	rows          uint64
	queueDepth    int64
	admitRejects  uint64
	shedCost      uint64
	timeouts      uint64
	panics        uint64
	degraded      uint64
	modelVersions map[string]int
}

// NewMetrics returns an empty Metrics whose rows/sec clock starts now.
func NewMetrics() *Metrics {
	return &Metrics{
		start:         time.Now(),
		endpoints:     make(map[string]*endpointStats),
		batch:         newHistogram(batchBuckets),
		modelVersions: make(map[string]int),
	}
}

// BeginRequest marks a request in flight on the named endpoint.
func (m *Metrics) BeginRequest() {
	m.mu.Lock()
	m.inflight++
	m.mu.Unlock()
}

// EndRequest records a finished request: latency bucketing plus error count,
// and releases the in-flight slot taken by BeginRequest.
func (m *Metrics) EndRequest(endpoint string, d time.Duration, isError bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.inflight--
	ep := m.endpoints[endpoint]
	if ep == nil {
		ep = &endpointStats{latency: newHistogram(latencyBuckets)}
		m.endpoints[endpoint] = ep
	}
	ep.count++
	if isError {
		ep.errors++
	}
	ep.latency.observe(float64(d) / float64(time.Millisecond))
}

// ObserveBatch records one coalesced FoldIn flush of the given row count.
func (m *Metrics) ObserveBatch(rows int) {
	m.mu.Lock()
	m.batch.observe(float64(rows))
	m.rows += uint64(rows)
	m.mu.Unlock()
}

// QueueAdd moves the pending fold-in request gauge by delta (batchers call
// +1 on enqueue, −n when a flush answers n requests).
func (m *Metrics) QueueAdd(delta int) {
	m.mu.Lock()
	m.queueDepth += int64(delta)
	if m.queueDepth < 0 {
		m.queueDepth = 0
	}
	m.mu.Unlock()
}

// QueueDepth returns the pending fold-in request gauge.
func (m *Metrics) QueueDepth() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.queueDepth
}

// AdmissionRejected counts one shed request (admission window or queue full)
// and accumulates the cost it would have put in flight.
func (m *Metrics) AdmissionRejected(cost int64) {
	if cost < 0 {
		cost = 0
	}
	m.mu.Lock()
	m.admitRejects++
	m.shedCost += uint64(cost)
	m.mu.Unlock()
}

// Timeout counts one request that exceeded its deadline (answered 504, or
// abandoned by a disconnected client) anywhere in the impute lifecycle.
func (m *Metrics) Timeout() {
	m.mu.Lock()
	m.timeouts++
	m.mu.Unlock()
}

// PanicRecovered counts one batch compute panic contained by the batcher's
// isolation (the batch failed, the daemon kept serving).
func (m *Metrics) PanicRecovered() {
	m.mu.Lock()
	m.panics++
	m.mu.Unlock()
}

// DegradedServed counts one impute request answered from the degraded-mode
// fallback instead of the real fold-in path.
func (m *Metrics) DegradedServed() {
	m.mu.Lock()
	m.degraded++
	m.mu.Unlock()
}

// SetModelVersion records the active version of a served model (a gauge on
// /metrics; rollbacks move it backwards).
func (m *Metrics) SetModelVersion(name string, version int) {
	m.mu.Lock()
	m.modelVersions[name] = version
	m.mu.Unlock()
}

// DropModel removes a model's version gauge after unregistration.
func (m *Metrics) DropModel(name string) {
	m.mu.Lock()
	delete(m.modelVersions, name)
	m.mu.Unlock()
}

// EndpointSnapshot is the JSON image of one endpoint's counters.
type EndpointSnapshot struct {
	Count     uint64            `json:"count"`
	Errors    uint64            `json:"errors"`
	LatencyMS HistogramSnapshot `json:"latency_ms"`
}

// Snapshot is the document served at /metrics — as JSON by default and as
// Prometheus text exposition under content negotiation (see WritePrometheus).
// The admission gauges are filled in by the HTTP handler from the live
// Admission controller; both views render the same Snapshot value, so their
// counters are identical by construction (golden-tested).
type Snapshot struct {
	UptimeSeconds float64                     `json:"uptime_seconds"`
	Inflight      int64                       `json:"inflight"`
	Endpoints     map[string]EndpointSnapshot `json:"endpoints"`
	Batch         HistogramSnapshot           `json:"batch_rows"`
	MeanBatchSize float64                     `json:"mean_batch_size"`
	RowsTotal     uint64                      `json:"rows_total"`
	RowsPerSecond float64                     `json:"rows_per_second"`

	QueueDepth            int64          `json:"queue_depth"`
	AdmissionRejections   uint64         `json:"admission_rejections"`
	ShedCostTotal         uint64         `json:"shed_cost_total"`
	AdmissionWindowCost   int64          `json:"admission_window_cost"`
	AdmissionInflightCost int64          `json:"admission_inflight_cost"`
	ModelVersions         map[string]int `json:"model_versions"`

	TimeoutsTotal uint64 `json:"timeouts_total"`
	PanicsTotal   uint64 `json:"panics_total"`
	DegradedTotal uint64 `json:"degraded_responses_total"`
	// Health and BreakerState are filled in by the HTTP handler from the
	// live Health state machine, like the admission gauges above.
	Health       string `json:"health"`
	BreakerState int    `json:"breaker_state"`
}

// Snapshot returns a consistent copy of all counters.
func (m *Metrics) Snapshot() Snapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	eps := make(map[string]EndpointSnapshot, len(m.endpoints))
	for name, ep := range m.endpoints {
		eps[name] = EndpointSnapshot{Count: ep.count, Errors: ep.errors, LatencyMS: ep.latency.snapshot()}
	}
	elapsed := time.Since(m.start).Seconds()
	rps := 0.0
	if elapsed > 0 {
		rps = float64(m.rows) / elapsed
	}
	if math.IsNaN(rps) || math.IsInf(rps, 0) {
		rps = 0
	}
	versions := make(map[string]int, len(m.modelVersions))
	for name, v := range m.modelVersions {
		versions[name] = v
	}
	return Snapshot{
		UptimeSeconds:       elapsed,
		Inflight:            m.inflight,
		Endpoints:           eps,
		Batch:               m.batch.snapshot(),
		MeanBatchSize:       m.batch.mean(),
		RowsTotal:           m.rows,
		RowsPerSecond:       rps,
		QueueDepth:          m.queueDepth,
		AdmissionRejections: m.admitRejects,
		ShedCostTotal:       m.shedCost,
		TimeoutsTotal:       m.timeouts,
		PanicsTotal:         m.panics,
		DegradedTotal:       m.degraded,
		ModelVersions:       versions,
	}
}
