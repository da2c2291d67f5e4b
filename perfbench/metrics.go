package main

// metricSpec names one reported metric. Both lists must match
// BENCHMARK.json at the repository root (checked by TestCatalogMatchesJSON).
type metricSpec struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // share of the parent's median a metric may worsen by; end-to-end only
}

// endToEnd is what an untraced run prints, every metric on every workload.
// latency_ms is the time of the workload's operation: a fit job on the fit
// workloads, a request on serve-impute. The timing bounds are wide because
// on the 2-vCPU VM the benchmark was tuned on, every timing moves together
// in phases lasting seconds to minutes (see usage).
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"latency_ms", "ms", "lower", 0.25},
	{"impute_rmse", "norm", "lower", 0.2},
	{"max_rss_mb", "MB", "lower", 0.25},
}

// perLayer is what a traced run prints, on every workload. A layer the
// workload's path does not call reports 0.
var perLayer = []metricSpec{
	{Name: "dataset.read_csv_ms", Unit: "ms", Better: "lower"},
	{Name: "dataset.write_csv_ms", Unit: "ms", Better: "lower"},
	{Name: "spatial.graph_ms", Unit: "ms", Better: "lower"},
	{Name: "spatial.mull_us", Unit: "us", Better: "lower"},
	{Name: "spatial.edges", Unit: "count", Better: "lower"},
	{Name: "kmeans.run_ms", Unit: "ms", Better: "lower"},
	{Name: "kmeans.iters", Unit: "count", Better: "lower"},
	{Name: "landmark.build_ms", Unit: "ms", Better: "lower"},
	{Name: "landmark.pnn_ms", Unit: "ms", Better: "lower"},
	{Name: "landmark.kcenters_ms", Unit: "ms", Better: "lower"},
	{Name: "mat.projectmul_us", Unit: "us", Better: "lower"},
	{Name: "mat.mulbtobs_us", Unit: "us", Better: "lower"},
	{Name: "mat.frob2mul_us", Unit: "us", Better: "lower"},
	{Name: "mat.flops_per_iter", Unit: "flop", Better: "lower"},
	{Name: "mat.bytes_per_iter", Unit: "B", Better: "lower"},
	{Name: "mat.observed_cells", Unit: "count", Better: "lower"},
	{Name: "mat.reshuffle_us", Unit: "us", Better: "lower"},
	{Name: "mat.stochstep_us", Unit: "us", Better: "lower"},
	{Name: "mat.batches_per_epoch", Unit: "count", Better: "lower"},
	{Name: "mat.workers", Unit: "count", Better: "higher"},
	{Name: "core.fit_ms", Unit: "ms", Better: "lower"},
	{Name: "core.iters", Unit: "count", Better: "lower"},
	{Name: "core.iter_ms", Unit: "ms", Better: "lower"},
	{Name: "core.fitsource_ms", Unit: "ms", Better: "lower"},
	{Name: "core.epochs", Unit: "count", Better: "lower"},
	{Name: "core.epoch_ms", Unit: "ms", Better: "lower"},
	{Name: "core.recover_ms", Unit: "ms", Better: "lower"},
	{Name: "core.save_ms", Unit: "ms", Better: "lower"},
	{Name: "core.save_bytes", Unit: "B", Better: "lower"},
	{Name: "core.load_ms", Unit: "ms", Better: "lower"},
	{Name: "core.foldin_us_per_row.b1", Unit: "us", Better: "lower"},
	{Name: "core.foldin_us_per_row.b64", Unit: "us", Better: "lower"},
	{Name: "store.write_ms", Unit: "ms", Better: "lower"},
	{Name: "store.open_ms", Unit: "ms", Better: "lower"},
	{Name: "store.shard_maps", Unit: "count", Better: "lower"},
	{Name: "store.evictions", Unit: "count", Better: "lower"},
	{Name: "store.shards", Unit: "count", Better: "lower"},
	{Name: "store.maps_per_shard_epoch", Unit: "ratio", Better: "lower"},
	{Name: "store.peak_resident_mb", Unit: "MB", Better: "lower"},
	{Name: "serve.handler_p50_ms.light", Unit: "ms", Better: "lower"},
	{Name: "serve.handler_p50_ms.heavy", Unit: "ms", Better: "lower"},
	{Name: "serve.outside_p50_ms.light", Unit: "ms", Better: "lower"},
	{Name: "serve.batch_rows_mean", Unit: "rows", Better: "higher"},
	{Name: "serve.batches", Unit: "count", Better: "lower"},
	{Name: "serve.admission_rejections", Unit: "count", Better: "lower"},
	{Name: "serve.timeouts", Unit: "count", Better: "lower"},
	{Name: "serve.degraded", Unit: "count", Better: "lower"},
	{Name: "serve.queue_depth_max", Unit: "count", Better: "lower"},
	{Name: "serve.parity_mismatch_frac", Unit: "frac", Better: "lower"},
	{Name: "serve.parity_cells", Unit: "count", Better: "higher"},
	{Name: "loadgen.p50_ms.light", Unit: "ms", Better: "lower"},
	{Name: "loadgen.p50_ms.heavy", Unit: "ms", Better: "lower"},
	{Name: "loadgen.p90_ms.light", Unit: "ms", Better: "lower"},
	{Name: "loadgen.p90_ms.heavy", Unit: "ms", Better: "lower"},
	{Name: "loadgen.slo_rps", Unit: "1/s", Better: "higher"},
	{Name: "loadgen.late_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.conn_wait_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.requests", Unit: "count", Better: "higher"},
	{Name: "host.cal_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.job_overhead_pct", Unit: "%", Better: "lower"},
	{Name: "trace.request_overhead_pct", Unit: "%", Better: "lower"},
	{Name: "trace.spans", Unit: "count", Better: "higher"},
}

var perLayerByName = func() map[string]metricSpec {
	m := make(map[string]metricSpec, len(perLayer))
	for _, s := range perLayer {
		m[s.Name] = s
	}
	return m
}()

// ratioBases names, for each ratio or per-unit metric, the count it was
// divided by, so the trace summary prints the two together.
var ratioBases = map[string]string{
	"core.iter_ms":               "core.iters",
	"core.epoch_ms":              "core.epochs",
	"store.maps_per_shard_epoch": "store.shards",
	"serve.parity_mismatch_frac": "serve.parity_cells",
	"serve.batch_rows_mean":      "serve.batches",
	"mat.flops_per_iter":         "mat.observed_cells",
	"mat.bytes_per_iter":         "mat.observed_cells",
	"loadgen.late_p99_ms":        "loadgen.requests",
	"loadgen.conn_wait_p90_ms":   "loadgen.requests",
}
