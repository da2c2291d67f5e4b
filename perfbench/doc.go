// Command perfbench is the repository's benchmark: one command that runs a
// seeded workload on the real fit and serve paths, checks the outputs, and
// prints every metric by name and unit. BENCHMARK.json
// at the repository root declares the workloads and metrics; run.sh builds
// this module (it imports the repository's internal packages through a
// replace directive) and runs it from the repository root:
//
//	bash perfbench/run.sh --workload fit-dense --seed 1 --seconds 30 --trace 0
//	bash perfbench/run.sh spread --workload serve-impute --runs 5 --seconds 30
//	bash perfbench/run.sh trace-summary .bench_build/runs/trace-fit-dense-1.jsonl
//
// The last line of standard output is the result:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// Everything else goes to standard error. The usage text below says why
// each workload exists, defines every metric and records the noise facts
// behind the design. The benchmark is Linux-only (it reads children's peak
// RSS from rusage and ties their lifetime to its own).
package main

const usage = `usage: perfbench --workload W [--seed N] [--seconds S] [--trace 0|1]
       perfbench spread --workload W [--runs 10] [--seed 1] [--seconds S]
       perfbench trace-summary FILE

Workloads. Inputs are a pure function of --seed and the programs see only
the generated files and requests. The tables' spatial fields and held-out
rows are those of generator seed 1 on every run, like a fixed dataset with a
fixed test split; the seed draws the hidden cells, the requests and the
arrival schedule.

  fit-dense     The batch path as "smfl impute" runs it with the CLI defaults
                and -maxiter 200: read a CSV with blank cells (Vehicle shape,
                10k rows x 7 columns, 2 SI, 20% of non-SI cells hidden),
                normalize, fit SMFL with the exact KD-tree p-NN graph,
                K-means landmarks and multiplicative updates, recover, write
                the imputed CSV and the .smfl. Why: trainer iterations are
                most of the job, so this shows per-iteration changes in mat,
                spatial and core. It bypasses store, landmark and serve.
  fit-store     The out-of-core path as "smfl convert" plus "smfl impute
                -store mmap -spatial-index landmark -updater sgd -epochs 3"
                run it: set-up converts a 20k x 50 CSV at 90% missing into
                shards; a job opens them under a memory budget of half the
                store, fits, streams the imputed rows out and saves. Why: a
                working set twice the shard cache keeps the store LRU in its
                thrash regime, so this shows store and stochastic-kernel
                changes, which fit-dense never runs.
  serve-impute  The online path: a server process built from
                serve.NewRegistry and serve.NewServer with smfld's defaults
                hosts a model fitted with the CLI defaults (Vehicle shape, 5k
                rows, exact index, no placer) and is driven open loop over
                loopback with held-out rows inside the training range. Light
                requests carry 1 row with 1 hidden non-SI cell, heavy ones 64
                rows with ~30% of non-SI cells hidden. Why: light latency is
                mostly the 2 ms coalescing window and HTTP, heavy latency
                mostly fold-in, so a change helping one class and costing the
                other shows; fit-side changes must leave it flat.

End-to-end metrics (--trace 0). Every workload prints all four, so each
is defined per workload; an operation is a fit job on the fit workloads
and a request on serve-impute. Failed operations are the result's "failed"
count beside "attempted" (serve-impute: requests of the fixed-rate phase,
where a 4xx/5xx, timeout, transport error or "degraded": true fails).

  setup_s       s     median of the run's set-ups (at least 5, repeated over
                      at least 2 s), scaled to the reference host speed
                      (below): generate the table and write the CSV
                      (fit-store: and convert it to shards); serve-impute
                      also fits and saves its model in a job process, starts
                      the server and waits for /healthz ok
  latency_ms    ms    the median operation. Fit workloads: one job, from
                      opening the input to the imputed table and .smfl
                      written, over every untraced job of the run, scaled to
                      the reference host speed. serve-impute: one request,
                      from its due time to its last response byte, at 50
                      req/s offered with 15% heavy for all of --seconds
                      (about 1,250 light and 220 heavy requests in a 30 s
                      run); a failed request counts as 10 s; not scaled, as
                      about 2 ms of it is the coalescing window, a timer. With
                      85% light requests the median is a light one's; the
                      per-class p50 and p90 are traced-run metrics
                      (loadgen.p50_ms.*, loadgen.p90_ms.*), see the noise
                      facts.
  impute_rmse   norm  RMSE over hidden cells against ground truth on the
                      training min-max scale; serve-impute: over the
                      successful responses of the fixed-rate phase
  max_rss_mb    MB    peak RSS of the process doing the measured work: the
                      mean over the run's job processes; serve-impute: the
                      server process

Host speed. A scaled timing is the measured one times 25 ms over the mean
time of calibrate, a fixed CPU-bound loop of the benchmark's own, run in
the same process just before and just after each set-up and each job's
pipeline (serve-impute's set-up also counts its job's two). A run prints
the raw median and the scale beside each scaled metric on standard error;
the traced run reports the mean calibration time as host.cal_ms.

Serving capacity is a traced-run metric, since only serve-impute has it:
loadgen.slo_rps is the highest offered rate, same mix, at which light p90
stays under 25 ms, more than 99% of requests succeed and the backlog does
not grow (median latency of a step's last third within 1.5x + 2 ms of its
first third). A traced serve-impute run serves the fixed rate for half of
--seconds, then a ladder of 2.5 s steps climbs from 150 req/s by x1.5 until
one step fails, the remaining steps bisect the bracket, and the result is
the highest passing rate plus the share of the way to the lowest failing
rate at which the log of the worst condition's ratio to its limit
interpolates to 0.

The generator is this process: at most nproc keep-alive connections, each
carrying one request at a time; arrivals are seeded Poisson with an exact
count (uniform order statistics), sent open loop and timed from their due
time; a request is never retried. Fit jobs run one at a time, each in its
own process with SMFL_WORKERS=1 (recorded as mat.workers), so counts repeat
exactly and a job needs one core.

Output checks (a failed check fails that operation and makes "correct"
false): fit-dense - hidden cells finite, observed cells echoed,
RMSE below column-mean imputation, the .smfl reloads through core.LoadFile
with bit-identical factors, every job of a run bit-identical; fit-store -
the final objective is Float64bits-equal to core.Fit on the same normalized
table, config and pool width (run after the timed jobs), outputs finite and
echoed, jobs bit-identical; serve-impute - every 200 body parses, holds only
finite values, is not degraded and echoes the observed cells.

Traced run (--trace 1): the same seed, printing the per-layer metrics of
BENCHMARK.json; a layer the workload's path does not call did no work and
reads 0. Every other job records the span chain job > read/normalize >
core.fit or core.fitsource > recover/stream > write > save, then replays
the calls made inside the fit (graph, K-means, landmark index, kernels at
the job's shapes) as separate spans. Every other fixed-rate request carries
a trace id header; the server records serve.handler under the generator's
loadgen.request, beside loadgen.conn_wait. Counts come from the same
boundaries (store.Stats, /metrics). A span's self time is its duration
minus what its children cover. trace.job_overhead_pct and
trace.request_overhead_pct compare the traced with the untraced halves of
the run. Untraced runs record no spans and run no replays. Spans are kept
in memory and written to .bench_build/runs/trace-W-N.jsonl at the end.
serve.parity_mismatch_frac compares every 8th fixed-rate response with
offline Model.CompleteRows on the same rows (base: serve.parity_cells).
Fold-in draws a row's random start by its position in the coalesced batch,
so a served answer depends on its batch-mates; this is reported, not
hidden.

Noise facts behind the design (2 vCPUs, no local load):
  - The VM's CPU speed flips between modes: a fixed 0.3 s loop timed back
    to back for 2.5 minutes read 170-380 ms, in plateaus of seconds to a
    minute, with CPU time equal to wall time (not steal that CPU time would
    hide), and calibrate's 25 ms reads 15-30 ms. Over seven rounds of the
    three workloads the median job of a run ranged 1.28-2.54 s (fit-dense)
    and 1.07-1.84 s (fit-store); scaled to the reference host speed,
    1,887-2,088 ms and 1,472-1,765 ms. Scaling helps least where a job
    waits on the kernel (fit-store's shard maps). Raw set-up times ranged
    72% (fit-dense) and 69% (serve-impute) of their minimum, scaled 41%
    and 40%; hence set-ups repeated over at least 2 s. The median over a
    run's jobs damps single slow jobs; the timing bounds are 0.25.
  - Serving: with two connections and heavy requests common enough that
    ~10% of light requests queue behind one, light p90 sits on the edge of
    the slow mode and flips between runs (IQR 30-50% at 100 req/s with 20%
    heavy, and at 50 req/s with 30% heavy); hence 50 req/s with 15% heavy.
    Even there a host phase shifts p50 ~20% and doubles p90 and slo_rps:
    three ten-run sets gave p90 IQRs of 36-93% of the median against 9-20%
    for light p50. p90 and slo_rps are therefore traced-run metrics, not
    gated.
  - Bisecting the offered rate turned one noisy step into a wrong half
    interval (slo_rps IQR 70% of its median); a ladder stopping at the
    first failure quantized it to the step ratio and repeated exact values.
    The score interpolation above removed both.
  - Fits with random terrain per seed spread impute_rmse 8-18% across
    seeds; a fixed table and test split leave 3-7%.
  - Shard-map counts repeat exactly at one pool worker (119,883 at 10
    epochs) and vary ~0.3% at two; final-objective bits depend on the pool
    width, so bitwise checks compare at one width.
  - Peak RSS of the 10k x 7 job lands at ~18.5 or ~21.8 MB depending on GC
    pacing over a small live set; the median over a run's jobs flipped
    between the two (IQR 18% over ten runs), hence the mean over jobs.
`
