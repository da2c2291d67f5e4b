package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/spatialmf/smfl/internal/core"
	"github.com/spatialmf/smfl/internal/dataset"
	"github.com/spatialmf/smfl/internal/mat"
)

// ---- serve-impute ----

func (r *runner) serveImpute(ctx context.Context) error {
	in := filepath.Join(r.work, "in.csv")
	out := filepath.Join(r.work, "out.csv")
	model := filepath.Join(r.work, "model.smfl")

	var t *table
	var setups, cal, plain, traced []float64
	var srv *serverProc
	defer func() {
		if srv != nil {
			_, _ = srv.stop() // an earlier error is already being returned
		}
	}()
	for rep := 0; moreSetups(rep, setups); rep++ {
		if srv != nil {
			if _, err := srv.stop(); err != nil {
				return err
			}
			srv = nil
		}
		cal = append(cal, calibrate().Seconds())
		t0 := time.Now()
		tab, err := vehicleTable(serveRows, r.seed)
		if err != nil {
			return err
		}
		if err := writeMaskedCSV(in, tab); err != nil {
			return err
		}
		args, isTraced := r.jobArgs([]string{"-in", in, "-out", out, "-model", model}, rep)
		jr, _, err := r.runJob(ctx, "job-dense", args)
		if err != nil {
			return err
		}
		if srv, err = r.startServer(ctx, model); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
		cal = append(cal, calibrate().Seconds())
		cal = append(cal, jr.CalS...) // the set-up job's own, around the fit that dominates it
		if isTraced {
			traced = append(traced, jr.PipelineS)
			r.collectJob(jr)
		} else {
			plain = append(plain, jr.PipelineS)
		}
		t = tab
	}
	r.setSetup(setups, cal)
	if r.traced {
		r.sample("host.cal_ms", 1000*mean(cal))
	}
	if len(traced) > 0 {
		r.sample("trace.job_overhead_pct", 100*(minOf(traced)/minOf(plain)-1))
	}
	s := srv
	srv = nil
	return r.drive(ctx, s, model, t, r.measured())
}

// ---- serving ----

// serverProc is a running server child.
type serverProc struct {
	cmd  *exec.Cmd
	addr string
}

// startServer starts the server child on model and waits until /healthz
// reports ok.
func (r *runner) startServer(ctx context.Context, model string) (*serverProc, error) {
	args := []string{"serve", "-model", model}
	if r.traced {
		args = append(args, "-trace")
	}
	cmd := r.child(ctx, args...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	p := &serverProc{cmd: cmd}
	line := make(chan string, 1)
	go func() {
		s, _ := bufio.NewReader(stdout).ReadString('\n')
		line <- strings.TrimSpace(s)
		_, _ = io.Copy(io.Discard, stdout) // the server prints nothing more; drain until it exits
	}()
	select {
	case p.addr = <-line:
	case <-time.After(30 * time.Second):
	}
	if p.addr == "" {
		_, _ = p.stop() // the start failure is what gets reported
		return nil, errors.New("server did not report its address")
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get("http://" + p.addr + "/healthz")
		if err == nil {
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK && bytes.Contains(body, []byte(`"ok"`)) {
				return p, nil
			}
		}
		if time.Now().After(deadline) {
			_, _ = p.stop() // the start failure is what gets reported
			return nil, errors.New("server never became healthy")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop drains the server with SIGTERM (a kill after 15 s), waits for it and
// returns its peak RSS.
func (p *serverProc) stop() (float64, error) {
	_ = p.cmd.Process.Signal(syscall.SIGTERM) // an already-exited child is reaped by Wait below
	done := make(chan error, 1)
	go func() { done <- p.cmd.Wait() }()
	var err error
	select {
	case err = <-done:
	case <-time.After(15 * time.Second):
		_ = p.cmd.Process.Kill() // Wait below reports the outcome
		err = <-done
		if err == nil {
			err = errors.New("server did not drain within 15s")
		}
	}
	if err != nil {
		return 0, fmt.Errorf("server: %w", err)
	}
	return maxRSSMB(p.cmd.ProcessState), nil
}

// drive serves for dur against srv: a warm-up, then the fixed-rate phase
// (in a traced run for fixedShare of dur, followed by the slo_rps ladder).
// It always stops srv, whose peak RSS is max_rss_mb.
func (r *runner) drive(ctx context.Context, srv *serverProc, model string, t *table, dur time.Duration) (err error) {
	defer func() {
		rss, serr := srv.stop()
		if err == nil {
			err = serr
		}
		r.e2e["max_rss_mb"] = rss
	}()
	sp := r.tr.begin("setup", 0, "core.load")
	l0 := time.Now()
	m, err := core.LoadFile(model)
	if err != nil {
		return err
	}
	if r.traced {
		r.sample("core.load_ms", ms(time.Since(l0)))
	}
	sp.end(nil)
	if m.Norm == nil {
		return errors.New("served model carries no normalization stats")
	}
	mins, maxs := m.Norm.Mins, m.Norm.Maxs
	items, bodies, err := requestPools(t, mins, maxs, r.seed)
	if err != nil {
		return err
	}
	lg := newLoadgen("http://"+srv.addr+"/v1/models/"+modelName+"/impute", runtime.NumCPU())
	defer lg.close()
	rng := rand.New(rand.NewSource(r.seed + 4))
	pools := [2]int{len(items[classLight]), len(items[classHeavy])}

	lg.run(ctx, poissonSchedule(rng, fixedRate, warmup, heavyShare, pools), bodies, nil, time.Second)

	fixedDur := dur - warmup
	if r.traced {
		fixedDur = time.Duration(fixedShare * float64(dur))
	}
	sched := poissonSchedule(rng, fixedRate, fixedDur, heavyShare, pools)
	var traceIDs []string
	var before serveCounters
	if r.traced {
		traceIDs = make([]string, len(sched))
		for i := range sched {
			if i%2 == 0 {
				traceIDs[i] = fmt.Sprintf("req-%d:%d", i, reqSpanBase+int64(i))
			}
		}
		if before, err = fetchCounters(srv.addr); err != nil {
			return err
		}
		if _, err := queueMax(srv.addr); err != nil {
			return err
		}
	}
	outs := lg.run(ctx, sched, bodies, traceIDs, 2*time.Second)

	var lat [2][]float64
	var all []float64
	var se float64
	var cells int
	failures := make(map[string]int)
	for i, o := range outs {
		a := sched[i]
		r.reqN++
		e, c, cerr := checkResponse(o, items[a.Class][a.Item], mins, maxs)
		v := ms(o.Latency)
		if cerr != nil {
			failures[failureKind(cerr)]++
			v = ms(failLatency)
		} else {
			r.reqOK++
			se += e
			cells += c
		}
		lat[a.Class] = append(lat[a.Class], v)
		all = append(all, v)
	}
	for kind, n := range failures {
		r.problem("%d fixed-rate requests failed: %s", n, kind)
	}
	r.e2e["latency_ms"] = percentile(all, 50)
	r.notes["latency_ms"] = fmt.Sprintf("p50 of %d requests, not scaled", len(all))
	for c, name := range classNames {
		if r.traced {
			r.sample("loadgen.p50_ms."+name, percentile(lat[c], 50))
			r.sample("loadgen.p90_ms."+name, percentile(lat[c], 90))
		}
		fmt.Fprintf(r.stderr, "perfbench: fixed %d req/s for %v: %s n=%d p50 %.3fms p90 %.3fms p99 %.3fms\n",
			fixedRate, fixedDur, name, len(lat[c]), percentile(lat[c], 50), percentile(lat[c], 90), percentile(lat[c], 99))
		if len(lat[c]) < 100 {
			r.problem("only %d %s samples in the fixed-rate phase (want ≥ 100)", len(lat[c]), name)
		}
	}
	if cells == 0 {
		return errors.New("no successful fixed-rate response to score")
	}
	r.e2e["impute_rmse"] = math.Sqrt(se / float64(cells))
	if !r.traced {
		return nil
	}
	if err := r.traceServing(srv.addr, sched, outs, traceIDs, before); err != nil {
		return err
	}
	r.parity(m, sched, outs, items)
	r.foldInReplay(m, items)
	fixed := stepVerdict(fixedRate, outs, lat)
	slo := r.sloSearch(ctx, lg, rng, bodies, items, pools, fixed, dur-fixedDur-warmup, mins, maxs)
	r.sample("loadgen.slo_rps", slo)
	if slo <= 0 {
		r.problem("no offered rate met the SLO")
	}
	return nil
}

// reqSpanBase offsets request span IDs above every other span of the run.
const reqSpanBase = 1 << 48

// failureKind reduces a check error to a countable kind.
func failureKind(err error) string {
	s := err.Error()
	if i := strings.IndexAny(s, ":("); i > 0 {
		return s[:i]
	}
	return s
}

// checkResponse checks one response: a 200 whose body parses, is not
// degraded, has the request's shape, holds only finite values and echoes
// the observed cells. It returns the squared errors of the hidden cells on
// the training min–max scale.
func checkResponse(o outcome, it reqItem, mins, maxs []float64) (float64, int, error) {
	if o.Err != nil {
		return 0, 0, fmt.Errorf("transport: %v", o.Err)
	}
	if o.Status != http.StatusOK {
		return 0, 0, fmt.Errorf("status %d", o.Status)
	}
	var resp struct {
		Rows     [][]float64 `json:"rows"`
		Degraded bool        `json:"degraded"`
	}
	if err := json.Unmarshal(o.Body, &resp); err != nil {
		return 0, 0, fmt.Errorf("body: %v", err)
	}
	if resp.Degraded {
		return 0, 0, errors.New("degraded response")
	}
	if len(resp.Rows) != len(it.truth) {
		return 0, 0, fmt.Errorf("shape: %d rows, sent %d", len(resp.Rows), len(it.truth))
	}
	var se float64
	cells := 0
	for r, row := range resp.Rows {
		want := it.truth[r]
		if len(row) != len(want) {
			return 0, 0, fmt.Errorf("shape: row %d has %d values, sent %d", r, len(row), len(want))
		}
		for j, v := range row {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return 0, 0, fmt.Errorf("non-finite: row %d col %d", r, j)
			}
			span := maxs[j] - mins[j]
			if !it.hidden[r][j] {
				if math.Abs(v-want[j]) > echoTol*math.Max(span, 1) {
					return 0, 0, fmt.Errorf("echo: row %d col %d = %v, sent %v", r, j, v, want[j])
				}
				continue
			}
			e := (v - want[j]) / span
			se += e * e
			cells++
		}
	}
	return se, cells, nil
}

// stepVerdict applies the slo_rps conditions to one phase at an offered
// rate: light p90 under lightP90Limit, more than 99 % of requests ok, and
// no growing backlog (the median latency of the last third of the phase
// within 1.5× + 2 ms of the first third's). Each condition is scored as a
// ratio to its limit; the step passes when the worst is below 1. lat holds
// per-class latencies in ms with failures at failLatency.
func stepVerdict(rate float64, outs []outcome, lat [2][]float64) ladderStep {
	st := ladderStep{rate: rate, p90: percentile(lat[classLight], 90), score: math.Inf(1)}
	if len(outs) == 0 {
		return st
	}
	ok := 0
	all := make([]float64, len(outs))
	for i, o := range outs {
		all[i] = ms(failLatency)
		if o.Err == nil && o.Status == http.StatusOK {
			ok++
			all[i] = ms(o.Latency)
		}
	}
	st.score = math.Max(st.p90/ms(lightP90Limit), (1-float64(ok)/float64(len(outs)))/0.01)
	if third := len(all) / 3; third >= 10 {
		growth := median(all[len(all)-third:]) / (1.5*median(all[:third]) + 2)
		st.score = math.Max(st.score, growth)
	}
	st.pass = st.score < 1
	return st
}

// ladderStep is one rate of the slo_rps search; score is the worst of its
// conditions as a ratio to the condition's limit.
type ladderStep struct {
	rate, p90, score float64
	pass             bool
}

// sloSearch climbs a geometric ladder of offered rates from sloStart (or
// descends from the fixed rate, when that already failed) until one step
// passes and one fails, then spends the remaining steps bisecting that
// bracket geometrically. The result is the highest passing rate, refined by
// interpolating the log of the step score onto 0 between it and the lowest
// failing rate (latency grows steeply near the knee), so the metric is not
// quantized to the ladder.
func (r *runner) sloSearch(ctx context.Context, lg *loadgen, rng *rand.Rand, bodies [2][][]byte, items [2][]reqItem,
	pools [2]int, fixed ladderStep, dur time.Duration, mins, maxs []float64) float64 {
	var pass, fail *ladderStep
	if fixed.pass {
		pass = &fixed
	} else {
		fail = &fixed
	}
	for s := 0; s < int(dur/sloStepDur); s++ {
		var rate float64
		switch {
		case pass != nil && fail != nil:
			rate = math.Sqrt(pass.rate * fail.rate)
		case fail == nil:
			rate = math.Max(sloStart, pass.rate*sloRatio)
		default:
			rate = fail.rate / sloRatio
		}
		sched := poissonSchedule(rng, rate, sloStepDur-100*time.Millisecond, heavyShare, pools)
		outs := lg.run(ctx, sched, bodies, nil, 300*time.Millisecond)
		var lat [2][]float64
		for i, o := range outs {
			a := sched[i]
			v := ms(failLatency)
			if _, _, err := checkResponse(o, items[a.Class][a.Item], mins, maxs); err == nil {
				v = ms(o.Latency)
			}
			lat[a.Class] = append(lat[a.Class], v)
		}
		st := stepVerdict(rate, outs, lat)
		fmt.Fprintf(r.stderr, "perfbench: slo step %d: %.1f req/s light p90 %.2fms score %.3f pass=%v\n", s, rate, st.p90, st.score, st.pass)
		switch {
		case st.pass && (pass == nil || st.rate > pass.rate):
			pass = &st
		case !st.pass && (fail == nil || st.rate < fail.rate):
			fail = &st
		}
		// Let a step past the knee drain before the next one starts.
		time.Sleep(100 * time.Millisecond)
	}
	switch {
	case pass == nil:
		return 0
	case fail == nil || fail.rate <= pass.rate:
		return pass.rate
	}
	frac := math.Log(1/pass.score) / math.Log(fail.score/pass.score)
	return pass.rate + math.Max(0, math.Min(1, frac))*(fail.rate-pass.rate)
}

// ---- traced serving ----

// serveCounters are the server's /metrics counters the traced run diffs.
type serveCounters struct {
	Batch struct {
		Count uint64 `json:"count"`
	} `json:"batch_rows"`
	RowsTotal           uint64 `json:"rows_total"`
	AdmissionRejections uint64 `json:"admission_rejections"`
	TimeoutsTotal       uint64 `json:"timeouts_total"`
	DegradedTotal       uint64 `json:"degraded_responses_total"`
}

func fetchCounters(addr string) (serveCounters, error) {
	var c serveCounters
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		return c, err
	}
	defer resp.Body.Close()
	// /metrics answers JSON unless the scraper asks for Prometheus text.
	if err := json.NewDecoder(resp.Body).Decode(&c); err != nil {
		return c, fmt.Errorf("/metrics: %w", err)
	}
	return c, nil
}

// queueMax returns the server's sampled queue-depth maximum since the last
// call and restarts the window.
func queueMax(addr string) (float64, error) {
	resp, err := http.Get("http://" + addr + "/perfbench/queue")
	if err != nil {
		return 0, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, err
	}
	return strconv.ParseFloat(strings.TrimSpace(string(b)), 64)
}

// traceServing turns the fixed phase into spans and per-layer metrics:
// generator spans for the traced requests, the server's handler spans, the
// Metrics counters over the phase, and the generator's own lateness.
func (r *runner) traceServing(addr string, sched []arrival, outs []outcome, traceIDs []string, before serveCounters) error {
	after, err := fetchCounters(addr)
	if err != nil {
		return err
	}
	qmax, err := queueMax(addr)
	if err != nil {
		return err
	}
	resp, err := http.Get("http://" + addr + "/perfbench/spans")
	if err != nil {
		return err
	}
	var server []Span
	err = json.NewDecoder(resp.Body).Decode(&server)
	resp.Body.Close()
	if err != nil {
		return fmt.Errorf("server spans: %w", err)
	}
	r.spans = append(r.spans, server...)
	handler := make(map[string]Span, len(server))
	for _, s := range server {
		handler[s.Trace] = s
	}

	batches := float64(after.Batch.Count - before.Batch.Count)
	r.sample("serve.batches", batches)
	if batches > 0 {
		r.sample("serve.batch_rows_mean", float64(after.RowsTotal-before.RowsTotal)/batches)
	}
	r.sample("serve.admission_rejections", float64(after.AdmissionRejections-before.AdmissionRejections))
	r.sample("serve.timeouts", float64(after.TimeoutsTotal-before.TimeoutsTotal))
	r.sample("serve.degraded", float64(after.DegradedTotal-before.DegradedTotal))
	r.sample("serve.queue_depth_max", qmax)

	var late, wait []float64
	var hdl, outside [2][]float64
	var tracedLight, plainLight []float64
	for i, o := range outs {
		late = append(late, ms(o.Late))
		wait = append(wait, ms(o.ConnWait))
		ok := o.Err == nil && o.Status == http.StatusOK
		if traceIDs[i] == "" {
			if ok && sched[i].Class == classLight {
				plainLight = append(plainLight, ms(o.Latency))
			}
			continue
		}
		trace, id := parseTraceHeader(traceIDs[i])
		due := o.Start.Add(sched[i].Due).UnixNano()
		r.spans = append(r.spans,
			Span{Trace: trace, ID: id, Name: "loadgen.request", Start: due, End: due + int64(o.Latency),
				Counts: map[string]float64{"heavy": float64(sched[i].Class)}},
			Span{Trace: trace, ID: id + 1<<47, Parent: id, Name: "loadgen.conn_wait", Start: due, End: due + int64(o.ConnWait)})
		if !ok {
			continue
		}
		c := sched[i].Class
		if c == classLight {
			tracedLight = append(tracedLight, ms(o.Latency))
		}
		if h, found := handler[trace]; found {
			hdl[c] = append(hdl[c], ms(h.Dur()))
			outside[c] = append(outside[c], ms(o.Latency-h.Dur()))
		}
	}
	r.sample("loadgen.late_p99_ms", percentile(late, 99))
	r.sample("loadgen.conn_wait_p90_ms", percentile(wait, 90))
	r.sample("loadgen.requests", float64(len(outs)))
	r.sample("serve.handler_p50_ms.light", percentile(hdl[classLight], 50))
	r.sample("serve.handler_p50_ms.heavy", percentile(hdl[classHeavy], 50))
	r.sample("serve.outside_p50_ms.light", percentile(outside[classLight], 50))
	r.sample("trace.request_overhead_pct", 100*(percentile(tracedLight, 50)/percentile(plainLight, 50)-1))
	return nil
}

// parityEvery picks the fixed sample of served responses compared with
// offline completion: every parityEvery-th request of the fixed phase.
const parityEvery = 8

// parity compares served hidden cells with offline Model.CompleteRows on
// the same rows as one block. A served row's fold-in starts from a random
// point drawn by its position in the coalesced batch, so whenever a request
// shared a batch the two can differ; the mismatch share is reported, not
// hidden.
func (r *runner) parity(m *core.Model, sched []arrival, outs []outcome, items [2][]reqItem) {
	nz, err := dataset.NewNormalizer(m.Norm.Mins, m.Norm.Maxs)
	if err != nil {
		r.problem("parity: %v", err)
		return
	}
	compared, mismatched := 0, 0
	for i := 0; i < len(outs); i += parityEvery {
		o := outs[i]
		it := items[sched[i].Class][sched[i].Item]
		if o.Err != nil || o.Status != http.StatusOK {
			continue
		}
		var resp struct {
			Rows [][]float64 `json:"rows"`
		}
		if json.Unmarshal(o.Body, &resp) != nil {
			continue
		}
		rows, mask := requestBlock(it, nz)
		off, err := m.CompleteRows(rows, mask, 100) // the server's fold-in iteration cap
		if err != nil {
			r.problem("parity: offline completion: %v", err)
			return
		}
		nz.Invert(off)
		for rr, hid := range it.hidden {
			for j, h := range hid {
				if !h {
					continue
				}
				compared++
				span := m.Norm.Maxs[j] - m.Norm.Mins[j]
				if math.Abs(resp.Rows[rr][j]-off.At(rr, j)) > echoTol*math.Max(span, 1) {
					mismatched++
				}
			}
		}
	}
	r.sample("serve.parity_cells", float64(compared))
	if compared > 0 {
		r.sample("serve.parity_mismatch_frac", float64(mismatched)/float64(compared))
	}
}

// foldInReplay times Model.FoldIn on request-shaped blocks, in this
// process's default pool width (the server's).
func (r *runner) foldInReplay(m *core.Model, items [2][]reqItem) {
	nz, err := dataset.NewNormalizer(m.Norm.Mins, m.Norm.Maxs)
	if err != nil {
		r.problem("fold-in replay: %v", err)
		return
	}
	for c, name := range []string{"core.foldin_us_per_row.b1", "core.foldin_us_per_row.b64"} {
		it := items[c][0]
		rows, mask := requestBlock(it, nz)
		reps := 60
		if c == classHeavy {
			reps = 15
		}
		d, err := timeCalls(r.tr, "replay", 0, "core.foldin", reps, func() error {
			_, err := m.FoldIn(rows, mask, 100)
			return err
		})
		if err != nil {
			r.problem("fold-in replay: %v", err)
			return
		}
		r.sample(name, us(d)/float64(len(it.truth)))
	}
}

// requestBlock is a request as the server hands it to fold-in: the rows in
// normalized units with hidden cells zeroed, and their observation mask.
func requestBlock(it reqItem, nz *dataset.Normalizer) (*mat.Dense, *mat.Mask) {
	rows := mat.FromRows(it.truth)
	mask := mat.FullMask(len(it.truth), len(it.truth[0]))
	for r, hid := range it.hidden {
		for j, h := range hid {
			if h {
				mask.Hide(r, j)
				rows.Set(r, j, 0)
			}
		}
	}
	nz.Apply(rows)
	return rows, mask
}
