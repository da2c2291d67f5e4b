package main

import (
	"context"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestPoissonSchedule(t *testing.T) {
	const rate, share = 500.0, 0.2
	dur := 20 * time.Second
	a := poissonSchedule(rand.New(rand.NewSource(3)), rate, dur, share, [2]int{7, 3})
	b := poissonSchedule(rand.New(rand.NewSource(3)), rate, dur, share, [2]int{7, 3})
	if len(a) != len(b) {
		t.Fatalf("same seed, different schedules: %d vs %d arrivals", len(a), len(b))
	}
	heavy := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("arrival %d differs under the same seed: %+v vs %+v", i, a[i], b[i])
		}
		if i > 0 && a[i].Due < a[i-1].Due {
			t.Fatalf("arrival %d due %v before arrival %d at %v", i, a[i].Due, i-1, a[i-1].Due)
		}
		if a[i].Due < 0 || a[i].Due >= dur {
			t.Fatalf("arrival %d due %v outside [0, %v)", i, a[i].Due, dur)
		}
		pool := [2]int{7, 3}[a[i].Class]
		if a[i].Item < 0 || a[i].Item >= pool {
			t.Fatalf("arrival %d item %d outside its pool of %d", i, a[i].Item, pool)
		}
		if a[i].Class == classHeavy {
			heavy++
		}
	}
	if len(a) != 10000 || heavy != 2000 {
		t.Errorf("%d arrivals, %d heavy; want exactly 10000 and 2000", len(a), heavy)
	}
	// Uniform order statistics have nearly exponential gaps, whose
	// coefficient of variation is 1: arrivals still come in Poisson clumps.
	var gaps []float64
	for i := 1; i < len(a); i++ {
		gaps = append(gaps, (a[i].Due - a[i-1].Due).Seconds())
	}
	m := mean(gaps)
	v := 0.0
	for _, g := range gaps {
		v += (g - m) * (g - m)
	}
	if cv := math.Sqrt(v/float64(len(gaps))) / m; math.Abs(cv-1) > 0.05 { // exponential gaps
		t.Errorf("inter-arrival CV %.3f, want 1 ± 0.05", cv)
	}
	if c := poissonSchedule(rand.New(rand.NewSource(4)), rate, dur, share, [2]int{7, 3}); len(c) > 0 && len(c) == len(a) && c[0] == a[0] {
		t.Error("a different seed gave the same schedule")
	}
}

// TestOpenLoopTimesFromDueTime checks that a stall is charged to every
// request queued behind it: with one connection and a server that holds the
// first request for 60 ms, a request due 5 ms in must report the wait.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		if calls.Add(1) == 1 {
			time.Sleep(60 * time.Millisecond)
		}
		if r.Header.Get(traceHeader) == "" {
			w.WriteHeader(http.StatusTeapot)
		}
	}))
	defer srv.Close()
	lg := newLoadgen(srv.URL, 1)
	defer lg.close()
	sched := []arrival{{Due: 0}, {Due: 5 * time.Millisecond}, {Due: 10 * time.Millisecond, Class: classHeavy}}
	bodies := [2][][]byte{{[]byte("{}")}, {[]byte("{}")}}
	outs := lg.run(context.Background(), sched, bodies, []string{"a:1", "b:2", ""}, time.Second)
	if outs[0].Latency < 60*time.Millisecond {
		t.Errorf("first request latency %v, want ≥ 60ms", outs[0].Latency)
	}
	if outs[1].Latency < 50*time.Millisecond || outs[1].ConnWait < 50*time.Millisecond {
		t.Errorf("second request latency %v conn wait %v: the stall was not charged from its due time", outs[1].Latency, outs[1].ConnWait)
	}
	if outs[0].Status != http.StatusOK || outs[2].Status != http.StatusTeapot {
		t.Errorf("statuses %d %d: the trace header went to the wrong requests", outs[0].Status, outs[2].Status)
	}
	if int(calls.Load()) != len(sched) {
		t.Errorf("server saw %d requests, want %d (no retries, no drops)", calls.Load(), len(sched))
	}
}

// TestOpenLoopCutoff checks that a backlog past the cut-off is dropped
// unsent instead of stretching the phase.
func TestOpenLoopCutoff(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(40 * time.Millisecond)
	}))
	defer srv.Close()
	lg := newLoadgen(srv.URL, 1)
	defer lg.close()
	var sched []arrival
	for i := 0; i < 20; i++ {
		sched = append(sched, arrival{Due: time.Duration(i) * time.Millisecond})
	}
	outs := lg.run(context.Background(), sched, [2][][]byte{{[]byte("{}")}, nil}, nil, 50*time.Millisecond)
	unsent := 0
	for _, o := range outs {
		if o.Err != nil && strings.HasPrefix(o.Err.Error(), "backlog") {
			unsent++
		}
	}
	if unsent == 0 || unsent == len(outs) {
		t.Errorf("%d of %d requests unsent; want some sent and the backlog dropped", unsent, len(outs))
	}
}

func TestStepVerdict(t *testing.T) {
	const n = 300
	step := func(latency func(i int) time.Duration, failEvery int) ladderStep {
		outs := make([]outcome, n)
		var lat [2][]float64
		for i := range outs {
			outs[i] = outcome{Status: http.StatusOK, Latency: latency(i)}
			if failEvery > 0 && i%failEvery == 0 {
				outs[i] = outcome{Status: http.StatusTooManyRequests}
			}
			v := ms(outs[i].Latency)
			if outs[i].Status != http.StatusOK {
				v = ms(failLatency)
			}
			lat[i%2] = append(lat[i%2], v)
		}
		return stepVerdict(100, outs, lat)
	}
	flat := step(func(int) time.Duration { return 5 * time.Millisecond }, 0)
	// A flat phase scores the larger of p90/limit and 5/(1.5·5+2), the
	// backlog ratio of equal thirds.
	if want := math.Max(5/ms(lightP90Limit), 5/9.5); !flat.pass || math.Abs(flat.score-want) > 1e-9 {
		t.Errorf("steady 5ms phase: %+v, want a pass scored %v", flat, want)
	}
	if s := step(func(int) time.Duration { return 5 * time.Millisecond }, 20); s.pass || s.score < 5 {
		t.Errorf("5%% failures: %+v, want a fail scored ≥ 5 (1 %% allowed)", s)
	}
	growing := step(func(i int) time.Duration { return time.Duration(1+i/10) * time.Millisecond }, 0)
	if growing.pass {
		t.Errorf("latency growing through the phase: %+v, want the backlog condition to fail it", growing)
	}
}
