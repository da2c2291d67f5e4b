package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"sort"
	"time"
)

// The load generator is open loop: every request has a due time drawn from
// a seeded Poisson process and is sent then whether or not earlier requests
// finished, because the users of an imputation service are independent. A
// request's latency runs from its due time to its last response byte, so a
// stall charges every request queued behind it (no coordinated omission).
// At most nconn keep-alive connections carry the load, one request at a time
// each; a due request waits for a free connection and that wait is part of
// its latency. Requests are never retried: a 429, 503, 504 or transport
// error is a failed operation the run must count.

// Request classes of the serving mix.
const (
	classLight = iota // 1 row, 1 hidden non-SI cell
	classHeavy        // 64 rows, ~30 % of non-SI cells hidden
)

var classNames = [...]string{"light", "heavy"}

// arrival is one scheduled request.
type arrival struct {
	Due   time.Duration // offset from the phase start
	Class int
	Item  int // index into the class's request pool
}

// poissonSchedule draws the arrivals of a Poisson process of the given rate
// (requests per second) over dur, conditioned on its expected count: n =
// round(rate·dur) due times uniform on [0, dur), sorted — the arrival pattern
// of a Poisson process that delivered exactly n requests. Exactly
// round(n·heavyShare) of them, at shuffled positions, are heavy; each picks a
// pool item uniformly (pool sizes are per class). Fixing the counts keeps
// every run's sample sizes and offered rate equal, so run-to-run spread is
// the program's, not the sampler's. The same rng state yields the same
// schedule.
func poissonSchedule(rng *rand.Rand, rate float64, dur time.Duration, heavyShare float64, pool [2]int) []arrival {
	n := int(math.Round(rate * dur.Seconds()))
	due := make([]float64, n)
	for i := range due {
		due[i] = rng.Float64() * dur.Seconds()
	}
	sort.Float64s(due)
	classes := make([]int, n)
	for i := 0; i < int(math.Round(float64(n)*heavyShare)); i++ {
		classes[i] = classHeavy
	}
	rng.Shuffle(n, func(i, j int) { classes[i], classes[j] = classes[j], classes[i] })
	out := make([]arrival, n)
	for i := range out {
		out[i] = arrival{
			Due:   time.Duration(due[i] * float64(time.Second)),
			Class: classes[i],
			Item:  rng.Intn(pool[classes[i]]),
		}
	}
	return out
}

// outcome is what the generator observed for one arrival.
type outcome struct {
	Late     time.Duration // dispatcher lateness: hand-off time − due time
	ConnWait time.Duration // due time → a connection picked it up
	Latency  time.Duration // due time → last response byte
	Status   int
	Body     []byte
	Err      error
	Start    time.Time // the phase start the due offsets refer to
}

// loadgen drives one server over nconn keep-alive connections.
type loadgen struct {
	url     string
	clients []*http.Client
}

func newLoadgen(url string, nconn int) *loadgen {
	lg := &loadgen{url: url}
	for i := 0; i < nconn; i++ {
		lg.clients = append(lg.clients, &http.Client{
			Transport: &http.Transport{
				MaxConnsPerHost:     1,
				MaxIdleConnsPerHost: 1,
				DisableCompression:  true,
				IdleConnTimeout:     time.Minute,
			},
			Timeout: 10 * time.Second,
		})
	}
	return lg
}

func (lg *loadgen) close() {
	for _, c := range lg.clients {
		c.CloseIdleConnections()
	}
}

// header carries a request's trace id and parent span to the server.
const traceHeader = "X-Perfbench-Trace"

// run sends the schedule open loop and returns one outcome per arrival.
// bodies[class][item] is the pre-encoded request body. traced, when non-nil,
// says which arrivals carry traceHeader (value traceIDs[i]). A request still
// unsent cutoff after the last due time is dropped and reported unsent, so a
// search step past the knee ends in bounded time.
func (lg *loadgen) run(ctx context.Context, sched []arrival, bodies [2][][]byte, traceIDs []string, cutoff time.Duration) []outcome {
	out := make([]outcome, len(sched))
	queue := make(chan int, len(sched)) // sized to the number of sends
	start := time.Now().Add(5 * time.Millisecond)
	var last time.Duration
	if len(sched) > 0 {
		last = sched[len(sched)-1].Due
	}
	deadline := start.Add(last + cutoff)

	done := make(chan struct{})
	for _, c := range lg.clients {
		go func(c *http.Client) {
			defer func() { done <- struct{}{} }()
			for i := range queue {
				a := sched[i]
				due := start.Add(a.Due)
				pick := time.Now()
				o := &out[i]
				o.Start = start
				o.ConnWait = pick.Sub(due)
				if pick.After(deadline) || ctx.Err() != nil {
					o.Err = fmt.Errorf("backlog: unsent %v after due", pick.Sub(due))
					continue
				}
				req, err := http.NewRequestWithContext(ctx, http.MethodPost, lg.url, bytes.NewReader(bodies[a.Class][a.Item]))
				if err != nil {
					o.Err = err
					continue
				}
				req.Header.Set("Content-Type", "application/json")
				if traceIDs != nil && traceIDs[i] != "" {
					req.Header.Set(traceHeader, traceIDs[i])
				}
				resp, err := c.Do(req)
				if err != nil {
					o.Err = err
					o.Latency = time.Since(due)
					continue
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				o.Latency = time.Since(due)
				o.Status = resp.StatusCode
				o.Body = body
				o.Err = err
			}
		}(c)
	}

	for i, a := range sched {
		due := start.Add(a.Due)
		if d := time.Until(due); d > 0 {
			t := time.NewTimer(d)
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
			}
		}
		out[i].Late = time.Since(due)
		queue <- i
	}
	close(queue)
	for range lg.clients {
		<-done
	}
	return out
}
