package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/spatialmf/smfl/internal/serve"
)

// serveMain is the server child process: a registry and server built with
// smfld's flag defaults, hosting one model on a loopback port. It prints the
// bound address on stdout, serves until SIGTERM, then drains like smfld.
// With -trace it wraps the server's handler to record a serve.handler span
// for every request carrying the trace header and samples the coalescer
// queue depth; the orchestrator collects both over /perfbench/ routes that
// exist only in traced runs.
func serveMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	modelPath := fs.String("model", "", ".smfl model to host")
	traced := fs.Bool("trace", false, "record serve.handler spans and sample the queue depth")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	metrics := serve.NewMetrics()
	registry := serve.NewRegistry(serve.Config{ // smfld's flag defaults
		Window: 2 * time.Millisecond, MaxBatchRows: 256, QueueDepth: 1024, FoldInIters: 100,
		KeepVersions: 3,
		Admission: serve.AdmissionConfig{
			MaxCost: 65536, MinCost: 0, TargetP95: 250 * time.Millisecond,
		},
		DefaultTimeout:   10 * time.Second,
		MaxTimeout:       60 * time.Second,
		DegradedFallback: serve.FallbackAuto,
	}, metrics)
	defer registry.Close()
	if _, err := registry.LoadFile(modelName, *modelPath); err != nil {
		fmt.Fprintf(stderr, "perfbench serve: %v\n", err)
		return 1
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Fprintf(stderr, "perfbench serve: %v\n", err)
		return 1
	}
	srv := serve.NewServer(registry, metrics)
	handler := srv.Handler()
	if *traced {
		st := &serverTrace{next: handler, metrics: metrics, tr: newTracer(1 << 40), stop: make(chan struct{})}
		done := st.sampleQueue()
		defer func() { close(st.stop); <-done }()
		handler = st
	}
	server := &http.Server{Handler: handler}
	errc := make(chan error, 1)
	go func() { errc <- server.Serve(ln) }()
	fmt.Fprintln(stdout, ln.Addr().String())

	select {
	case err := <-errc:
		fmt.Fprintf(stderr, "perfbench serve: %v\n", err)
		return 1
	case <-ctx.Done():
	}
	srv.BeginDrain()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := server.Shutdown(shutdownCtx); err != nil {
		fmt.Fprintf(stderr, "perfbench serve: shutdown: %v\n", err)
		return 1
	}
	return 0
}

// modelName is the registry name the benchmark serves its model under.
const modelName = "bench"

// serverTrace wraps Server.Handler in a traced run.
type serverTrace struct {
	next     http.Handler
	metrics  *serve.Metrics
	tr       *tracer
	queueMax atomic.Int64
	stop     chan struct{}
}

// sampleQueue polls Metrics.QueueDepth every millisecond (the coalescing
// window is 2 ms) until stop closes; the returned channel closes when the
// sampler has exited.
func (s *serverTrace) sampleQueue() <-chan struct{} {
	done := make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				d := s.metrics.QueueDepth()
				for {
					cur := s.queueMax.Load()
					if d <= cur || s.queueMax.CompareAndSwap(cur, d) {
						break
					}
				}
			}
		}
	}()
	return done
}

func (s *serverTrace) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch r.URL.Path {
	case "/perfbench/spans": // the spans recorded so far, then forget them
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(s.tr.take()) // a failed write shows up as a decode error in the orchestrator
		return
	case "/perfbench/queue": // the queue-depth maximum since the last call
		fmt.Fprintln(w, s.queueMax.Swap(0))
		return
	}
	hdr := r.Header.Get(traceHeader)
	if hdr == "" {
		s.next.ServeHTTP(w, r)
		return
	}
	trace, parent := parseTraceHeader(hdr)
	sp := s.tr.begin(trace, parent, "serve.handler")
	s.next.ServeHTTP(w, r)
	sp.end(nil)
}

// parseTraceHeader splits "trace:parent".
func parseTraceHeader(h string) (string, int64) {
	trace, p, _ := strings.Cut(h, ":")
	parent, _ := strconv.ParseInt(p, 10, 64)
	return trace, parent
}
