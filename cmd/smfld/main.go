// Command smfld serves fitted SMFL models over HTTP: an online imputation
// daemon hosting a hot-reloadable versioned model registry, micro-batched
// fold-in, cost-aware adaptive admission control, and operational metrics
// (see internal/serve).
//
// Usage:
//
//	smfld -addr :8080 -model air=air.smfl -model fuel=fuel.smfl \
//	      [-maxbatch 256] [-queue 1024] [-iters 100] \
//	      [-keep-versions 3] [-admit-max-cost 65536] [-admit-min-cost 0] \
//	      [-target-p95 250ms] [-timeout 10s] [-max-timeout 60s] \
//	      [-degraded-fallback auto]
//
// Model files are the .smfl artifacts written by `smfl impute -savemodel`
// (or core.Model.SaveFile) at the current wire version; a file of any other
// version is refused with a re-save error. A file that carries the training
// normalization, as every `smfl impute -savemodel` artifact does, is served
// in original units; one saved without it is served in normalized units.
// Partial training artifacts — models tagged by an interrupted or diverged
// fit — are refused at load and reload time; finish the run with `smfl
// impute -resume` first.
//
//	curl -s localhost:8080/v1/models/air/impute -d '{"rows": [[39.9, 116.4, null, 57.0]]}'
//
// Fold-in is micro-batched without a timer: a model's compute goroutine
// takes the oldest pending request plus everything queued behind it (up to
// -maxbatch rows) the moment it is free, so a lone request is solved at once
// and requests arriving during a compute share the next batch.
//
// Hot reloads append a new version of a model; the last -keep-versions
// versions stay pinnable via ?version=N and a bad reload is a one-call
// revert:
//
//	curl -X POST localhost:8080/admin/models/air -d '{"path": "air-v2.smfl"}'
//	curl -X POST localhost:8080/admin/models/air/rollback
//
// Under overload the daemon sheds with 429 + Retry-After instead of queuing
// without bound: requests are admitted by projected row-cost (observed
// cells) against an adaptive window that shrinks when the p95 batch latency
// exceeds -target-p95 and regrows on recovery. /metrics serves JSON by
// default and the Prometheus text exposition when the scraper asks for
// text/plain.
//
// Every impute request runs under a deadline: -timeout by default, or a
// per-request ?timeout_ms= override clamped to -max-timeout. Expiry anywhere
// in the lifecycle (parked in the coalescer, mid fold-in) is an honest 504.
// When the fold-in circuit breaker trips on failures or latency, the daemon
// degrades instead of falling over: requests are answered from a cheap
// fallback (-degraded-fallback: the landmark placer's O(L) warm start when
// the model carries one, column means otherwise, or "off" for 503s) with
// "degraded": true in the body, while half-open probes test the real path.
// /healthz reports "ok" or "degraded" with 200 and "draining" with 503.
//
// On SIGINT/SIGTERM the server flips /healthz to draining, stops accepting
// connections, drains in-flight requests (pending micro-batches included),
// and exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/spatialmf/smfl/internal/serve"
)

// modelFlags collects repeated -model name=path pairs.
type modelFlags []struct{ name, path string }

func (m *modelFlags) String() string {
	parts := make([]string, len(*m))
	for i, s := range *m {
		parts[i] = s.name + "=" + s.path
	}
	return strings.Join(parts, ",")
}

func (m *modelFlags) Set(v string) error {
	name, path, ok := strings.Cut(v, "=")
	if !ok || name == "" || path == "" {
		return fmt.Errorf("want name=path, got %q", v)
	}
	*m = append(*m, struct{ name, path string }{name, path})
	return nil
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stderr, nil); err != nil {
		fmt.Fprintf(os.Stderr, "smfld: %v\n", err)
		os.Exit(1)
	}
}

// run starts the daemon and blocks until ctx is cancelled (signal) or the
// listener fails; factored out of main for tests. ready, when non-nil, is
// called with the bound address once the server is accepting connections.
func run(ctx context.Context, args []string, stderr io.Writer, ready func(addr string)) error {
	fs := flag.NewFlagSet("smfld", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", ":8080", "listen address")
	maxBatch := fs.Int("maxbatch", 256, "a batch takes no more requests once it holds this many rows")
	queue := fs.Int("queue", 1024, "per-model pending request cap")
	iters := fs.Int("iters", 100, "fold-in updates per row (0 = 100)")
	grace := fs.Duration("grace", 10*time.Second, "graceful shutdown deadline")
	keep := fs.Int("keep-versions", 3, "model versions retained per name for ?version= pinning and rollback")
	admitMax := fs.Int64("admit-max-cost", 65536, "admission window ceiling in observed cells")
	admitMin := fs.Int64("admit-min-cost", 0, "adaptive admission window floor (0 = max/16)")
	targetP95 := fs.Duration("target-p95", 250*time.Millisecond, "p95 batch latency target steering the adaptive admission window")
	timeout := fs.Duration("timeout", 10*time.Second, "default per-request deadline (override per request with ?timeout_ms=)")
	maxTimeout := fs.Duration("max-timeout", 60*time.Second, "ceiling for ?timeout_ms= overrides")
	degradedFallback := fs.String("degraded-fallback", serve.FallbackAuto,
		"degraded-mode answer source while the fold-in breaker is open: auto (placer when available, else column means), means, or off (503s)")
	chaosSeed := fs.Int64("chaos-seed", 0, "arm deterministic fault injection in the serve path with this seed (0 = off; testing only)")
	var models modelFlags
	fs.Var(&models, "model", "serve a model as name=path (repeatable)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *iters < 0 {
		return fmt.Errorf("-iters %d: fold-in updates per row must not be negative (0 = 100)", *iters)
	}
	if len(models) == 0 {
		return errors.New("at least one -model name=path is required")
	}
	switch *degradedFallback {
	case serve.FallbackAuto, serve.FallbackMeans, serve.FallbackOff:
	default:
		return fmt.Errorf("bad -degraded-fallback %q: want auto, means, or off", *degradedFallback)
	}
	metrics := serve.NewMetrics()
	registry := serve.NewRegistry(serve.Config{
		MaxBatchRows: *maxBatch, QueueDepth: *queue, FoldInIters: *iters,
		KeepVersions: *keep,
		Admission: serve.AdmissionConfig{
			MaxCost: *admitMax, MinCost: *admitMin, TargetP95: *targetP95,
		},
		DefaultTimeout:   *timeout,
		MaxTimeout:       *maxTimeout,
		DegradedFallback: *degradedFallback,
	}, metrics)
	defer registry.Close()
	for _, m := range models {
		entry, err := registry.LoadFile(m.name, m.path)
		if err != nil {
			return err
		}
		k, cols := entry.Model.V.Dims()
		placer := "none"
		if p := entry.Model.Placer; p != nil {
			placer = fmt.Sprintf("%d landmarks", p.Landmarks())
		}
		fmt.Fprintf(stderr, "smfld: serving %q (%s, K=%d, %d columns, norm=%v, placer=%s) from %s\n",
			m.name, entry.Model.Method, k, cols, entry.Norm != nil, placer, m.path)
	}

	// Arm chaos only after the initial models loaded: the injected faults
	// exercise the serving path (including hot reloads), not startup.
	if *chaosSeed != 0 {
		defer serve.ArmChaos(*chaosSeed, serve.DefaultChaos())()
		fmt.Fprintf(stderr, "smfld: chaos fault injection armed (seed %d) — testing only\n", *chaosSeed)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	srv := serve.NewServer(registry, metrics)
	server := &http.Server{Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- server.Serve(ln) }()
	fmt.Fprintf(stderr, "smfld: listening on %s\n", ln.Addr())
	if ready != nil {
		ready(ln.Addr().String())
	}

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	fmt.Fprintln(stderr, "smfld: shutting down, draining in-flight requests")
	// Flip /healthz to draining (503) and shed new impute work before asking
	// net/http to drain connections — load balancers route away first.
	srv.BeginDrain()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	if err := server.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	return nil
}
