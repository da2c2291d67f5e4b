package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"
	"time"

	"github.com/spatialmf/smfl/internal/core"
	"github.com/spatialmf/smfl/internal/faultinject"
	"github.com/spatialmf/smfl/internal/mat"
)

// Server is the HTTP front of the registry:
//
//	POST   /v1/models/{name}/impute          fold-in + complete rows (micro-batched,
//	                                         cost-aware admission; ?version=N pins a
//	                                         retained version for A/B routing;
//	                                         ?timeout_ms=N overrides the per-request
//	                                         deadline, clamped to Config.MaxTimeout)
//	GET    /v1/models                        list registered models + retained versions
//	POST   /admin/models/{name}              load or hot-swap a model from a path
//	POST   /admin/models/{name}/rollback     revert to the previous retained version
//	DELETE /admin/models/{name}              unregister a model (all versions)
//	GET    /metrics                          JSON by default; Prometheus text exposition
//	                                         when Accept asks for text/plain or openmetrics
//	GET    /healthz                          health state: 200 ok/degraded, 503 draining
//
// Every impute request runs under a deadline (the server default or a
// clamped ?timeout_ms= override) threaded through admission, the coalescer,
// and core.FoldIn; expiry anywhere surfaces as an honest 504. Overload
// (admission window or model queue full) is answered with 429, a Retry-After
// header clamped to the requester's remaining budget, and one shared JSON
// body shape carrying the same retry hint. When the fold-in circuit breaker
// trips, requests are answered from the degraded fallback with
// "degraded": true until half-open probes recover the real path.
type Server struct {
	registry  *Registry
	metrics   *Metrics
	admission *Admission
	health    *Health
	cfg       Config
	mux       *http.ServeMux
}

// NewServer wires the handlers onto a fresh mux. metrics must be the same
// instance the registry's batchers report to; the admission controller and
// health state machine are built from the registry's Config.
func NewServer(registry *Registry, metrics *Metrics) *Server {
	s := &Server{
		registry:  registry,
		metrics:   metrics,
		admission: NewAdmission(registry.cfg.Admission),
		health:    NewHealth(registry.cfg.Health),
		cfg:       registry.cfg,
		mux:       http.NewServeMux(),
	}
	s.mux.HandleFunc("GET /healthz", s.instrument("healthz", s.handleHealth))
	s.mux.HandleFunc("GET /metrics", s.instrument("metrics", s.handleMetrics))
	s.mux.HandleFunc("GET /v1/models", s.instrument("models", s.handleListModels))
	s.mux.HandleFunc("POST /v1/models/{name}/impute", s.instrument("impute", s.handleImpute))
	s.mux.HandleFunc("POST /admin/models/{name}", s.instrument("admin_load", s.handleAdminLoad))
	s.mux.HandleFunc("POST /admin/models/{name}/rollback", s.instrument("admin_rollback", s.handleRollback))
	s.mux.HandleFunc("DELETE /admin/models/{name}", s.instrument("admin_remove", s.handleAdminRemove))
	return s
}

// Handler returns the server's root handler.
func (s *Server) Handler() http.Handler { return s.mux }

// BeginDrain moves the server into the draining state: /healthz answers 503
// so load balancers stop routing here, and new impute requests get clean
// 503s while in-flight ones finish. Call before http.Server.Shutdown.
func (s *Server) BeginDrain() { s.health.SetDraining() }

// statusWriter captures the response code for error accounting.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

func (s *Server) instrument(name string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.metrics.BeginRequest()
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		start := time.Now()
		defer func() {
			// Settle the metrics even when the handler aborts the connection
			// (http.ErrAbortHandler on an injected write fault) or a handler
			// bug panics — then re-panic so net/http tears the connection
			// down instead of leaving a torn body.
			if p := recover(); p != nil {
				s.metrics.EndRequest(name, time.Since(start), true)
				panic(p)
			}
			s.metrics.EndRequest(name, time.Since(start), sw.code >= 400)
		}()
		h(sw, r)
	}
}

// writeJSON marshals v fully before touching the socket and writes it in one
// call with an exact Content-Length, so a failed or aborted write can never
// leave a client parsing a torn JSON body — it sees a transport error
// instead (chaos-tested invariant).
func writeJSON(w http.ResponseWriter, code int, v any) {
	buf, err := json.Marshal(v)
	if err != nil {
		// Unreachable for the server's own response types; abort rather
		// than improvise a body.
		panic(http.ErrAbortHandler)
	}
	buf = append(buf, '\n')
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(buf)))
	w.WriteHeader(code)
	w.Write(buf)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// overloadBody is the single 429 shape shared by every shed path (admission
// window full and model queue full): the error, and the same retry hint that
// is set as the Retry-After header.
type overloadBody struct {
	Error             string `json:"error"`
	RetryAfterSeconds int64  `json:"retry_after_seconds"`
}

// writeOverloaded answers 429 with a Retry-After header (whole seconds,
// minimum 1) and the shared overload body. budget, when positive, is the
// requester's remaining deadline (an explicit ?timeout_ms= override): the
// hint is clamped to it so a client is never told to retry after its own
// budget expires.
func writeOverloaded(w http.ResponseWriter, retryAfter, budget time.Duration, format string, args ...any) {
	secs := int64(math.Ceil(retryAfter.Seconds()))
	if budget > 0 {
		if max := int64(budget.Seconds()); secs > max {
			secs = max
		}
	}
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	writeJSON(w, http.StatusTooManyRequests, overloadBody{
		Error:             fmt.Sprintf(format, args...),
		RetryAfterSeconds: secs,
	})
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	state := s.health.State()
	code := http.StatusOK
	if state == Draining {
		// 503 tells load balancers to stop routing here while the drain
		// finishes; degraded stays 200 — the fallback is still answering.
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, map[string]any{
		"status":  state.String(),
		"breaker": int(s.health.Breaker()),
		"models":  s.registry.Len(),
	})
}

// wantsPrometheus reports whether the client asked for the text exposition:
// an Accept header naming text/plain or an OpenMetrics type, or an explicit
// ?format=prometheus. Everything else (including curl's Accept: */*) keeps
// the JSON document.
func wantsPrometheus(r *http.Request) bool {
	if r.URL.Query().Get("format") == "prometheus" {
		return true
	}
	accept := r.Header.Get("Accept")
	return strings.Contains(accept, "text/plain") || strings.Contains(accept, "openmetrics")
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	snap := s.metrics.Snapshot()
	snap.AdmissionWindowCost, snap.AdmissionInflightCost = s.admission.State()
	snap.Health = s.health.State().String()
	snap.BreakerState = int(s.health.Breaker())
	if wantsPrometheus(r) {
		w.Header().Set("Content-Type", PromContentType)
		WritePrometheus(w, snap)
		return
	}
	writeJSON(w, http.StatusOK, snap)
}

// modelInfo is the public description of a registry entry.
type modelInfo struct {
	Name      string    `json:"name"`
	Path      string    `json:"path,omitempty"`
	Version   int       `json:"version"`
	Versions  []int     `json:"versions,omitempty"` // retained versions, ascending (list endpoint only)
	Method    string    `json:"method"`
	K         int       `json:"k"`
	Columns   int       `json:"columns"`
	SIColumns int       `json:"si_columns"`
	HasNorm   bool      `json:"has_norm"`
	Converged bool      `json:"converged"`
	Iters     int       `json:"iters"`
	LoadedAt  time.Time `json:"loaded_at"`
}

func describe(e *Entry) modelInfo {
	k, cols := e.Model.V.Dims()
	return modelInfo{
		Name: e.Name, Path: e.Path, Version: e.Version, Method: e.Model.Method.String(),
		K: k, Columns: cols, SIColumns: e.Model.L, HasNorm: e.Norm != nil,
		Converged: e.Model.Converged, Iters: e.Model.Iters, LoadedAt: e.LoadedAt,
	}
}

func (s *Server) handleListModels(w http.ResponseWriter, r *http.Request) {
	entries := s.registry.Entries()
	infos := make([]modelInfo, len(entries))
	for i, e := range entries {
		infos[i] = describe(e)
		if versions, _, ok := s.registry.Versions(e.Name); ok {
			infos[i].Versions = versions
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{"models": infos})
}

func (s *Server) handleAdminLoad(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	var req struct {
		Path string `json:"path"`
	}
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	if req.Path == "" {
		writeError(w, http.StatusBadRequest, "path is required")
		return
	}
	entry, err := s.registry.LoadFile(name, req.Path)
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, describe(entry))
}

func (s *Server) handleRollback(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	entry, err := s.registry.Rollback(name)
	switch {
	case errors.Is(err, ErrUnknownModel):
		writeError(w, http.StatusNotFound, "model %q not registered", name)
		return
	case errors.Is(err, ErrNoPreviousVersion):
		writeError(w, http.StatusConflict, "model %q has no previous version to roll back to", name)
		return
	case err != nil:
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, describe(entry))
}

func (s *Server) handleAdminRemove(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if !s.registry.Remove(name) {
		writeError(w, http.StatusNotFound, "model %q not registered", name)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"removed": name})
}

// imputeRequest carries rows in original units; null cells are the missing
// values to impute (the JSON analogue of empty CSV cells in cmd/smfl).
type imputeRequest struct {
	Rows         [][]*float64 `json:"rows"`
	Coefficients bool         `json:"coefficients"`
}

type imputeResponse struct {
	Model        string      `json:"model"`
	Version      int         `json:"version"`
	Rows         [][]float64 `json:"rows"`
	Coefficients [][]float64 `json:"coefficients,omitempty"`
	Filled       int         `json:"filled"`
	BatchRows    int         `json:"batch_rows"`
	Units        string      `json:"units"` // "original" or "normalized"
	// Degraded marks a response answered from the cheap fallback while the
	// fold-in circuit breaker is open; Fallback names the source used
	// ("means" or "placer").
	Degraded bool   `json:"degraded,omitempty"`
	Fallback string `json:"fallback,omitempty"`
}

// requestTimeout resolves the per-request deadline: the server default, or a
// positive ?timeout_ms= override clamped to Config.MaxTimeout. explicit
// reports whether the client set its own budget (which also clamps
// Retry-After hints).
func (s *Server) requestTimeout(r *http.Request) (d time.Duration, explicit bool, err error) {
	v := r.URL.Query().Get("timeout_ms")
	if v == "" {
		return s.cfg.DefaultTimeout, false, nil
	}
	ms, perr := strconv.ParseInt(v, 10, 64)
	if perr != nil || ms <= 0 {
		return 0, false, fmt.Errorf("bad timeout_ms %q: want a positive integer", v)
	}
	// Compare in ms: the Duration product wraps negative past ~9.2e12 ms.
	if ms > s.cfg.MaxTimeout.Milliseconds() {
		return s.cfg.MaxTimeout, true, nil
	}
	return time.Duration(ms) * time.Millisecond, true, nil
}

func (s *Server) handleImpute(w http.ResponseWriter, r *http.Request) {
	if s.health.Draining() {
		writeError(w, http.StatusServiceUnavailable, "server draining")
		return
	}
	name := r.PathValue("name")
	var entry *Entry
	var ok bool
	if pin := r.URL.Query().Get("version"); pin != "" {
		version, err := strconv.Atoi(pin)
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad version %q: %v", pin, err)
			return
		}
		if entry, ok = s.registry.GetVersion(name, version); !ok {
			writeError(w, http.StatusNotFound, "model %q version %d not registered", name, version)
			return
		}
	} else if entry, ok = s.registry.Get(name); !ok {
		writeError(w, http.StatusNotFound, "model %q not registered", name)
		return
	}
	timeout, explicit, terr := s.requestTimeout(r)
	if terr != nil {
		writeError(w, http.StatusBadRequest, "%v", terr)
		return
	}
	var req imputeRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	rows, mask, err := buildRows(req.Rows, entry)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	budget := time.Duration(0)
	if explicit {
		budget = timeout
	}

	// Degraded mode: answer from the fallback without touching admission or
	// the coalescer — a wedged fold-in path must not block the cheap path.
	// Half-open probes continue down the real path below.
	route := s.health.Route()
	if route == RouteFallback {
		if s.cfg.DegradedFallback == FallbackOff {
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusServiceUnavailable, "service degraded: fold-in circuit open and degraded fallback disabled")
			return
		}
		s.serveFallback(w, r, name, entry, rows, mask)
		return
	}
	probe := route == RouteProbe

	// The request context carries both the client's connection (disconnect
	// cancels) and the resolved deadline; it is threaded through the
	// coalescer into core.FoldIn.
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()

	cost := requestCost(mask)
	if admitted, retryAfter := s.admission.Admit(cost); !admitted {
		s.health.Abort(probe)
		s.metrics.AdmissionRejected(cost)
		writeOverloaded(w, retryAfter, budget, "admission window full (cost %d)", cost)
		return
	}
	// Once Submit enqueues the request, the batcher owns releasing its
	// admission cost — including requests dropped from a parked batch after
	// their deadline, whose cost returns to the window without a compute.
	release := func(computed bool, batchLatency time.Duration) {
		if computed {
			s.admission.Release(cost, batchLatency)
		} else {
			s.admission.ReleaseDropped(cost)
		}
	}
	start := time.Now()
	res, err := entry.batcher.Submit(ctx, rows, mask, release)
	switch {
	case errors.Is(err, ErrOverloaded):
		s.admission.ReleaseDropped(cost)
		s.health.Abort(probe)
		s.metrics.AdmissionRejected(cost)
		writeOverloaded(w, s.admission.RetryAfter(cost), budget, "model %q queue full", name)
		return
	case errors.Is(err, ErrClosed):
		s.admission.ReleaseDropped(cost)
		s.health.Abort(probe)
		writeError(w, http.StatusServiceUnavailable, "%v", err)
		return
	case errors.Is(err, context.Canceled):
		// Client disconnected while parked or computing: nobody reads the
		// response, but the lifecycle still settles (timeout accounting; the
		// breaker is not charged — the server did nothing wrong).
		s.health.Abort(probe)
		s.metrics.Timeout()
		writeError(w, http.StatusGatewayTimeout, "client went away")
		return
	case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, core.ErrInterrupted):
		// The request's own deadline expired (parked too long, or the whole
		// batch was cancelled — possible only once every member's deadline
		// passed). An honest 504, and a slowness signal for the breaker.
		s.health.Report(false, time.Since(start), probe)
		s.metrics.Timeout()
		writeError(w, http.StatusGatewayTimeout, "deadline exceeded after %v", timeout)
		return
	case errors.Is(err, ErrComputePanic):
		s.health.Report(false, time.Since(start), probe)
		writeError(w, http.StatusInternalServerError, "fold-in failed: %v", err)
		return
	case err != nil:
		s.health.Report(false, time.Since(start), probe)
		writeError(w, http.StatusInternalServerError, "fold-in failed: %v", err)
		return
	}
	s.health.Report(true, time.Since(start), probe)
	units := "normalized"
	if entry.Norm != nil {
		entry.Norm.Invert(res.completed)
		units = "original"
	}
	resp := imputeResponse{
		Model:     name,
		Version:   entry.Version,
		Rows:      toRows(res.completed),
		Filled:    mask.CountHidden(),
		BatchRows: res.batchRows,
		Units:     units,
	}
	if req.Coefficients {
		resp.Coefficients = toRows(res.coeff)
	}
	s.writeImpute(w, name, resp)
}

// serveFallback answers one impute request from the degraded path: observed
// cells echo, hidden cells take the placer warm-start prediction or column
// means, and the response is explicitly marked degraded.
func (s *Server) serveFallback(w http.ResponseWriter, r *http.Request, name string, entry *Entry, rows *mat.Dense, mask *mat.Mask) {
	usePlacer := s.cfg.DegradedFallback != FallbackMeans
	completed, source := entry.fallback.complete(rows, mask, usePlacer)
	units := "normalized"
	if entry.Norm != nil {
		entry.Norm.Invert(completed)
		units = "original"
	}
	s.metrics.DegradedServed()
	s.writeImpute(w, name, imputeResponse{
		Model:    name,
		Version:  entry.Version,
		Rows:     toRows(completed),
		Filled:   mask.CountHidden(),
		Units:    units,
		Degraded: true,
		Fallback: source,
	})
}

// writeImpute writes a successful impute response through the torn-body
// guard: an injected write fault aborts the connection so the client sees a
// transport error, never a truncated JSON document. A NaN or ±Inf answer,
// which JSON cannot carry, gets a 422 instead (an extreme observed value can
// fold in to one).
func (s *Server) writeImpute(w http.ResponseWriter, name string, resp imputeResponse) {
	if faultinject.Enabled() {
		if err := faultinject.Fire(faultinject.ServeWrite, name); err != nil {
			panic(http.ErrAbortHandler)
		}
	}
	if !finite(resp.Rows) || !finite(resp.Coefficients) {
		writeError(w, http.StatusUnprocessableEntity, "the answer is not finite: an observed value is too extreme for the model")
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func finite(rows [][]float64) bool {
	for _, row := range rows {
		for _, v := range row {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return false
			}
		}
	}
	return true
}

// buildRows converts JSON rows (nulls = missing) into the normalized dense
// block and observation mask FoldIn expects, validating shape and range.
func buildRows(in [][]*float64, entry *Entry) (*mat.Dense, *mat.Mask, error) {
	if len(in) == 0 {
		return nil, nil, errors.New("rows must be a non-empty array")
	}
	_, cols := entry.Model.V.Dims()
	dense := mat.NewDense(len(in), cols)
	mask := mat.NewMask(len(in), cols)
	for i, row := range in {
		if len(row) != cols {
			return nil, nil, fmt.Errorf("row %d has %d values, model has %d columns", i, len(row), cols)
		}
		for j, cell := range row {
			if cell == nil {
				continue // missing: stays hidden, placeholder 0
			}
			dense.Set(i, j, *cell)
			mask.Observe(i, j)
		}
	}
	if mask.Count() == 0 {
		return nil, nil, errors.New("rows have no observed cells")
	}
	if entry.Norm != nil {
		entry.Norm.Apply(dense)
	}
	for i := 0; i < len(in); i++ {
		for j := 0; j < cols; j++ {
			if !mask.Observed(i, j) {
				continue
			}
			switch v := dense.At(i, j); {
			case v < 0:
				return nil, nil, fmt.Errorf("row %d col %d is below the training minimum", i, j)
			case math.IsInf(v, 1):
				// FoldIn would reject the whole stacked batch, failing this
				// request's batch-mates with it.
				return nil, nil, fmt.Errorf("row %d col %d overflows the training normalization", i, j)
			}
		}
	}
	return dense, mask, nil
}

func toRows(m *mat.Dense) [][]float64 {
	n, cols := m.Dims()
	out := make([][]float64, n)
	for i := 0; i < n; i++ {
		row := make([]float64, cols)
		copy(row, m.Row(i))
		out[i] = row
	}
	return out
}
