package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// Span is one timed call at a layer boundary. Spans of one job or one
// request share Trace; Parent is the ID of the span that caused this one (0
// for a root). Times are Unix nanoseconds from the recording process's wall
// clock, so spans recorded by the job, server and generator processes of one
// run line up on the same host. Counts carries what the layer reported at
// the same boundary (edges, iterations, shard maps, ...).
type Span struct {
	Trace  string             `json:"trace"`
	ID     int64              `json:"id"`
	Parent int64              `json:"parent,omitempty"`
	Name   string             `json:"name"`
	Start  int64              `json:"start_ns"`
	End    int64              `json:"end_ns"`
	Counts map[string]float64 `json:"counts,omitempty"`
}

// Dur is the span's duration.
func (s Span) Dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, which is how untraced runs stay free of spans: every boundary
// costs one nil check.
type tracer struct {
	mu    sync.Mutex
	next  int64
	spans []Span
}

// newTracer returns a tracer whose span IDs start above base, so spans from
// several processes of one run never collide.
func newTracer(base int64) *tracer { return &tracer{next: base} }

// openSpan is a span between begin and end.
type openSpan struct {
	t *tracer
	i int
}

// begin opens a span named name under parent in trace.
func (t *tracer) begin(trace string, parent int64, name string) openSpan {
	if t == nil {
		return openSpan{}
	}
	now := time.Now().UnixNano()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	t.spans = append(t.spans, Span{Trace: trace, ID: t.next, Parent: parent, Name: name, Start: now})
	return openSpan{t: t, i: len(t.spans) - 1}
}

// ID is the span's identifier (0 when tracing is off).
func (o openSpan) ID() int64 {
	if o.t == nil {
		return 0
	}
	o.t.mu.Lock()
	defer o.t.mu.Unlock()
	return o.t.spans[o.i].ID
}

// end closes the span, attaching counts (may be nil).
func (o openSpan) end(counts map[string]float64) {
	if o.t == nil {
		return
	}
	now := time.Now().UnixNano()
	o.t.mu.Lock()
	defer o.t.mu.Unlock()
	o.t.spans[o.i].End = now
	o.t.spans[o.i].Counts = counts
}

// take returns the recorded spans and forgets them.
func (t *tracer) take() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.spans
	t.spans = nil
	return out
}

// selfTimes returns, for each span, its duration minus the part of its
// interval covered by its children (spans of the same trace naming it as
// parent). Overlapping children are merged first, and a child reaching
// outside its parent is clipped to it, so self time is never negative.
func selfTimes(spans []Span) []time.Duration {
	type key struct {
		trace string
		id    int64
	}
	children := make(map[key][]int, len(spans))
	for i, s := range spans {
		if s.Parent != 0 {
			k := key{s.Trace, s.Parent}
			children[k] = append(children[k], i)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		var iv [][2]int64
		for _, c := range children[key{s.Trace, s.ID}] {
			lo, hi := max(spans[c].Start, s.Start), min(spans[c].End, s.End)
			if hi > lo {
				iv = append(iv, [2]int64{lo, hi})
			}
		}
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		covered := int64(0)
		curLo, curHi := int64(0), int64(0)
		for n, v := range iv {
			if n == 0 || v[0] > curHi {
				covered += curHi - curLo
				curLo, curHi = v[0], v[1]
				continue
			}
			curHi = max(curHi, v[1])
		}
		covered += curHi - curLo
		out[i] = time.Duration(s.End - s.Start - covered)
	}
	return out
}

// traceFile is what a traced run writes: every span, then the per-layer
// metrics it reported, so the summary can be re-read later.
type traceFile struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Metrics  map[string]float64 `json:"metrics"`
}

// writeTrace writes the spans as JSON lines followed by one line holding the
// run's per-layer metrics.
func writeTrace(path string, spans []Span, meta traceFile) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := enc.Encode(meta); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// readTrace parses a file written by writeTrace.
func readTrace(path string) ([]Span, traceFile, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, traceFile{}, err
	}
	defer f.Close()
	var spans []Span
	var meta traceFile
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var probe struct {
			Name    string          `json:"name"`
			Metrics json.RawMessage `json:"metrics"`
		}
		if err := json.Unmarshal(line, &probe); err != nil {
			return nil, meta, fmt.Errorf("%s: %w", path, err)
		}
		if probe.Metrics != nil {
			if err := json.Unmarshal(line, &meta); err != nil {
				return nil, meta, fmt.Errorf("%s: %w", path, err)
			}
			continue
		}
		var s Span
		if err := json.Unmarshal(line, &s); err != nil {
			return nil, meta, fmt.Errorf("%s: %w", path, err)
		}
		spans = append(spans, s)
	}
	return spans, meta, sc.Err()
}

// summarize prints, per span name grouped by layer, the call count, total
// and median duration and total self time; then every per-layer metric with
// its unit, ratios with their bases, and the tracing overhead.
func summarize(w io.Writer, spans []Span, meta traceFile) {
	self := selfTimes(spans)
	type agg struct {
		calls int
		total time.Duration
		self  time.Duration
		durs  []float64
	}
	byName := make(map[string]*agg)
	var names []string
	for i, s := range spans {
		a := byName[s.Name]
		if a == nil {
			a = &agg{}
			byName[s.Name] = a
			names = append(names, s.Name)
		}
		a.calls++
		a.total += s.Dur()
		a.self += self[i]
		a.durs = append(a.durs, float64(s.Dur())/1e6)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "trace %s seed %d: %d spans\n", meta.Workload, meta.Seed, len(spans))
	fmt.Fprintf(w, "%-28s %8s %12s %12s %12s\n", "span", "calls", "total_ms", "self_ms", "p50_ms")
	layerSelf := make(map[string]time.Duration)
	var layers []string
	for _, n := range names {
		a := byName[n]
		fmt.Fprintf(w, "%-28s %8d %12.3f %12.3f %12.4f\n", n, a.calls,
			float64(a.total)/1e6, float64(a.self)/1e6, median(a.durs))
		layer, _, _ := strings.Cut(n, ".") // "core.fit" belongs to core
		if _, ok := layerSelf[layer]; !ok {
			layers = append(layers, layer)
		}
		layerSelf[layer] += a.self
	}
	fmt.Fprintf(w, "%-28s %12s\n", "layer", "self_ms")
	for _, l := range layers {
		fmt.Fprintf(w, "%-28s %12.3f\n", l, float64(layerSelf[l])/1e6)
	}
	fmt.Fprintln(w, "per-layer metrics:")
	keys := make([]string, 0, len(meta.Metrics))
	for k := range meta.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		unit := ""
		if spec, ok := perLayerByName[k]; ok {
			unit = spec.Unit
		}
		line := fmt.Sprintf("  %-34s %14.6g %-6s", k, meta.Metrics[k], unit)
		if b, ok := ratioBases[k]; ok {
			line += fmt.Sprintf("  (base: %s = %g)", b, meta.Metrics[b])
		}
		fmt.Fprintln(w, line)
	}
}
