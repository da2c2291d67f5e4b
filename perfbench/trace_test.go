package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestSelfTimes(t *testing.T) {
	spans := []Span{
		{Trace: "a", ID: 1, Name: "job", Start: 0, End: 100},
		// Overlapping children merge; a child running past its parent is
		// clipped to the parent's end.
		{Trace: "a", ID: 2, Parent: 1, Name: "core.fit", Start: 10, End: 30},
		{Trace: "a", ID: 3, Parent: 1, Name: "core.recover", Start: 20, End: 40},
		{Trace: "a", ID: 4, Parent: 1, Name: "core.save", Start: 90, End: 120},
		// A grandchild is charged to its parent, not to the job.
		{Trace: "a", ID: 5, Parent: 2, Name: "mat.kernel", Start: 12, End: 18},
		// Same parent ID in another trace is not a child.
		{Trace: "b", ID: 6, Parent: 1, Name: "other", Start: 0, End: 100},
		{Trace: "b", ID: 1, Name: "root", Start: 0, End: 200},
	}
	want := []time.Duration{100 - 30 - 10, 20 - 6, 20, 30, 6, 100, 100}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
}

func TestSelfTimesDisjointAndNested(t *testing.T) {
	spans := []Span{
		{Trace: "r", ID: 10, Name: "loadgen.request", Start: 0, End: 50},
		{Trace: "r", ID: 11, Parent: 10, Name: "loadgen.conn_wait", Start: 0, End: 5},
		{Trace: "r", ID: 12, Parent: 10, Name: "serve.handler", Start: 8, End: 40},
		{Trace: "r", ID: 13, Parent: 10, Name: "dup", Start: 10, End: 20}, // inside the handler's interval
	}
	if got := selfTimes(spans)[0]; got != 50-5-32 {
		t.Errorf("request self time = %d, want %d", got, 50-5-32)
	}
}

func TestTracerNilAndRoundTrip(t *testing.T) {
	var off *tracer
	sp := off.begin("t", 0, "job")
	if sp.ID() != 0 {
		t.Error("a nil tracer must hand out span ID 0")
	}
	sp.end(nil)
	if off.take() != nil {
		t.Error("a nil tracer must record nothing")
	}

	tr := newTracer(100)
	job := tr.begin("j", 0, "job")
	child := tr.begin("j", job.ID(), "core.fit")
	child.end(map[string]float64{"iters": 3})
	job.end(nil)
	spans := tr.take()
	if len(spans) != 2 || spans[0].ID != 101 || spans[1].Parent != 101 || spans[1].Counts["iters"] != 3 {
		t.Fatalf("recorded spans = %+v", spans)
	}

	path := filepath.Join(t.TempDir(), "trace.jsonl")
	meta := traceFile{Workload: "fit-dense", Seed: 7, Metrics: map[string]float64{"core.iters": 3, "core.iter_ms": 1.5}}
	if err := writeTrace(path, spans, meta); err != nil {
		t.Fatal(err)
	}
	back, m2, err := readTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 || back[1].Name != "core.fit" || m2.Seed != 7 || m2.Metrics["core.iter_ms"] != 1.5 {
		t.Fatalf("read back %+v %+v", back, m2)
	}
	var out bytes.Buffer
	summarize(&out, back, m2)
	for _, want := range []string{"core.fit", "self_ms", "core.iter_ms", "(base: core.iters = 3)"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("summary lacks %q:\n%s", want, out.String())
		}
	}
}
