package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"syscall"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 {
		switch args[0] {
		case "job-dense", "job-store":
			return jobMain(args[0], args[1:], stdout, stderr)
		case "serve":
			return serveMain(args[1:], stdout, stderr)
		case "spread":
			return spreadMain(args[1:], stdout, stderr)
		case "trace-summary":
			return traceSummaryMain(args[1:], stdout, stderr)
		}
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() { fmt.Fprint(stderr, usage) }
	workload := fs.String("workload", "", "fit-dense | fit-store | serve-impute")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 30, "measured seconds")
	trace := fs.Int("trace", 0, "1: traced run printing the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	if *workload == "" || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fs.Usage()
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if err := os.MkdirAll(workRoot, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	work, err := os.MkdirTemp(workRoot, fmt.Sprintf("%s-%d-", *workload, *seed))
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(work)
	r := &runner{workload: *workload, seed: *seed, seconds: *seconds, traced: *trace == 1,
		self: self, work: work, stderr: stderr}
	res, err := runWorkload(ctx, r)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// workRoot holds each run's scratch directory (removed when the run ends)
// and the traced runs' span files, relative to the directory the benchmark
// runs from.
var workRoot = filepath.Join(".bench_build", "runs")

// spreadMain runs one workload repeatedly, each run on the next seed, and
// prints every end-to-end metric's median, quartiles and spreads next to
// its bound, so steadiness against the bounds is visible.
func spreadMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("spread", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to repeat")
	runs := fs.Int("runs", 10, "number of runs")
	seed := fs.Int64("seed", 1, "seed of the first run; run i uses seed+i")
	seconds := fs.Int("seconds", 30, "measured seconds per run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench spread: %v\n", err)
		return 1
	}
	values := make(map[string][]float64)
	for i := 0; i < *runs; i++ {
		var out bytes.Buffer
		cmd := exec.Command(self, "--workload", *workload, "--seed", strconv.FormatInt(*seed+int64(i), 10),
			"--seconds", strconv.Itoa(*seconds), "--trace", "0")
		cmd.Stdout = &out
		cmd.Stderr = io.Discard
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "perfbench spread: run %d: %v\n", i, err)
			return 1
		}
		lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
		var res result
		if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
			fmt.Fprintf(stderr, "perfbench spread: run %d: %v\n", i, err)
			return 1
		}
		fmt.Fprintf(stderr, "run %d seed %d: correct=%v attempted=%d failed=%d", i, *seed+int64(i), res.Correct, res.Attempted, res.Failed)
		for _, s := range endToEnd {
			if m, ok := res.Metrics[s.Name]; ok {
				values[s.Name] = append(values[s.Name], m.Value)
				fmt.Fprintf(stderr, " %s=%.4g", s.Name, m.Value)
			}
		}
		fmt.Fprintln(stderr)
	}
	fmt.Fprintf(stdout, "%s: %d runs\n%-16s %12s %12s %12s %9s %9s %7s %s\n", *workload, *runs,
		"metric", "median", "q1", "q3", "iqr/med", "rng/med", "bound", "steady(iqr<bound/3)")
	for _, s := range endToEnd {
		k, xs := s.Name, values[s.Name]
		if len(xs) == 0 {
			continue // not defined on this workload
		}
		med := median(xs)
		q1, q3 := quartiles(xs)
		iqr, rng := math.NaN(), math.NaN()
		if med > 0 {
			iqr, rng = (q3-q1)/med, (maxOf(xs)-minOf(xs))/med
		}
		fmt.Fprintf(stdout, "%-16s %12.6g %12.6g %12.6g %9.4f %9.4f %7.3f %v\n", k, med, q1, q3, iqr, rng, s.Bound, iqr < s.Bound/3)
	}
	return 0
}

// traceSummaryMain re-reads a trace file written by a traced run.
func traceSummaryMain(args []string, stdout, stderr io.Writer) int {
	if len(args) != 1 {
		fmt.Fprintln(stderr, "usage: perfbench trace-summary FILE")
		return 2
	}
	spans, meta, err := readTrace(args[0])
	if err != nil {
		fmt.Fprintf(stderr, "perfbench trace-summary: %v\n", err)
		return 1
	}
	summarize(stdout, spans, meta)
	return 0
}
