// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments list
//	experiments run <id>|all [-scale f] [-runs n] [-seed s] [-maxiter n] [-budget d] [-journal f.jsonl]
//	                         [-updater multiplicative|gd|sgd|svrg] [-batch-cells n]
//
// IDs: table4 table5 table6 table7 fig4a fig4b fig5 fig6 fig7 fig8 fig9
// ablation-landmark-source ablation-updater ablation-graph
//
// With -journal, every completed table cell is appended to the given JSONL
// file, and a rerun with the same journal (and the same scale/runs/seed/
// maxiter flags) skips the cells already done — so a sweep interrupted by
// Ctrl-C or a crash resumes where it left off instead of starting over.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/spatialmf/smfl/internal/core"
	"github.com/spatialmf/smfl/internal/experiments"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout, os.Stderr); err != nil {
		if errors.Is(err, core.ErrInterrupted) {
			fmt.Fprintf(os.Stderr, "experiments: interrupted; completed cells are journaled, rerun to resume: %v\n", err)
			os.Exit(130)
		}
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(1)
	}
}

// run executes one CLI invocation; factored out of main for tests.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	if len(args) < 1 {
		return errors.New("usage: experiments list | run <id>|all [flags]")
	}
	switch args[0] {
	case "list":
		for _, e := range experiments.Registry {
			fmt.Fprintf(stdout, "  %-26s %s\n", e.ID, e.Desc)
		}
		return nil
	case "run":
		if len(args) < 2 {
			return errors.New("usage: experiments run <id>|all [flags]")
		}
		id := args[1]
		fs := flag.NewFlagSet("run", flag.ContinueOnError)
		fs.SetOutput(stderr)
		scale := fs.Float64("scale", 0.02, "dataset size relative to the paper (1 = full)")
		runs := fs.Int("runs", 5, "repetitions averaged per cell (paper: 5)")
		seed := fs.Int64("seed", 1, "base RNG seed")
		maxIter := fs.Int("maxiter", 500, "MF iteration cap t1 (paper: 500; epochs under sgd/svrg)")
		updater := fs.String("updater", "multiplicative", "optimizer for every MF fit: multiplicative | gd | sgd | svrg")
		batchCells := fs.Int("batch-cells", 0, "sgd/svrg: target observed cells per mini-batch (0 = default 32768)")
		budget := fs.Duration("budget", 10*time.Minute, "per-method OOT budget")
		quiet := fs.Bool("quiet", false, "suppress progress lines")
		format := fs.String("format", "table", "output format: table | csv")
		journalPath := fs.String("journal", "", "JSONL cell journal: record completed cells, skip them on rerun")
		spatialIndex := fs.String("spatial-index", "exact", "p-NN graph backend for every fit: exact | landmark")
		if err := fs.Parse(args[2:]); err != nil {
			return err
		}
		if *format != "table" && *format != "csv" {
			return fmt.Errorf("unknown format %q", *format)
		}
		six, err := core.ParseSpatialIndex(*spatialIndex)
		if err != nil {
			return err
		}
		up, err := core.ParseUpdater(*updater)
		if err != nil {
			return err
		}
		opts := experiments.Options{
			Scale: *scale, Runs: *runs, Seed: *seed,
			MaxIter: *maxIter, Budget: *budget,
			SpatialIndex: six, Updater: up, BatchCells: *batchCells,
			Quiet: *quiet, Log: stderr, Ctx: ctx,
		}
		if *journalPath != "" {
			journal, err := experiments.OpenJournal(*journalPath, opts)
			if err != nil {
				return err
			}
			defer journal.Close()
			opts.Journal = journal
		}
		if id == "all" {
			for _, e := range experiments.Registry {
				if err := runOne(e.ID, e.Run, opts, *format, stdout); err != nil {
					return err
				}
			}
			return nil
		}
		fn := experiments.ByID(id)
		if fn == nil {
			return fmt.Errorf("unknown experiment %q; try 'experiments list'", id)
		}
		return runOne(id, fn, opts, *format, stdout)
	default:
		return fmt.Errorf("unknown command %q", args[0])
	}
}

func runOne(id string, fn func(experiments.Options) (*experiments.Table, error), opts experiments.Options, format string, stdout io.Writer) error {
	start := time.Now()
	tab, err := fn(opts)
	if err != nil {
		return fmt.Errorf("%s failed: %w", id, err)
	}
	if format == "csv" {
		return tab.WriteCSV(stdout)
	}
	tab.Fprint(stdout)
	fmt.Fprintf(stdout, "  (%s in %.1fs)\n\n", id, time.Since(start).Seconds())
	return nil
}
