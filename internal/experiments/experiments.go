// Package experiments regenerates every table and figure of the paper's
// evaluation (Section IV). Each experiment function returns a Table whose
// rows mirror the paper's layout; cmd/experiments prints them and
// bench_test.go wraps them as benchmarks. DESIGN.md §4 maps experiment IDs
// to the modules involved; EXPERIMENTS.md records paper-vs-measured values.
package experiments

import (
	"context"
	"encoding/csv"
	"fmt"
	"io"
	"strings"
	"time"

	"github.com/spatialmf/smfl/internal/core"
	"github.com/spatialmf/smfl/internal/dataset"
)

// The paper's rates of missing and of erroneous cells (Table VII sweeps its
// own missing rates).
const (
	missingRate = 0.1
	errorRate   = 0.1
)

// Options control the scale and budgets of an experiment run.
type Options struct {
	// Scale shrinks the paper's dataset sizes (1 = full size). The default
	// 0.02 keeps every experiment minutes-scale on a laptop CPU.
	Scale float64
	// Runs is the number of repetitions averaged (the paper uses 5).
	Runs int
	// Seed is the base RNG seed; run r uses Seed+r.
	Seed int64
	// Budget is the per-method wall-clock budget standing in for the paper's
	// 24 h OOT limit. A method whose first run exceeds it reports OOT.
	Budget time.Duration
	// MaxIter caps the MF iteration count t₁ (default 500, the paper's).
	MaxIter int
	// SpatialIndex picks the p-NN graph backend for every MF fit in the run
	// (exact by default; landmark for the sub-quadratic path).
	SpatialIndex core.SpatialIndex
	// Updater selects the optimizer for every MF fit (multiplicative by
	// default; sgd/svrg train on mini-batches of BatchCells observed cells).
	Updater core.Updater
	// BatchCells is the stochastic mini-batch size (0 = core default).
	BatchCells int
	// Quiet suppresses progress lines on Log.
	Quiet bool
	// Log receives progress lines (default: discarded).
	Log io.Writer

	// Ctx, when non-nil, cancels a running experiment between (and, for the
	// MF methods, inside) cells; the error returned wraps core.ErrInterrupted.
	// Combined with Journal, an interrupted sweep loses at most the cell in
	// flight.
	Ctx context.Context
	// Journal, when non-nil, records each completed cell and skips cells
	// already recorded — the resume mechanism behind `experiments -journal`.
	Journal *Journal
}

func (o Options) withDefaults() Options {
	if o.Scale <= 0 {
		o.Scale = 0.02
	}
	if o.Runs <= 0 {
		o.Runs = 5
	}
	if o.Budget <= 0 {
		o.Budget = 10 * time.Minute
	}
	if o.MaxIter <= 0 {
		o.MaxIter = 500
	}
	if o.Log == nil {
		o.Log = io.Discard
	}
	return o
}

func (o Options) logf(format string, args ...interface{}) {
	if !o.Quiet {
		fmt.Fprintf(o.Log, format+"\n", args...)
	}
}

// mfConfig builds the core config used across experiments; K adapts to the
// column count (K must stay meaningful for narrow tables like Lake M=7).
func (o Options) mfConfig(m int, seed int64) core.Config {
	k := 10
	if k >= m {
		k = m - 1
	}
	cfg := core.Config{
		K:            k,
		Lambda:       0.1,
		P:            3,
		MaxIter:      o.MaxIter,
		Tol:          1e-6,
		Seed:         seed,
		Updater:      o.Updater,
		BatchCells:   o.BatchCells,
		SpatialIndex: o.SpatialIndex,
		Ctx:          o.Ctx, // cancellation reaches into the MF fits themselves
	}
	if o.Updater != core.Multiplicative && cfg.LearningRate == 0 { //lint:ignore floatcmp zero config value means unset
		// The gradient family needs a larger step than the core default to
		// converge within the paper's iteration budget on [0,1] data.
		cfg.LearningRate = 5e-3
	}
	return cfg
}

// Table is a printable experiment result.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// Fprint renders the table with aligned columns.
func (t *Table) Fprint(w io.Writer) {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	fmt.Fprintf(w, "%s\n", t.Title)
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		fmt.Fprintf(w, "  %s\n", strings.Join(parts, "  "))
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// WriteCSV emits the table as machine-readable CSV (header + rows), the
// format consumed by external plotting scripts regenerating the figures.
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Header); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// fmtRMS formats an RMS value in the paper's 3-decimal style.
func fmtRMS(v float64) string { return fmt.Sprintf("%.3f", v) }

// paperDataset generates, normalizes and returns one of the four evaluation
// datasets at the configured scale.
func (o Options) paperDataset(name string, seed int64) (*dataset.SynthResult, error) {
	res, err := dataset.ByName(name, o.Scale, seed)
	if err != nil {
		return nil, err
	}
	if _, err := res.Data.Normalize(); err != nil {
		return nil, err
	}
	return res, nil
}
