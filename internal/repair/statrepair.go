package repair

import (
	"math"

	"github.com/spatialmf/smfl/internal/mat"
)

// StatRepair is the HoloClean-like repairer: it discretizes each column into
// equal-width bins over clean cells, learns pairwise bin co-occurrence
// statistics from rows that are clean in both columns, and repairs a dirty
// cell with the posterior-weighted bin center under a naive-Bayes factor
// model — exactly the "statistical signals only" mode the paper ran
// HoloClean in (no integrity rules were available).
type StatRepair struct{}

const (
	statBins   = 16 // discretization granularity
	statSmooth = 1  // Laplace smoothing
)

// Name implements Repairer.
func (s *StatRepair) Name() string { return "HoloClean" }

// Repair implements Repairer.
func (s *StatRepair) Repair(x *mat.Dense, dirty *mat.Mask, _ int) (*mat.Dense, error) {
	if err := checkInput(x, dirty); err != nil {
		return nil, err
	}
	n, m := x.Dims()

	// Per-column bin edges over clean cells.
	lo := make([]float64, m)
	hi := make([]float64, m)
	for j := 0; j < m; j++ {
		lo[j], hi[j] = math.Inf(1), math.Inf(-1)
		for i := 0; i < n; i++ {
			if dirty.Observed(i, j) {
				continue
			}
			v := x.At(i, j)
			if v < lo[j] {
				lo[j] = v
			}
			if v > hi[j] {
				hi[j] = v
			}
		}
		if math.IsInf(lo[j], 1) { // whole column dirty: fall back to raw range
			lo[j], hi[j] = mat.Min(x.Slice(0, n, j, j+1)), mat.Max(x.Slice(0, n, j, j+1))
		}
		if hi[j] == lo[j] { //lint:ignore floatcmp degenerate constant-column guard
			hi[j] = lo[j] + 1
		}
	}
	binOf := func(j int, v float64) int {
		b := int(float64(statBins) * (v - lo[j]) / (hi[j] - lo[j]))
		if b < 0 {
			b = 0
		}
		if b >= statBins {
			b = statBins - 1
		}
		return b
	}
	center := func(j, b int) float64 {
		return lo[j] + (float64(b)+0.5)*(hi[j]-lo[j])/float64(statBins)
	}

	// Pairwise co-occurrence counts cooc[j][c][bj][bc] and priors, learned
	// from cells clean in both columns.
	prior := make([][]float64, m)
	for j := range prior {
		prior[j] = make([]float64, statBins)
	}
	cooc := make([][][]([]float64), m)
	for j := 0; j < m; j++ {
		cooc[j] = make([][][]float64, m)
		for c := 0; c < m; c++ {
			if c == j {
				continue
			}
			cooc[j][c] = make([][]float64, statBins)
			for b := range cooc[j][c] {
				cooc[j][c][b] = make([]float64, statBins)
			}
		}
	}
	for i := 0; i < n; i++ {
		for j := 0; j < m; j++ {
			if dirty.Observed(i, j) {
				continue
			}
			bj := binOf(j, x.At(i, j))
			prior[j][bj]++
			for c := 0; c < m; c++ {
				if c == j || dirty.Observed(i, c) {
					continue
				}
				bc := binOf(c, x.At(i, c))
				cooc[j][c][bj][bc]++
			}
		}
	}

	out := x.Clone()
	logPost := make([]float64, statBins)
	for i := 0; i < n; i++ {
		for j := 0; j < m; j++ {
			if !dirty.Observed(i, j) {
				continue
			}
			// log posterior over bins of column j.
			var priorTotal float64
			for _, c := range prior[j] {
				priorTotal += c
			}
			for b := 0; b < statBins; b++ {
				logPost[b] = math.Log((prior[j][b] + statSmooth) / (priorTotal + statSmooth*float64(statBins)))
			}
			for c := 0; c < m; c++ {
				if c == j || dirty.Observed(i, c) {
					continue
				}
				bc := binOf(c, x.At(i, c))
				for b := 0; b < statBins; b++ {
					// column sums for normalization of P(bj | bc)
					var colTotal float64
					for bb := 0; bb < statBins; bb++ {
						colTotal += cooc[j][c][bb][bc]
					}
					logPost[b] += math.Log((cooc[j][c][b][bc] + statSmooth) / (colTotal + statSmooth*float64(statBins)))
				}
			}
			// MAP repair: the center of the maximum-posterior bin, matching
			// HoloClean's most-probable-value semantics.
			best := 0
			for b := 1; b < statBins; b++ {
				if logPost[b] > logPost[best] {
					best = b
				}
			}
			out.Set(i, j, center(j, best))
		}
	}
	return out, nil
}
