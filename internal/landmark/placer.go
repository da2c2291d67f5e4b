package landmark

import (
	"bytes"
	"encoding/gob"
	"errors"
	"math"

	"github.com/spatialmf/smfl/internal/mat"
)

// Placer is the O(L) warm-start model for rows that arrive after training:
// it holds only landmark-sized state (L×d coordinates and the L×k landmark
// rows of the trained coefficient matrix), so warm-starting a row costs
// exactly L distance evaluations regardless of how many rows the model was
// trained on. It is immutable and safe for concurrent use.
type Placer struct {
	coords *mat.Dense // L×d landmark SI coordinates
	coeff  *mat.Dense // L×k landmark fold-in coefficients
	probes int        // nearest landmarks a warm start blends
}

// Landmarks returns L.
func (p *Placer) Landmarks() int { return p.coords.Rows() }

// Dim returns the SI dimensionality the placer expects.
func (p *Placer) Dim() int { return p.coords.Cols() }

// WarmStart writes a fold-in initialization for row i of rows into dst
// (length k), reading the row's SI from its first Dim columns: an
// inverse-distance Shepard blend of the nearest landmarks' trained
// coefficient rows, floored at the random-init minimum so multiplicative
// updates never see a stuck zero. Returns false (dst untouched) when dst is
// not k long, rows has fewer than Dim columns, mask hides an SI cell of the
// row, or no landmark gets a usable weight (the SI is non-finite or too far
// from every landmark), letting the caller keep its random initialization.
func (p *Placer) WarmStart(dst []float64, rows *mat.Dense, mask *mat.Mask, i int) bool {
	l, d := p.coords.Dims()
	if len(dst) != p.coeff.Cols() || rows.Cols() < d {
		return false
	}
	for j := 0; j < d; j++ {
		if !mask.Observed(i, j) {
			return false
		}
	}
	si := rows.Row(i)[:d]
	q := min(p.probes, l)
	nearest := make([]int, 0, q)
	dist := make([]float64, 0, q)
	for b := 0; b < l; b++ {
		db := math.Sqrt(sqDist(si, p.coords.Row(b)))
		if len(nearest) == q && db >= dist[q-1] {
			continue
		}
		at := len(nearest)
		if at < q {
			nearest = append(nearest, 0)
			dist = append(dist, 0)
		} else {
			at = q - 1
		}
		for at > 0 && dist[at-1] > db {
			nearest[at], dist[at] = nearest[at-1], dist[at-1]
			at--
		}
		nearest[at], dist[at] = b, db
	}
	const eps = 1e-9
	w := dist // each distance becomes its landmark's weight
	var wsum float64
	for t, db := range dist {
		w[t] = 1 / (db*db + eps)
		wsum += w[t]
	}
	if wsum <= 0 || math.IsNaN(wsum) || math.IsInf(wsum, 0) {
		return false
	}
	for k := range dst {
		dst[k] = 0
	}
	for t, b := range nearest {
		for k, v := range p.coeff.Row(b) {
			dst[k] += w[t] * v
		}
	}
	for k := range dst {
		dst[k] /= wsum
		if dst[k] < 1e-3 {
			dst[k] = 1e-3
		}
	}
	return true
}

// placerWire is the gob image of a Placer. Fields are append-only. Files
// written before the Landmark-MDS embedding was dropped also carry MDSDim,
// MDSMu, MDSCoords and MDSSharp; gob matches fields by name and skips those,
// so no new field may take one of these names.
type placerWire struct {
	Coords []byte
	Coeff  []byte
	Probes int
}

// MarshalBinary encodes the placer for persistence inside a model file.
func (p *Placer) MarshalBinary() ([]byte, error) {
	w := placerWire{Probes: p.probes}
	var err error
	if w.Coords, err = p.coords.MarshalBinary(); err != nil {
		return nil, err
	}
	if w.Coeff, err = p.coeff.MarshalBinary(); err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&w); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// UnmarshalBinary decodes a placer written by MarshalBinary.
func (p *Placer) UnmarshalBinary(data []byte) error {
	var w placerWire
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&w); err != nil {
		return err
	}
	coords, coeff := &mat.Dense{}, &mat.Dense{}
	if err := coords.UnmarshalBinary(w.Coords); err != nil {
		return err
	}
	if err := coeff.UnmarshalBinary(w.Coeff); err != nil {
		return err
	}
	if w.Probes <= 0 || coords.Rows() == 0 || coords.Rows() != coeff.Rows() {
		return errors.New("landmark: placer wire state inconsistent")
	}
	p.coords = coords
	p.coeff = coeff
	p.probes = w.Probes
	return nil
}

// Coeff returns the L×k landmark coefficient block (read-only).
func (p *Placer) Coeff() *mat.Dense { return p.coeff }

// Validate rejects placer state that decoded cleanly but does not describe a
// well-formed warm-start model: missing or non-finite matrices. Model
// loading calls this so a corrupted or hostile file is refused instead of
// crashing serving later.
func (p *Placer) Validate() error {
	if p.coords == nil || p.coeff == nil {
		return errors.New("landmark: placer missing state")
	}
	if !p.coords.IsFinite() || !p.coeff.IsFinite() {
		return errors.New("landmark: placer has non-finite entries")
	}
	return nil
}
