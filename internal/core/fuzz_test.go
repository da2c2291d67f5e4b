package core

import (
	"bytes"
	"encoding/gob"
	"math"
	"testing"

	"github.com/spatialmf/smfl/internal/landmark"
	"github.com/spatialmf/smfl/internal/mat"
)

// fuzzSeedModel builds a tiny well-formed fitted model by hand (no Fit run,
// so it is cheap enough to call per seed variant).
func fuzzSeedModel() *Model {
	return &Model{
		Method:    SMFL,
		Config:    Config{K: 2, Lambda: 0.1, Seed: 7},
		L:         1,
		U:         mat.FromRows([][]float64{{0.4, 0.1}, {0.2, 0.9}, {0.5, 0.5}, {0.3, 0.7}}),
		V:         mat.FromRows([][]float64{{0.6, 0.2, 0.8}, {0.1, 0.9, 0.3}}),
		C:         mat.FromRows([][]float64{{0.6}, {0.1}}),
		Norm:      &Norm{Mins: []float64{0, 0, 0}, Maxs: []float64{1, 2, 3}},
		Objective: []float64{3.5, 1.2, 0.9},
		Iters:     3,
		Converged: true,
	}
}

// fuzzPlacerModel is fuzzSeedModel with a landmark Placer built over SI
// coordinates for its four rows, so the fuzzer also starts from valid placer
// bytes. fuzzSeedModel itself stays placer-free: its bytes are pinned.
func fuzzPlacerModel(tb testing.TB) *Model {
	m := fuzzSeedModel()
	m.Config.SpatialIndex = SpatialLandmark
	ix, err := landmark.Build(mat.FromRows([][]float64{{0.1}, {0.4}, {0.6}, {0.9}}), landmark.Config{Seed: 7})
	if err != nil {
		tb.Fatal(err)
	}
	m.Placer = ix.NewPlacer(m.U)
	return m
}

// legacyPlacerWire is the placer image written before the Landmark-MDS
// embedding was dropped: today's fields plus the four retired MDS ones.
type legacyPlacerWire struct {
	Coords    []byte
	Coeff     []byte
	Probes    int
	MDSDim    int
	MDSMu     []float64
	MDSCoords []byte
	MDSSharp  []byte
}

// legacyPlacerBytes saves m, which must carry a Placer, with its placer
// image rewritten in the legacy layout, MDS fields filled.
func legacyPlacerBytes(tb testing.TB, m *Model) []byte {
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		tb.Fatal(err)
	}
	var wire modelWire
	if err := gob.NewDecoder(&buf).Decode(&wire); err != nil {
		tb.Fatal(err)
	}
	var pw legacyPlacerWire
	if err := gob.NewDecoder(bytes.NewReader(wire.Placer)).Decode(&pw); err != nil {
		tb.Fatal(err)
	}
	l := m.Placer.Landmarks()
	pw.MDSDim, pw.MDSMu = 1, make([]float64, l)
	var err error
	if pw.MDSCoords, err = mat.NewDense(l, 1).MarshalBinary(); err != nil {
		tb.Fatal(err)
	}
	pw.MDSSharp = pw.MDSCoords
	var pbuf bytes.Buffer
	if err := gob.NewEncoder(&pbuf).Encode(&pw); err != nil {
		tb.Fatal(err)
	}
	wire.Placer = pbuf.Bytes()
	buf.Reset()
	if err := gob.NewEncoder(&buf).Encode(&wire); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

func fuzzSeedBytes(f *testing.F) []byte {
	var buf bytes.Buffer
	if err := fuzzSeedModel().Save(&buf); err != nil {
		f.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzReadModel throws corrupted, truncated, and hostile .smfl byte streams
// at the model decoder. Load must either error or return a model whose
// invariants hold and that survives a FoldIn — it must never panic or
// over-allocate on a crafted header (the trust boundary for files handed to
// cmd/smfld and the /admin/models reload endpoint).
func FuzzReadModel(f *testing.F) {
	valid := fuzzSeedBytes(f)
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte("not a model"))
	f.Add(valid[:len(valid)/2]) // truncated mid-stream
	f.Add(valid[:1])

	// Bit-flipped copies at a few offsets.
	for _, off := range []int{2, len(valid) / 3, len(valid) - 2} {
		corrupt := bytes.Clone(valid)
		corrupt[off] ^= 0xff
		f.Add(corrupt)
	}

	// NaN and Inf smuggled into the factor payloads.
	for _, poison := range []float64{math.NaN(), math.Inf(1)} {
		m := fuzzSeedModel()
		m.U.Set(1, 1, poison)
		var buf bytes.Buffer
		if err := m.Save(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}

	// Structurally bogus wire images that decode as gob but must be rejected:
	// mismatched factor widths, K disagreeing with the factors, an SI width
	// outside the column range, landmark dims disagreeing with V, a
	// non-finite objective, and an unknown graph mode, method or landmark
	// source.
	addWire := func(mutate func(*Model)) {
		m := fuzzSeedModel()
		mutate(m)
		var buf bytes.Buffer
		if err := m.Save(&buf); err != nil {
			return // Save itself refused; nothing to seed
		}
		f.Add(buf.Bytes())
	}
	addWire(func(m *Model) { m.Config.K = 99 })
	addWire(func(m *Model) { m.L = 17 })
	addWire(func(m *Model) { m.U = mat.FromRows([][]float64{{1, 2, 3}}) })
	addWire(func(m *Model) { m.C = mat.FromRows([][]float64{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}}) })
	addWire(func(m *Model) { m.Objective = []float64{math.Inf(-1)} })
	addWire(func(m *Model) { m.Config.GraphMode = 7 })
	addWire(func(m *Model) { m.Method = 7 })
	addWire(func(m *Model) { m.Config.LandmarkSource = 9 })

	// A hostile Dense header whose 8*rows*cols overflows int64 so the
	// expected length wraps onto a 12-byte payload (the allocation bomb the
	// unmarshaler's uint64 length check exists for). It carries the current
	// wire version, or the version check would refuse it first.
	bomb := []byte{'S', 'M', 'D', '1', 0, 0, 0, 0x40, 0, 0, 0, 0x80}
	wire := modelWire{U: bomb, V: bomb, Version: wireVersion}
	var bombBuf bytes.Buffer
	if err := gob.NewEncoder(&bombBuf).Encode(&wire); err != nil {
		f.Fatal(err)
	}
	f.Add(bombBuf.Bytes())

	// A model carrying a Placer, as written now and in the legacy layout
	// with the retired MDS fields, so mutations reach the placer decoder.
	var placerBuf bytes.Buffer
	if err := fuzzPlacerModel(f).Save(&placerBuf); err != nil {
		f.Fatal(err)
	}
	f.Add(placerBuf.Bytes())
	f.Add(legacyPlacerBytes(f, fuzzPlacerModel(f)))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<20 {
			return // bound decode cost; real models this small never exceed it
		}
		m, err := Load(bytes.NewReader(data))
		if err != nil {
			return // rejected: the only acceptable failure mode
		}
		// Whatever loaded must be coherent enough to serve.
		n, k := m.U.Dims()
		kv, cols := m.V.Dims()
		if n < 1 || k < 1 || cols < 1 || kv != k || m.Config.K != k {
			t.Fatalf("Load accepted inconsistent factors: U %dx%d, V %dx%d, K %d", n, k, kv, cols, m.Config.K)
		}
		if m.L < 0 || m.L > cols {
			t.Fatalf("Load accepted SI width %d with %d columns", m.L, cols)
		}
		if !m.U.IsFinite() || !m.V.IsFinite() {
			t.Fatal("Load accepted non-finite factors")
		}
		row := mat.NewDense(1, cols)
		for j := 0; j < cols; j++ {
			row.Set(0, j, 0.5)
		}
		if _, err := m.FoldIn(row, nil, 2); err != nil {
			t.Logf("FoldIn on loaded model: %v", err) // errors fine, panics not
		}
	})
}
