package mat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randomMask(rng *rand.Rand, r, c int, pObserved float64) *Mask {
	m := NewMask(r, c)
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			if rng.Float64() < pObserved {
				m.Observe(i, j)
			}
		}
	}
	return m
}

func TestMaskObserveHide(t *testing.T) {
	m := NewMask(3, 3)
	if m.Observed(1, 1) {
		t.Fatal("fresh mask should be all-hidden")
	}
	m.Observe(1, 1)
	if !m.Observed(1, 1) {
		t.Fatal("Observe did not stick")
	}
	m.Hide(1, 1)
	if m.Observed(1, 1) {
		t.Fatal("Hide did not stick")
	}
}

func TestFullMaskCount(t *testing.T) {
	for _, dims := range [][2]int{{1, 1}, {3, 5}, {8, 8}, {13, 7}, {10, 10}} {
		m := FullMask(dims[0], dims[1])
		if m.Count() != dims[0]*dims[1] {
			t.Fatalf("FullMask(%v).Count = %d", dims, m.Count())
		}
		if m.CountHidden() != 0 {
			t.Fatalf("FullMask hidden = %d", m.CountHidden())
		}
	}
}

func TestComplementLawProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rows, cols := 1+r.Intn(12), 1+r.Intn(12)
		m := randomMask(r, rows, cols, 0.5)
		comp := m.Complement()
		if m.Count()+comp.Count() != rows*cols {
			return false
		}
		// Double complement is identity.
		return comp.Complement().Equal(m)
	}
	_ = rng
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestProjectZeroesHidden(t *testing.T) {
	x := FromRows([][]float64{{1, 2}, {3, 4}})
	m := NewMask(2, 2)
	m.Observe(0, 0)
	m.Observe(1, 1)
	got := m.Project(nil, x)
	want := FromRows([][]float64{{1, 0}, {0, 4}})
	if !EqualApprox(got, want, 0) {
		t.Fatalf("Project = %v", got)
	}
}

func TestProjectDecompositionProperty(t *testing.T) {
	// R_Ω(X) + R_Ψ(X) == X for any mask.
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 40; trial++ {
		r, c := 1+rng.Intn(10), 1+rng.Intn(10)
		x := RandomNormal(rng, r, c, 0, 2)
		m := randomMask(rng, r, c, rng.Float64())
		sum := Add(nil, m.Project(nil, x), m.Complement().Project(nil, x))
		if !EqualApprox(sum, x, 0) {
			t.Fatal("R_Ω(X)+R_Ψ(X) != X")
		}
	}
}

func TestRecoverFormula8(t *testing.T) {
	x := FromRows([][]float64{{1, 2}, {3, 4}})
	pred := FromRows([][]float64{{10, 20}, {30, 40}})
	m := NewMask(2, 2)
	m.Observe(0, 0)
	m.Observe(1, 0)
	got := m.Recover(x, pred)
	want := FromRows([][]float64{{1, 20}, {3, 40}})
	if !EqualApprox(got, want, 0) {
		t.Fatalf("Recover = %v", got)
	}
}

func TestMaskedFrob2MatchesProjection(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 30; trial++ {
		r, c := 1+rng.Intn(9), 1+rng.Intn(9)
		a := RandomNormal(rng, r, c, 0, 1)
		b := RandomNormal(rng, r, c, 0, 1)
		m := randomMask(rng, r, c, 0.6)
		want := FrobNorm2(m.Project(nil, Sub(nil, a, b)))
		got := m.MaskedFrob2(a, b)
		if diff := want - got; diff > 1e-10 || diff < -1e-10 {
			t.Fatalf("MaskedFrob2 = %v want %v", got, want)
		}
	}
}

func TestRowObservedColCount(t *testing.T) {
	m := NewMask(2, 3)
	for j := 0; j < 3; j++ {
		m.Observe(0, j)
	}
	m.Observe(1, 1)
	if !m.RowObserved(0) || m.RowObserved(1) {
		t.Fatal("RowObserved wrong")
	}
	if m.ColObservedCount(1) != 2 || m.ColObservedCount(2) != 1 {
		t.Fatal("ColObservedCount wrong")
	}
}

func TestMaskClone(t *testing.T) {
	m := NewMask(2, 2)
	m.Observe(0, 0)
	c := m.Clone()
	c.Observe(1, 1)
	if m.Observed(1, 1) {
		t.Fatal("Clone shares storage")
	}
	if !c.Observed(0, 0) {
		t.Fatal("Clone lost bits")
	}
}

func TestMaskIndexPanics(t *testing.T) {
	m := NewMask(2, 2)
	defer expectPanic(t, "mask index")
	m.Observe(2, 0)
}

func TestNewMaskWords(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	want := randomMask(rng, 7, 11, 0.5) // 77 bits: a partial last word
	words := append([]uint64(nil), want.words...)
	if got := NewMaskWords(7, 11, words); !got.Equal(want) {
		t.Fatal("adopted words give another mask")
	}
	for name, tc := range map[string]struct {
		r, c  int
		words []uint64
	}{
		"short":         {7, 11, make([]uint64, 1)},
		"long":          {7, 11, make([]uint64, 3)},
		"trailing bit":  {7, 11, []uint64{0, 1 << 13}},
		"negative rows": {-1, 11, nil},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: NewMaskWords accepted %dx%d with %d words", name, tc.r, tc.c, len(tc.words))
				}
			}()
			NewMaskWords(tc.r, tc.c, tc.words)
		}()
	}
	if m := NewMaskWords(2, 32, []uint64{^uint64(0)}); m.Count() != 64 {
		t.Fatal("a full last word is not trailing")
	}
}

func TestHideAndObserveDropBuiltIndex(t *testing.T) {
	m := FullMask(3, 4)
	m.Hide(1, 2) // no index yet: nothing to drop
	if m.index.Load() != nil {
		t.Fatal("Hide built an index")
	}
	if _, cols := m.RowIndex(); len(cols) != 11 {
		t.Fatalf("index has %d cells, want 11", len(cols))
	}
	m.Hide(0, 0)
	if ptr, cols := m.RowIndex(); len(cols) != 10 || ptr[1] != 3 {
		t.Fatalf("index after Hide: ptr %v, %d cells", ptr, len(cols))
	}
	m.Observe(1, 2)
	if ptr, cols := m.RowIndex(); len(cols) != 11 || ptr[2] != 7 {
		t.Fatalf("index after Observe: ptr %v, %d cells", ptr, len(cols))
	}
}

func TestRecoverIntoMatchesCellwise(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for _, shape := range [][2]int{{1, 1}, {3, 5}, {8, 8}, {9, 15}, {40, 33}} {
		r, c := shape[0], shape[1]
		for _, p := range []float64{0, 0.5, 0.97, 1} {
			m := randomMask(rng, r, c, p)
			x := RandomNormal(rng, r, c, 0, 1)
			pred := RandomNormal(rng, r, c, 0, 1)
			want := NewDense(r, c)
			for i := 0; i < r; i++ {
				for j := 0; j < c; j++ {
					want.Set(i, j, pred.At(i, j))
					if m.Observed(i, j) {
						want.Set(i, j, x.At(i, j))
					}
				}
			}
			if got := m.Recover(x, pred); !EqualApprox(got, want, 0) || got == pred {
				t.Fatalf("%dx%d p=%v: Recover differs from the cellwise Formula 8", r, c, p)
			}
			if got := m.RecoverInto(pred, x); got != pred || !EqualApprox(pred, want, 0) {
				t.Fatalf("%dx%d p=%v: RecoverInto differs from the cellwise Formula 8", r, c, p)
			}
		}
	}
}

// TestKeepObservedMatchesObserved checks KeepObserved against Observed cell
// by cell: every span [lo, lo+w) of every row, for row widths on both sides
// of a 64-bit word, so that spans start mid-word, straddle two words and end
// at the mask's last bit. Observed entries keep their bits, NaN, ±Inf, −0
// and subnormals included; every other entry becomes +0.
func TestKeepObservedMatchesObserved(t *testing.T) {
	specials := []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
		5e-324, -2.2e-310, 1.5, -3.25}
	rng := rand.New(rand.NewSource(31))
	for _, cols := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 63, 64, 65, 130} {
		m := randomMask(rng, 5, cols, 0.6)
		for i := 0; i < 5; i++ {
			for lo := 0; lo < cols; lo++ {
				for w := 1; lo+w <= cols; w++ {
					p := make([]float64, w)
					for c := range p {
						p[c] = specials[(i+lo+c)%len(specials)]
					}
					m.KeepObserved(p, i, lo)
					for c, v := range p {
						want := uint64(0)
						if m.Observed(i, lo+c) {
							want = math.Float64bits(specials[(i+lo+c)%len(specials)])
						}
						if got := math.Float64bits(v); got != want {
							t.Fatalf("%d cols, row %d, [%d, %d): entry %d has bits %#x, want %#x", cols, i, lo, lo+w, c, got, want)
						}
					}
				}
			}
		}
	}
	m := NewMask(3, 4)
	for _, bad := range []struct{ i, lo, w int }{{3, 0, 1}, {-1, 0, 1}, {0, -1, 1}, {0, 2, 3}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("KeepObserved(row %d, lo %d, width %d) on a 3x4 mask did not panic", bad.i, bad.lo, bad.w)
				}
			}()
			m.KeepObserved(make([]float64, bad.w), bad.i, bad.lo)
		}()
	}
}
