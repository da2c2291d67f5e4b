package core

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/spatialmf/smfl/internal/faultinject"
	"github.com/spatialmf/smfl/internal/mat"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	x, omega, l := testProblem(t, 120, 80)
	orig, err := Fit(x, omega, l, SMFL, quickCfg(4))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := orig.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !mat.EqualApprox(got.U, orig.U, 0) || !mat.EqualApprox(got.V, orig.V, 0) {
		t.Fatal("factors changed through serialization")
	}
	if !mat.EqualApprox(got.C, orig.C, 0) {
		t.Fatal("landmarks changed through serialization")
	}
	if got.Method != SMFL || got.L != l || got.Iters != orig.Iters || got.Converged != orig.Converged {
		t.Fatalf("metadata mismatch: %+v", got)
	}
	if got.Config.K != orig.Config.K || got.Config.Lambda != orig.Config.Lambda {
		t.Fatal("config mismatch")
	}
	if len(got.Objective) != len(orig.Objective) {
		t.Fatal("objective trace lost")
	}
}

func TestLoadedModelServesFoldIn(t *testing.T) {
	x, omega, l := testProblem(t, 120, 81)
	orig, err := Fit(x, omega, l, SMFL, quickCfg(4))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := orig.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	fresh := x.Slice(0, 10, 0, x.Cols())
	a, err := orig.FoldIn(fresh, nil, 50)
	if err != nil {
		t.Fatal(err)
	}
	b, err := loaded.FoldIn(fresh, nil, 50)
	if err != nil {
		t.Fatal(err)
	}
	if !mat.EqualApprox(a, b, 0) {
		t.Fatal("loaded model folds in differently")
	}
}

// TestLoadLegacyPlacerImage: a model file whose placer image still carries
// the retired Landmark-MDS fields loads with its Placer and folds in bit for
// bit like the same model saved now. Both images seed FuzzReadModel.
func TestLoadLegacyPlacerImage(t *testing.T) {
	var buf bytes.Buffer
	if err := fuzzPlacerModel(t).Save(&buf); err != nil {
		t.Fatal(err)
	}
	rows := mat.FromRows([][]float64{{0.5, 0.3, 0.7}, {0.95, 0.6, 0.2}})
	mask := mat.FullMask(rows.Dims())
	mask.Hide(0, 2)
	var want []float64
	for _, img := range [][]byte{buf.Bytes(), legacyPlacerBytes(t, fuzzPlacerModel(t))} {
		m, err := Load(bytes.NewReader(img))
		if err != nil {
			t.Fatal(err)
		}
		if m.Placer == nil {
			t.Fatal("placer did not load")
		}
		u, err := m.FoldIn(rows, mask, 30)
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = u.Data()
			continue
		}
		for i, v := range u.Data() {
			if math.Float64bits(v) != math.Float64bits(want[i]) {
				t.Fatalf("legacy image folds in differently at coefficient %d: %v vs %v", i, v, want[i])
			}
		}
	}
}

func TestSaveLoadFile(t *testing.T) {
	x, omega, l := testProblem(t, 100, 82)
	orig, err := Fit(x, omega, l, SMF, quickCfg(3))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "model.smfl")
	if err := orig.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !mat.EqualApprox(got.V, orig.V, 0) {
		t.Fatal("file round trip lost data")
	}
	if got.C != nil {
		t.Fatal("SMF model should have no landmarks after load")
	}
}

func TestSaveUnfittedFails(t *testing.T) {
	var m Model
	var buf bytes.Buffer
	if err := m.Save(&buf); err == nil {
		t.Fatal("expected error saving an unfitted model")
	}
}

// TestLoadRefusesOtherWireVersions: Load reads only wireVersion. Images
// at v0 (the layout before the Version field existed), one version back and
// one ahead are refused with ErrWireVersion, before any payload is
// unmarshalled: the images carry a U that would not unmarshal.
func TestLoadRefusesOtherWireVersions(t *testing.T) {
	var buf bytes.Buffer
	if err := fuzzSeedModel().Save(&buf); err != nil {
		t.Fatal(err)
	}
	var wire modelWire
	if err := gob.NewDecoder(&buf).Decode(&wire); err != nil {
		t.Fatal(err)
	}
	wire.U = []byte("not a matrix")
	for _, v := range []int{0, wireVersion - 1, wireVersion + 1} {
		wire.Version = v
		buf.Reset()
		if err := gob.NewEncoder(&buf).Encode(&wire); err != nil {
			t.Fatal(err)
		}
		_, err := Load(&buf)
		if !errors.Is(err, ErrWireVersion) {
			t.Fatalf("v%d image: Load returned %v, want ErrWireVersion", v, err)
		}
		for _, want := range []string{fmt.Sprintf("version %d,", v), fmt.Sprintf("version %d;", wireVersion), "re-save"} {
			if !strings.Contains(err.Error(), want) {
				t.Fatalf("v%d image: error %q does not mention %q", v, err, want)
			}
		}
	}
}

// TestLoadRefusesUnknownEnums: an image whose Method or LandmarkSource names
// no enum value is refused; a Method 7 model would otherwise resume as SMF.
func TestLoadRefusesUnknownEnums(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(*Model)
	}{
		{"method 7", func(m *Model) { m.Method = 7 }},
		{"landmark source 9", func(m *Model) { m.Config.LandmarkSource = 9 }},
	} {
		m := fuzzSeedModel()
		tc.mutate(m)
		var buf bytes.Buffer
		if err := m.Save(&buf); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(&buf); err == nil {
			t.Fatalf("%s: Load accepted the image", tc.name)
		}
	}
}

func TestSaveLoadNormRoundTrip(t *testing.T) {
	x, omega, l := testProblem(t, 100, 84)
	orig, err := Fit(x, omega, l, SMFL, quickCfg(4))
	if err != nil {
		t.Fatal(err)
	}
	_, cols := orig.V.Dims()
	mins := make([]float64, cols)
	maxs := make([]float64, cols)
	for j := range mins {
		mins[j] = float64(j) - 3
		maxs[j] = float64(j) + 5
	}
	orig.Norm = &Norm{Mins: mins, Maxs: maxs}
	var buf bytes.Buffer
	if err := orig.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Norm == nil {
		t.Fatal("norm stats lost")
	}
	for j := range mins {
		if got.Norm.Mins[j] != mins[j] || got.Norm.Maxs[j] != maxs[j] {
			t.Fatalf("norm column %d changed: %v/%v", j, got.Norm.Mins[j], got.Norm.Maxs[j])
		}
	}
	// Saving malformed stats must fail loudly rather than emit a poisoned file.
	orig.Norm = &Norm{Mins: []float64{0}, Maxs: []float64{1}}
	if err := orig.Save(&bytes.Buffer{}); err == nil {
		t.Fatal("expected norm width error on Save")
	}
	maxsBad := make([]float64, cols)
	copy(maxsBad, mins)
	maxsBad[0] = mins[0] - 1
	orig.Norm = &Norm{Mins: mins, Maxs: maxsBad}
	if err := orig.Save(&bytes.Buffer{}); err == nil {
		t.Fatal("expected max<min error on Save")
	}
}

func TestLoadGarbageFails(t *testing.T) {
	if _, err := Load(bytes.NewBufferString("not a model")); err == nil {
		t.Fatal("expected decode error")
	}
}

func TestDenseMaskBinaryRoundTrip(t *testing.T) {
	d := mat.FromRows([][]float64{{1.5, -2}, {0, 3.25}})
	raw, err := d.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	back := new(mat.Dense)
	if err := back.UnmarshalBinary(raw); err != nil {
		t.Fatal(err)
	}
	if !mat.EqualApprox(d, back, 0) {
		t.Fatal("Dense round trip failed")
	}
	if err := back.UnmarshalBinary(raw[:10]); err == nil {
		t.Fatal("expected truncation error")
	}

	mk := mat.NewMask(3, 5)
	mk.Observe(1, 2)
	mk.Observe(2, 4)
	rawM, err := mk.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	backM := new(mat.Mask)
	if err := backM.UnmarshalBinary(rawM); err != nil {
		t.Fatal(err)
	}
	if !mk.Equal(backM) {
		t.Fatal("Mask round trip failed")
	}
	if err := backM.UnmarshalBinary(raw); err == nil {
		t.Fatal("expected magic mismatch error")
	}
}

// TestSaveFileAtomicSurvivesCrash drives the two persist fault points: an
// injected write error and a simulated crash between the temp write and the
// rename. In both cases the previously published file must stay intact and
// loadable.
func TestSaveFileAtomicSurvivesCrash(t *testing.T) {
	defer faultinject.Reset()
	x, omega, l := testProblem(t, 100, 82)
	first, err := Fit(x, omega, l, SMFL, quickCfg(4))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "model.smfl")
	if err := first.SaveFile(path); err != nil {
		t.Fatal(err)
	}

	cfg := quickCfg(4)
	cfg.Seed = 99 // a distinguishable second model
	second, err := Fit(x, omega, l, SMFL, cfg)
	if err != nil {
		t.Fatal(err)
	}

	check := func(stage string) {
		t.Helper()
		got, err := LoadFile(path)
		if err != nil {
			t.Fatalf("%s: previous file no longer loads: %v", stage, err)
		}
		if !mat.EqualApprox(got.U, first.U, 0) {
			t.Fatalf("%s: previous file content corrupted", stage)
		}
	}

	// Injected I/O error mid-write: temp cleaned up, previous file intact.
	werr := errors.New("injected disk error")
	faultinject.Enable(faultinject.PersistWrite, faultinject.Fail(werr))
	if err := second.SaveFile(path); !errors.Is(err, werr) {
		t.Fatalf("SaveFile returned %v, want the injected write error", err)
	}
	faultinject.Reset()
	check("write fault")
	if tmp, _ := filepath.Glob(filepath.Join(dir, "*.tmp*")); len(tmp) != 0 {
		t.Fatalf("write fault left temp files behind: %v", tmp)
	}

	// Simulated crash between write and rename: previous file intact (the
	// orphaned temp file is exactly what a real crash leaves).
	cerr := errors.New("simulated crash before rename")
	faultinject.Enable(faultinject.PersistRename, faultinject.Fail(cerr))
	if err := second.SaveFile(path); !errors.Is(err, cerr) {
		t.Fatalf("SaveFile returned %v, want the injected crash", err)
	}
	faultinject.Reset()
	check("rename crash")

	// With the faults cleared the same save publishes normally.
	if err := second.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !mat.EqualApprox(got.U, second.U, 0) {
		t.Fatal("clean save did not publish the new model")
	}
}

// TestWireV3RoundTripsRobustnessFields: Partial, Recoveries and the
// fault-tolerance config knobs must survive Save/Load.
func TestWireV3RoundTripsRobustnessFields(t *testing.T) {
	x, omega, l := testProblem(t, 80, 83)
	cfg := quickCfg(3)
	cfg.CheckpointEvery = 7
	model, err := Fit(x, omega, l, SMF, cfg)
	if err != nil {
		t.Fatal(err)
	}
	model.Partial = true
	model.Recoveries = 4
	var buf bytes.Buffer
	if err := model.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Partial || got.Recoveries != 4 {
		t.Fatalf("Partial=%v Recoveries=%d after round trip", got.Partial, got.Recoveries)
	}
	c := got.Config
	if c.CheckpointEvery != 7 {
		t.Fatalf("fault-tolerance config lost: %+v", c)
	}
}

// TestSaveLoadKeepsEveryConfigField gives every persisted Config field a
// non-zero value and requires Save→Load to return the Config unchanged. Only
// the runtime-only Ctx, CheckpointPath and Weights are exempt, so a field
// added to Config but not to configWire fails here instead of loading as
// its zero value (GraphMode once did, and fitHash then refused every
// brute-force-graph checkpoint on resume).
func TestSaveLoadKeepsEveryConfigField(t *testing.T) {
	runtimeOnly := map[string]bool{"Ctx": true, "CheckpointPath": true, "Weights": true}
	m := fuzzSeedModel()
	cfg := reflect.ValueOf(&m.Config).Elem()
	for i := 0; i < cfg.NumField(); i++ {
		f, name := cfg.Field(i), cfg.Type().Field(i).Name
		if runtimeOnly[name] || !f.IsZero() {
			continue // K is already set, and must keep matching the factors
		}
		switch f.Kind() {
		case reflect.Int, reflect.Int64:
			f.SetInt(1) // a valid value of every enum field too
		case reflect.Float64:
			f.SetFloat(float64(i) + 0.5)
		default:
			t.Fatalf("Config.%s has kind %s: give it a non-zero value here", name, f.Kind())
		}
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Config, m.Config) {
		t.Fatalf("Config changed through Save/Load:\n got %+v\nwant %+v", got.Config, m.Config)
	}
}
