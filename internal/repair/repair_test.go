package repair

import (
	"testing"

	"github.com/spatialmf/smfl/internal/core"
	"github.com/spatialmf/smfl/internal/dataset"
	"github.com/spatialmf/smfl/internal/mat"
	"github.com/spatialmf/smfl/internal/metrics"
)

// repairProblem builds a normalized spatial dataset, corrupts it, and
// returns (truth, corrupted, dirtyMask, L).
func repairProblem(t *testing.T, n int, rate float64, seed int64) (*mat.Dense, *mat.Dense, *mat.Mask, int) {
	t.Helper()
	res, err := dataset.Generate(dataset.Spec{
		Name: "rep", N: n, M: 7, L: 2,
		Latents: 3, Bumps: 4, Clusters: 4, Noise: 0.02, Seed: seed, DominantShare: 0.6,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := res.Data.Normalize(); err != nil {
		t.Fatal(err)
	}
	truth := res.Data.X.Clone()
	corrupted, dirty, err := dataset.InjectErrors(res.Data, dataset.ErrorSpec{Rate: rate, Seed: seed, SpareSI: true})
	if err != nil {
		t.Fatal(err)
	}
	return truth, corrupted, dirty, res.Data.L
}

func allRepairers() []Repairer {
	cfg := core.Config{K: 4, MaxIter: 80, Seed: 1}
	return PaperRepairers(1, cfg)
}

func TestAllRepairersContract(t *testing.T) {
	truth, corrupted, dirty, l := repairProblem(t, 150, 0.1, 1)
	_ = truth
	orig := corrupted.Clone()
	n, m := corrupted.Dims()
	for _, r := range allRepairers() {
		out, err := r.Repair(corrupted, dirty, l)
		if err != nil {
			t.Fatalf("%s: %v", r.Name(), err)
		}
		if !out.IsFinite() {
			t.Fatalf("%s: non-finite output", r.Name())
		}
		for i := 0; i < n; i++ {
			for j := 0; j < m; j++ {
				if !dirty.Observed(i, j) && out.At(i, j) != corrupted.At(i, j) {
					t.Fatalf("%s: changed clean cell (%d,%d)", r.Name(), i, j)
				}
			}
		}
		if !mat.EqualApprox(corrupted, orig, 0) {
			t.Fatalf("%s: modified the input", r.Name())
		}
	}
}

func TestRepairersImproveOverCorruption(t *testing.T) {
	truth, corrupted, dirty, l := repairProblem(t, 220, 0.1, 2)
	before, err := metrics.RMSOverSet(corrupted, truth, dirty)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range allRepairers() {
		out, err := r.Repair(corrupted, dirty, l)
		if err != nil {
			t.Fatalf("%s: %v", r.Name(), err)
		}
		after, err := metrics.RMSOverSet(out, truth, dirty)
		if err != nil {
			t.Fatal(err)
		}
		if after >= before {
			t.Errorf("%s: repair RMS %.4f not better than corruption %.4f", r.Name(), after, before)
		}
	}
}

func TestSpatialMethodsBeatGenericRepair(t *testing.T) {
	// Table VI shape: SMF/SMFL below Baran and the NMF baseline.
	var smfl, baran, nmf float64
	for seed := int64(3); seed < 6; seed++ {
		truth, corrupted, dirty, l := repairProblem(t, 220, 0.1, seed)
		cfg := core.Config{K: 4, MaxIter: 200, Tol: 1e-8, Seed: seed}
		for _, r := range []Repairer{
			&MFRepair{Method: core.SMFL, Cfg: cfg},
			&ContextRepair{Seed: seed},
			&MFRepair{Method: core.NMF, Cfg: cfg},
		} {
			out, err := r.Repair(corrupted, dirty, l)
			if err != nil {
				t.Fatal(err)
			}
			rms, err := metrics.RMSOverSet(out, truth, dirty)
			if err != nil {
				t.Fatal(err)
			}
			switch r.Name() {
			case "SMFL":
				smfl += rms
			case "Baran":
				baran += rms
			case "NMF":
				nmf += rms
			}
		}
	}
	if smfl >= baran {
		t.Errorf("SMFL %.4f should beat Baran %.4f", smfl, baran)
	}
	if smfl >= nmf {
		t.Errorf("SMFL %.4f should beat NMF %.4f", smfl, nmf)
	}
}

func TestStatRepairLearnsCooccurrence(t *testing.T) {
	// Column 1 = column 0 (perfect dependency); a corrupted cell in column 1
	// must be pulled near its partner's value.
	n := 200
	x := mat.NewDense(n, 3)
	for i := 0; i < n; i++ {
		v := float64(i%10) / 10
		x.Set(i, 0, v)
		x.Set(i, 1, v)
		x.Set(i, 2, 0.5)
	}
	dirty := mat.NewMask(n, 3)
	x.Set(7, 1, 0.95) // corrupt: true value is 0.7
	dirty.Observe(7, 1)
	out, err := (&StatRepair{}).Repair(x, dirty, 1)
	if err != nil {
		t.Fatal(err)
	}
	got := out.At(7, 1)
	if got < 0.6 || got > 0.8 {
		t.Fatalf("StatRepair = %v, want ≈0.7", got)
	}
}

func TestContextRepairVicinity(t *testing.T) {
	// Column 2 = col0 + col1; corrupted cells must be regressed back.
	n := 120
	x := mat.NewDense(n, 3)
	for i := 0; i < n; i++ {
		a := float64(i) / float64(n)
		b := float64((i*7)%n) / float64(n)
		x.Set(i, 0, a)
		x.Set(i, 1, b)
		x.Set(i, 2, a+b)
	}
	truth := x.Clone()
	dirty := mat.NewMask(n, 3)
	for i := 10; i < n; i += 17 {
		x.Set(i, 2, 0.123)
		dirty.Observe(i, 2)
	}
	out, err := (&ContextRepair{Seed: 1}).Repair(x, dirty, 1)
	if err != nil {
		t.Fatal(err)
	}
	rms, err := metrics.RMSOverSet(out, truth, dirty)
	if err != nil {
		t.Fatal(err)
	}
	beforeRMS, _ := metrics.RMSOverSet(x, truth, dirty)
	if rms > 0.5*beforeRMS {
		t.Fatalf("ContextRepair RMS %v vs corruption %v", rms, beforeRMS)
	}
}

func TestSpatialOutlierDetector(t *testing.T) {
	res, err := dataset.Generate(dataset.Spec{
		Name: "det", N: 300, M: 5, L: 2,
		Latents: 2, Bumps: 4, Clusters: 3, Noise: 0.01, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := res.Data.Normalize(); err != nil {
		t.Fatal(err)
	}
	x := res.Data.X
	// Plant gross outliers.
	planted := [][2]int{{10, 3}, {50, 4}, {200, 2}}
	for _, c := range planted {
		x.Set(c[0], c[1], x.At(c[0], c[1])+3)
	}
	det := &SpatialOutlierDetector{P: 5, Threshold: 8}
	dirty, err := det.Detect(x, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range planted {
		if !dirty.Observed(c[0], c[1]) {
			t.Errorf("planted outlier (%d,%d) not detected", c[0], c[1])
		}
	}
	// False positive rate should be low.
	if fp := dirty.Count() - len(planted); fp > 25 {
		t.Errorf("too many false positives: %d", fp)
	}
	// SI columns never flagged.
	n, _ := x.Dims()
	for i := 0; i < n; i++ {
		if dirty.Observed(i, 0) || dirty.Observed(i, 1) {
			t.Fatal("detector flagged SI column")
		}
	}
}

func TestRepairValidation(t *testing.T) {
	x := mat.NewDense(3, 3)
	if _, err := (&StatRepair{}).Repair(x, mat.NewMask(2, 3), 1); err == nil {
		t.Fatal("expected mask shape error")
	}
	if _, err := (&ContextRepair{}).Repair(mat.NewDense(0, 0), mat.NewMask(0, 0), 0); err == nil {
		t.Fatal("expected empty error")
	}
}
