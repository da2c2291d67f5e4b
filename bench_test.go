// Package smfl_bench holds the benchmark harness: one testing.B benchmark
// per paper table/figure (regenerating the artifact at a small scale each
// iteration) plus kernel micro-benchmarks for the hot paths. Run with
//
//	go test -bench=. -benchmem
//
// and see EXPERIMENTS.md for paper-vs-measured values at larger scales.
package smfl_bench

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"github.com/spatialmf/smfl/internal/core"
	"github.com/spatialmf/smfl/internal/dataset"
	"github.com/spatialmf/smfl/internal/experiments"
	"github.com/spatialmf/smfl/internal/linalg"
	"github.com/spatialmf/smfl/internal/mat"
	"github.com/spatialmf/smfl/internal/spatial"
)

// benchOpts keeps a full table/figure regeneration inside a benchmark
// iteration budget.
func benchOpts() experiments.Options {
	return experiments.Options{
		Scale: 0.004, Runs: 1, Seed: 1, MaxIter: 60,
		Budget: 5 * time.Minute, Quiet: true,
	}
}

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	fn := experiments.ByID(id)
	if fn == nil {
		b.Fatalf("unknown experiment %q", id)
	}
	opts := benchOpts()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fn(opts); err != nil {
			b.Fatal(err)
		}
	}
}

// --- One benchmark per paper artifact (DESIGN.md §4). ---

func BenchmarkTable4(b *testing.B) { benchExperiment(b, "table4") }
func BenchmarkTable5(b *testing.B) { benchExperiment(b, "table5") }
func BenchmarkTable6(b *testing.B) { benchExperiment(b, "table6") }
func BenchmarkTable7(b *testing.B) { benchExperiment(b, "table7") }
func BenchmarkFig4a(b *testing.B)  { benchExperiment(b, "fig4a") }
func BenchmarkFig4b(b *testing.B)  { benchExperiment(b, "fig4b") }
func BenchmarkFig5(b *testing.B)   { benchExperiment(b, "fig5") }
func BenchmarkFig6(b *testing.B)   { benchExperiment(b, "fig6") }
func BenchmarkFig7(b *testing.B)   { benchExperiment(b, "fig7") }
func BenchmarkFig8(b *testing.B)   { benchExperiment(b, "fig8") }
func BenchmarkFig9(b *testing.B)   { benchExperiment(b, "fig9") }

// --- Ablation benchmarks (DESIGN.md §5). ---

func BenchmarkAblationLandmarkSource(b *testing.B) { benchExperiment(b, "ablation-landmark-source") }
func BenchmarkAblationUpdater(b *testing.B)        { benchExperiment(b, "ablation-updater") }
func BenchmarkNeighborGraph(b *testing.B)          { benchExperiment(b, "ablation-graph") }

// --- Core method benchmarks: the Fig. 9 efficiency claim in isolation.
// SMFL should be at least as fast per fit as SMF (fewer V columns updated)
// despite its extra K-means step. ---

func benchFit(b *testing.B, method core.Method, n int, missRate float64) {
	b.Helper()
	res, err := dataset.Generate(dataset.Spec{
		Name: "bench", N: n, M: 8, L: 2,
		Latents: 3, Bumps: 4, Clusters: 5, Noise: 0.03, Seed: 1, DominantShare: 0.6,
	})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := res.Data.Normalize(); err != nil {
		b.Fatal(err)
	}
	mask, err := dataset.InjectMissing(res.Data, dataset.MissingSpec{Rate: missRate, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	cfg := core.Config{K: 6, Lambda: 0.1, P: 3, MaxIter: 100, Tol: 1e-9, Seed: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Fit(res.Data.X, mask, res.Data.L, method, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFitNMF(b *testing.B)  { benchFit(b, core.NMF, 600, 0.1) }
func BenchmarkFitSMF(b *testing.B)  { benchFit(b, core.SMF, 600, 0.1) }
func BenchmarkFitSMFL(b *testing.B) { benchFit(b, core.SMFL, 600, 0.1) }

// The paper's high missing rates are where the fused masked kernels pay off:
// only observed dot products are evaluated, so the per-iteration cost scales
// with |Ω| instead of N·M.
func BenchmarkFitSMFLMissing50(b *testing.B) { benchFit(b, core.SMFL, 600, 0.5) }
func BenchmarkFitSMFLMissing90(b *testing.B) { benchFit(b, core.SMFL, 600, 0.9) }

// BenchmarkFitDense is the fit inside perfbench's fit-dense job: a 10k×7
// Vehicle table with 20% of its non-SI cells hidden, SMFL at smfl impute's
// defaults (K = 10, λ = 0.1, p = 3, multiplicative, exact index), 200
// iterations. ms/iter divides the fit's time by the iterations it ran.
func BenchmarkFitDense(b *testing.B) {
	res, err := dataset.Vehicle(0.1, 1)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := res.Data.Normalize(); err != nil {
		b.Fatal(err)
	}
	mask, err := dataset.InjectMissing(res.Data, dataset.MissingSpec{Rate: 0.2, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	cfg := core.Config{K: 10, Lambda: 0.1, P: 3, Seed: 1, MaxIter: 200}
	iters := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		model, err := core.Fit(res.Data.X, mask, res.Data.L, core.SMFL, cfg)
		if err != nil {
			b.Fatal(err)
		}
		iters += model.Iters
	}
	b.ReportMetric(b.Elapsed().Seconds()*1e3/float64(iters), "ms/iter")
}

// --- Kernel micro-benchmarks. ---

func BenchmarkMatMul(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	a := mat.RandomNormal(rng, 500, 100, 0, 1)
	c := mat.RandomNormal(rng, 100, 50, 0, 1)
	dst := mat.NewDense(500, 50)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mat.Mul(dst, a, c)
	}
}

// BenchmarkProjectMul measures the fused masked product R_Ω(UV) against the
// dense-then-project alternative at a paper-typical 50% missing rate.
func BenchmarkProjectMul(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	u := mat.RandomNormal(rng, 1000, 10, 0, 1)
	v := mat.RandomNormal(rng, 10, 13, 0, 1)
	mask := randomHalfMask(rng, 1000, 13)
	dst := mat.NewDense(1000, 13)
	b.Run("fused", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			mask.ProjectMul(dst, u, v)
		}
	})
	b.Run("dense+project", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			mat.Mul(dst, u, v)
			mask.Project(dst, dst)
		}
	})
}

// BenchmarkMaskedFrob2Mul measures the fused objective evaluation (the kernel
// that eliminated the third per-iteration matmul in Fit).
func BenchmarkMaskedFrob2Mul(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	u := mat.RandomNormal(rng, 1000, 10, 0, 1)
	v := mat.RandomNormal(rng, 10, 13, 0, 1)
	x := mat.RandomNormal(rng, 1000, 13, 0, 1)
	mask := randomHalfMask(rng, 1000, 13)
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += mask.MaskedFrob2Mul(x, u, v)
	}
	_ = sink
}

func randomHalfMask(rng *rand.Rand, r, c int) *mat.Mask {
	mask := mat.NewMask(r, c)
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			if rng.Float64() < 0.5 {
				mask.Observe(i, j)
			}
		}
	}
	return mask
}

func BenchmarkMaskedProjection(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	x := mat.RandomNormal(rng, 1000, 13, 0, 1)
	mask := mat.FullMask(1000, 13)
	for i := 0; i < 1000; i += 3 {
		mask.Hide(i, i%13)
	}
	dst := mat.NewDense(1000, 13)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mask.Project(dst, x)
	}
}

func BenchmarkGraphBuildKDTree(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	si := mat.RandomNormal(rng, 2000, 2, 0, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := spatial.BuildGraph(si, 3, spatial.KDTreeMode); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGraphBuildBruteForce(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	si := mat.RandomNormal(rng, 2000, 2, 0, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := spatial.BuildGraph(si, 3, spatial.BruteForceMode); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLaplacianProduct(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	si := mat.RandomNormal(rng, 2000, 2, 0, 1)
	g, err := spatial.BuildGraph(si, 3, spatial.KDTreeMode)
	if err != nil {
		b.Fatal(err)
	}
	u := mat.RandomNormal(rng, 2000, 10, 0, 1)
	dst := mat.NewDense(2000, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.MulL(dst, u)
	}
}

func BenchmarkJacobiSVD(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	a := mat.RandomNormal(rng, 2000, 13, 0, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := linalg.ComputeSVD(a); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFoldIn measures fold-in cost at the batch sizes the serving
// layer's micro-batcher produces. The ns/row metric is the number to compare
// across sub-benchmarks: it quantifies how much one coalesced FoldIn call
// amortizes the masked-matmul cost versus per-row fold-in (rows=1).
func BenchmarkFoldIn(b *testing.B) {
	res, err := dataset.Generate(dataset.Spec{
		Name: "bench", N: 500, M: 8, L: 2,
		Latents: 3, Bumps: 4, Clusters: 5, Noise: 0.03, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := res.Data.Normalize(); err != nil {
		b.Fatal(err)
	}
	model, err := core.Fit(res.Data.X, nil, 2, core.SMFL, core.Config{K: 6, MaxIter: 60, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	for _, rows := range []int{1, 16, 256} {
		b.Run(fmt.Sprintf("rows=%d", rows), func(b *testing.B) {
			fresh := res.Data.X.Slice(0, rows, 0, 8)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := model.FoldIn(fresh, nil, 50); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows), "ns/row")
		})
	}
}
