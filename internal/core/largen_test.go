package core

import (
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"github.com/spatialmf/smfl/internal/dataset"
	"github.com/spatialmf/smfl/internal/store"
)

// TestLargeNStochasticSpeedup is the large-N smoke behind the stochastic
// updaters' reason to exist: on a 150k-row synthetic table at 90% missing,
// mini-batch SGD must reach full-sweep gradient descent's final training
// objective in at most a third of GD's wall-clock. The GD baseline runs at a
// step size tuned for its full-|Ω| column gradients (the family default 5e-3
// diverges there — see cmd/smflbench's gdLRGrid); SGD runs at the family
// default. Wall-clock assertions are inherently machine-sensitive, and the
// 3× bar sits close to what is measured now that full-sweep GD runs on the
// three-pass sweep: BENCH_fit.json's 20k-row sweep reads 2.5–6.8× for sgd
// and svrg at one worker, and this test 2.4–4.0× on a 2-vCPU host. Gated
// behind SMFL_LARGE=1 so the tier-1 -race suite stays fast.
func TestLargeNStochasticSpeedup(t *testing.T) {
	if os.Getenv("SMFL_LARGE") == "" {
		t.Skip("set SMFL_LARGE=1 to run the 150k-row smoke")
	}
	const n, epochs = 150000, 40
	res, err := dataset.Generate(dataset.Spec{
		Name: "LargeN", N: n, M: 30, L: 2,
		Latents: 5, Bumps: 8, Clusters: 6, Noise: 0.2, Private: 0.3, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := res.Data.Normalize(); err != nil {
		t.Fatal(err)
	}
	omega, err := dataset.InjectMissing(res.Data, dataset.MissingSpec{Rate: 0.9, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	x := res.Data.X

	cfg := Config{K: 6, Lambda: 0.1, MaxIter: epochs, Tol: 1e-15, Seed: 7}

	gdCfg := cfg
	gdCfg.Updater = GradientDescent
	// Tuned for this problem size: stable steps for column gradients that
	// sum ~|Ω|/M ≈ 15k observed cells each.
	gdCfg.LearningRate = 4e-6
	start := time.Now()
	gd, err := Fit(x, omega, res.Data.L, NMF, gdCfg)
	if err != nil {
		t.Fatal(err)
	}
	gdWall := time.Since(start)
	gdObj := gd.Objective[len(gd.Objective)-1]

	sgdCfg := cfg
	sgdCfg.Updater = SGD
	sgdCfg.LearningRate = 5e-3
	sgdCfg.BatchCells = 32768
	start = time.Now()
	sgd, err := Fit(x, omega, res.Data.L, NMF, sgdCfg)
	if err != nil {
		t.Fatal(err)
	}
	sgdWall := time.Since(start)
	msPerEpoch := sgdWall.Seconds() * 1e3 / float64(sgd.Iters)

	epochsToTol := 0
	for i, o := range sgd.Objective {
		if o <= gdObj {
			epochsToTol = i + 1
			break
		}
	}
	if epochsToTol == 0 {
		t.Fatalf("SGD never reached GD's final objective %.2f (SGD final %.2f)",
			gdObj, sgd.Objective[len(sgd.Objective)-1])
	}
	wallToTol := time.Duration(msPerEpoch * float64(epochsToTol) * float64(time.Millisecond))
	t.Logf("N=%d: gd %v to obj %.2f; sgd %.1fms/epoch, %d epochs to match (%.1fx)",
		n, gdWall.Round(time.Millisecond), gdObj, msPerEpoch, epochsToTol,
		gdWall.Seconds()/wallToTol.Seconds())
	if wallToTol*3 > gdWall {
		t.Fatalf("SGD wall-clock-to-equal-objective %v not ≥3x faster than GD's %v",
			wallToTol.Round(time.Millisecond), gdWall.Round(time.Millisecond))
	}
}

// TestLargeNOutOfCore is the out-of-core smoke behind internal/store's reason
// to exist: a 60k×40 table (~19 MiB of row data in ~30 shards) is fit through
// a memory budget of a quarter of the data size, and must (a) produce the
// Float64bits-identical objective trajectory of the in-memory fit, (b) keep
// the store's peak shard residency within the budget plus transient reader
// pins (one pinned shard per worker chunk is allowed to overshoot — see
// Store.evictFor), (c) not quietly materialize the data on the Go heap:
// live heap growth across the fit stays below half the data size, i.e. the
// factors and trainer state, not a second copy of X, and (d) map each shard
// at most once per worker chunk of each pass (shardMapBound). Mapped shard
// pages are deliberately outside the heap accounting — their ceiling is
// assertion (b). Gated behind SMFL_LARGE=1 so the tier-1 -race suite stays
// fast.
func TestLargeNOutOfCore(t *testing.T) {
	if os.Getenv("SMFL_LARGE") == "" {
		t.Skip("set SMFL_LARGE=1 to run the out-of-core smoke")
	}
	const n, m, shardRows = 60000, 40, 2048
	res, err := dataset.Generate(dataset.Spec{
		Name: "OutOfCore", N: n, M: m, L: 2,
		Latents: 5, Bumps: 8, Clusters: 6, Noise: 0.2, Private: 0.3, Seed: 13,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := res.Data.Normalize(); err != nil {
		t.Fatal(err)
	}
	omega, err := dataset.InjectMissing(res.Data, dataset.MissingSpec{Rate: 0.5, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	x := res.Data.X

	cfg := Config{K: 4, Lambda: 0.1, MaxIter: 8, Tol: 1e-15, Seed: 13,
		Updater: SGD, LearningRate: 5e-3, BatchCells: 32768}
	dense, err := Fit(x, omega, res.Data.L, NMF, cfg)
	if err != nil {
		t.Fatal(err)
	}

	dir := filepath.Join(t.TempDir(), "large.smfs")
	if err := store.Write(dir, x, omega, store.WriteOptions{ShardRows: shardRows}); err != nil {
		t.Fatal(err)
	}
	const dataBytes = int64(n * m * 8)
	budget := dataBytes / 4
	st, err := store.Open(dir, store.Config{MemBudget: budget})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	ooc, err := FitSource(st, res.Data.L, NMF, cfg)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)

	if len(ooc.Objective) != len(dense.Objective) {
		t.Fatalf("objective history %d vs %d entries", len(ooc.Objective), len(dense.Objective))
	}
	for i := range dense.Objective {
		if dense.Objective[i] != ooc.Objective[i] {
			t.Fatalf("objective[%d]: dense %v vs out-of-core %v", i, dense.Objective[i], ooc.Objective[i])
		}
	}

	stats := st.Stats()
	shardBytes := int64(0)
	for s := 0; ; s++ {
		fi, err := os.Stat(filepath.Join(dir, store.ShardFileName(s)))
		if err != nil {
			break
		}
		if fi.Size() > shardBytes {
			shardBytes = fi.Size()
		}
	}
	pinSlack := int64(runtime.NumCPU()) * shardBytes
	if stats.PeakResident > budget+pinSlack {
		t.Fatalf("peak shard residency %d exceeds budget %d + pin slack %d", stats.PeakResident, budget, pinSlack)
	}
	if stats.Evictions == 0 {
		t.Fatalf("fit never evicted a shard — the budget did not constrain it: %+v", stats)
	}

	heapGrowth := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	if heapGrowth > dataBytes/2 {
		t.Fatalf("live heap grew %d bytes across the fit (data is %d) — the source fit materialized the data", heapGrowth, dataBytes)
	}
	shards := (n + shardRows - 1) / shardRows
	batches := (omega.Count() + cfg.BatchCells - 1) / cfg.BatchCells
	if bound := shardMapBound(batches, ooc.Iters, shards); stats.ShardMaps > bound {
		t.Fatalf("%d shard maps over %d epochs of %d batches on %d shards, bound %d",
			stats.ShardMaps, ooc.Iters, batches, shards, bound)
	}
	t.Logf("N=%d out-of-core: budget %d, peak resident %d, evictions %d, maps %d, heap growth %d",
		n, budget, stats.PeakResident, stats.Evictions, stats.ShardMaps, heapGrowth)
}
