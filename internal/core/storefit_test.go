package core

// Storage-equivalence suite: a fit that streams rows from the out-of-core
// shard store must be Float64bits-identical to the in-memory fit of the same
// data — same factors, same objective history — for every method × stochastic
// updater combination, including checkpoint resume. The store is opened with
// a deliberately tiny memory budget and small shards so every epoch churns
// the LRU: bit-identity must survive constant mapping and eviction.

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"github.com/spatialmf/smfl/internal/mat"
	"github.com/spatialmf/smfl/internal/store"
)

var _ DataSource = (*store.Store)(nil)

// storeFor lays (x, omega) out as a multi-shard store and opens it with a
// budget small enough to force eviction during training.
func storeFor(t *testing.T, x *mat.Dense, omega *mat.Mask) *store.Store {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "data.smfs")
	if err := store.Write(dir, x, omega, store.WriteOptions{ShardRows: 16}); err != nil {
		t.Fatalf("store.Write: %v", err)
	}
	st, err := store.Open(dir, store.Config{MemBudget: 4096}) // ~3 of the 8 shards
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// stochStoreCfg is the shared stochastic configuration for the equivalence
// grid, mirroring the resume tests.
func stochStoreCfg(u Updater) Config {
	cfg := quickCfg(4)
	cfg.MaxIter = 25
	cfg.Tol = 1e-12
	cfg.Updater = u
	cfg.LearningRate = 5e-3
	cfg.BatchCells = 64
	return cfg
}

func TestStoreFitBitIdenticalToDense(t *testing.T) {
	x, omega, l := testProblem(t, 120, 9)
	for _, method := range []Method{NMF, SMF, SMFL} {
		for _, updater := range []Updater{SGD, SVRG} {
			t.Run(fmt.Sprintf("%v-%v", method, updater), func(t *testing.T) {
				cfg := stochStoreCfg(updater)
				dense, err := Fit(x, omega, l, method, cfg)
				if err != nil {
					t.Fatal(err)
				}
				st := storeFor(t, x, omega)
				ooc, err := FitSource(st, l, method, cfg)
				if err != nil {
					t.Fatal(err)
				}
				bitsEqual(t, "U", dense.U, ooc.U)
				bitsEqual(t, "V", dense.V, ooc.V)
				if len(dense.Objective) != len(ooc.Objective) {
					t.Fatalf("objective history %d vs %d entries", len(dense.Objective), len(ooc.Objective))
				}
				for i := range dense.Objective {
					if dense.Objective[i] != ooc.Objective[i] {
						t.Fatalf("objective[%d]: %v vs %v", i, dense.Objective[i], ooc.Objective[i])
					}
				}
				if dense.Converged != ooc.Converged || dense.Iters != ooc.Iters {
					t.Fatalf("dense: %d iters converged=%v, store: %d iters converged=%v",
						dense.Iters, dense.Converged, ooc.Iters, ooc.Converged)
				}
				if stats := st.Stats(); stats.Evictions == 0 {
					t.Fatalf("budget never forced an eviction — the test exercised no LRU churn: %+v", stats)
				}
			})
		}
	}
}

// TestStoreResumeBitIdentical is TestResumeBitIdenticalTrajectory over the
// shard store: a source-backed fit stopped mid-run and resumed from its
// checkpoint must land exactly on the uninterrupted dense trajectory.
func TestStoreResumeBitIdentical(t *testing.T) {
	x, omega, l := testProblem(t, 120, 10)
	for _, tc := range []struct {
		method  Method
		updater Updater
	}{
		{NMF, SGD},
		{SMFL, SGD},
		{SMF, SVRG},
		{SMFL, SVRG},
	} {
		t.Run(fmt.Sprintf("%v-%v", tc.method, tc.updater), func(t *testing.T) {
			cfg := stochStoreCfg(tc.updater)
			full, err := Fit(x, omega, l, tc.method, cfg)
			if err != nil {
				t.Fatal(err)
			}

			st := storeFor(t, x, omega)
			ckpt := filepath.Join(t.TempDir(), "fit.ckpt")
			short := cfg
			short.MaxIter = 17 // off the checkpoint cadence
			short.CheckpointPath = ckpt
			short.CheckpointEvery = 5
			if _, err := FitSource(st, l, tc.method, short); err != nil {
				t.Fatal(err)
			}

			resumed, err := ResumeFitSource(ckpt, st, &ResumeOptions{MaxIter: cfg.MaxIter})
			if err != nil {
				t.Fatal(err)
			}
			if resumed.Partial {
				t.Fatal("resumed model still tagged partial")
			}
			if resumed.Iters != full.Iters || resumed.Converged != full.Converged {
				t.Fatalf("resumed: %d iters converged=%v, dense uninterrupted: %d iters converged=%v",
					resumed.Iters, resumed.Converged, full.Iters, full.Converged)
			}
			bitsEqual(t, "U", full.U, resumed.U)
			bitsEqual(t, "V", full.V, resumed.V)
			for i := range full.Objective {
				if full.Objective[i] != resumed.Objective[i] {
					t.Fatalf("objective[%d]: %v vs %v", i, full.Objective[i], resumed.Objective[i])
				}
			}
		})
	}
}

// TestStoreResumeRejectsMismatch pins down the checkpoint-binding rules: a
// source checkpoint refuses different data, and the dense and source hash
// streams are disjoint so checkpoints can never cross storage backends.
func TestStoreResumeRejectsMismatch(t *testing.T) {
	x, omega, l := testProblem(t, 100, 11)
	cfg := stochStoreCfg(SGD)
	cfg.MaxIter = 8
	cfg.CheckpointEvery = 3

	st := storeFor(t, x, omega)
	srcCkpt := filepath.Join(t.TempDir(), "src.ckpt")
	srcCfg := cfg
	srcCfg.CheckpointPath = srcCkpt
	if _, err := FitSource(st, l, SMFL, srcCfg); err != nil {
		t.Fatal(err)
	}

	t.Run("different data refused", func(t *testing.T) {
		x2 := x.Clone()
		x2.Set(3, 3, x2.At(3, 3)*0.5)
		st2 := storeFor(t, x2, omega)
		if _, err := ResumeFitSource(srcCkpt, st2, nil); err == nil {
			t.Fatal("resume accepted a store with different contents")
		}
	})
	t.Run("dense resume of source checkpoint refused", func(t *testing.T) {
		if _, err := ResumeFit(srcCkpt, x, omega, nil); err == nil {
			t.Fatal("ResumeFit accepted a source-backed checkpoint")
		}
	})
	t.Run("source resume of dense checkpoint refused", func(t *testing.T) {
		denseCkpt := filepath.Join(t.TempDir(), "dense.ckpt")
		denseCfg := cfg
		denseCfg.CheckpointPath = denseCkpt
		if _, err := Fit(x, omega, l, SMFL, denseCfg); err != nil {
			t.Fatal(err)
		}
		if _, err := ResumeFitSource(denseCkpt, st, nil); err == nil {
			t.Fatal("ResumeFitSource accepted an in-memory checkpoint")
		}
	})
}

// shardMapBound is the most shard maps a source fit may make when every
// pass over the store reads rows in ascending order: a pass pins each shard
// at most once per worker chunk, and adjacent chunks share at most one
// shard, so it maps at most shards+workers−1. An epoch makes one pass per
// batch plus the objective pass, and the SI fill adds one.
func shardMapBound(batches, epochs, shards int) int64 {
	return int64(((batches+1)*epochs + 1) * (shards + mat.Workers() - 1))
}

// TestStoreFitShardMapsBounded: with the shard cache holding about a quarter
// of the store, a stochastic fit must map each shard once per pass, not once
// per sampled row — the sampler hands every batch its rows in ascending
// order.
func TestStoreFitShardMapsBounded(t *testing.T) {
	const n, shardRows = 2000, 100
	x, omega, l := testProblem(t, n, 3)
	dir := filepath.Join(t.TempDir(), "data.smfs")
	if err := store.Write(dir, x, omega, store.WriteOptions{ShardRows: shardRows}); err != nil {
		t.Fatalf("store.Write: %v", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var storeBytes int64
	for _, e := range entries {
		fi, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		storeBytes += fi.Size()
	}
	st, err := store.Open(dir, store.Config{MemBudget: storeBytes / 4})
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	defer st.Close()

	cfg := quickCfg(4)
	cfg.MaxIter = 5
	cfg.Updater = SGD
	cfg.LearningRate = 5e-3
	cfg.BatchCells = omega.Count() / 4
	model, err := FitSource(st, l, SMFL, cfg)
	if err != nil {
		t.Fatal(err)
	}
	shards := (n + shardRows - 1) / shardRows
	batches := (omega.Count() + cfg.BatchCells - 1) / cfg.BatchCells
	bound := shardMapBound(batches, model.Iters, shards)
	stats := st.Stats()
	if stats.Evictions == 0 {
		t.Fatalf("budget never forced an eviction — the test exercised no LRU churn: %+v", stats)
	}
	if stats.ShardMaps > bound {
		t.Fatalf("%d shard maps over %d epochs of %d batches on %d shards, bound %d",
			stats.ShardMaps, model.Iters, batches, shards, bound)
	}
}

func TestFitSourceRejectsFullSweepUpdaters(t *testing.T) {
	x, omega, l := testProblem(t, 80, 12)
	st := storeFor(t, x, omega)
	for _, u := range []Updater{Multiplicative, GradientDescent} {
		cfg := quickCfg(4)
		cfg.Updater = u
		cfg.LearningRate = 5e-3
		if _, err := FitSource(st, l, SMFL, cfg); err == nil {
			t.Fatalf("FitSource accepted the full-sweep %v updater", u)
		}
	}
}

// TestFitSourceRejectsSIWidthOutOfRange: an SI width beyond the column
// count must be refused up front for every method, not panic inside the SI
// fill (SMF) or train a model that Load later refuses (NMF).
func TestFitSourceRejectsSIWidthOutOfRange(t *testing.T) {
	x, omega, _ := testProblem(t, 80, 14)
	st := storeFor(t, x, omega)
	_, m := st.Dims()
	for _, tc := range []struct {
		method Method
		l      int
	}{{SMF, m + 2}, {NMF, m + 5}, {NMF, -1}} {
		cfg := stochStoreCfg(SGD)
		if _, err := FitSource(st, tc.l, tc.method, cfg); err == nil {
			t.Fatalf("FitSource accepted %v with SI width %d on %d columns", tc.method, tc.l, m)
		}
	}
}
