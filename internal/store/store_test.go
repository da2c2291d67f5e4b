package store

import (
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"github.com/spatialmf/smfl/internal/mat"
)

// testProblem builds an n×m nonnegative matrix with a seeded random mask at
// the given observed density.
func testProblem(t testing.TB, n, m int, density float64, seed int64) (*mat.Dense, *mat.Mask) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	x := mat.RandomUniform(rng, n, m, 0, 1)
	mask := mat.NewMask(n, m)
	for i := 0; i < n; i++ {
		for j := 0; j < m; j++ {
			if rng.Float64() < density {
				mask.Observe(i, j)
			}
		}
	}
	return x, mask
}

// writeTestStore writes (x, mask) with the given shard height into a fresh
// temp directory and returns it.
func writeTestStore(t testing.TB, x *mat.Dense, mask *mat.Mask, shardRows int, opts WriteOptions) string {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "data.smfs")
	opts.ShardRows = shardRows
	if err := Write(dir, x, mask, opts); err != nil {
		t.Fatalf("Write: %v", err)
	}
	return dir
}

func TestWriteOpenRoundTrip(t *testing.T) {
	const n, m, shardRows = 53, 9, 7 // ragged final shard
	x, mask := testProblem(t, n, m, 0.6, 1)
	mins := make([]float64, m)
	maxs := make([]float64, m)
	names := make([]string, m)
	for j := 0; j < m; j++ {
		mins[j] = float64(j) * 0.1
		maxs[j] = 1 + float64(j)
		names[j] = string(rune('a' + j))
	}
	dir := writeTestStore(t, x, mask, shardRows, WriteOptions{Mins: mins, Maxs: maxs, Columns: names})

	st, err := Open(dir, Config{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer st.Close()

	if sn, sm := st.Dims(); sn != n || sm != m {
		t.Fatalf("Dims = %dx%d, want %dx%d", sn, sm, n, m)
	}
	if st.NumObserved() != mask.Count() {
		t.Fatalf("NumObserved = %d, want %d", st.NumObserved(), mask.Count())
	}
	indptr := st.RowPtr()
	if len(indptr) != n+1 || indptr[0] != 0 || indptr[n] != mask.Count() {
		t.Fatalf("RowPtr has bad endpoints: len %d, [0]=%d, [n]=%d", len(indptr), indptr[0], indptr[n])
	}
	rd := st.Reader()
	defer rd.Release()
	for i := 0; i < n; i++ {
		xi, cols := rd.Row(i)
		if len(xi) != m {
			t.Fatalf("row %d has %d values", i, len(xi))
		}
		if len(cols) != indptr[i+1]-indptr[i] {
			t.Fatalf("row %d has %d cols, RowPtr says %d", i, len(cols), indptr[i+1]-indptr[i])
		}
		want := 0
		for j := 0; j < m; j++ {
			if mask.Observed(i, j) {
				want++
				found := false
				for _, c := range cols {
					if int(c) == j {
						found = true
					}
				}
				if !found {
					t.Fatalf("row %d missing observed column %d", i, j)
				}
				if xi[j] != x.At(i, j) {
					t.Fatalf("row %d col %d: stored %v, want %v", i, j, xi[j], x.At(i, j))
				}
			} else if xi[j] != 0 {
				t.Fatalf("row %d col %d: unobserved cell stored as %v, want exact 0", i, j, xi[j])
			}
		}
		if want != len(cols) {
			t.Fatalf("row %d: %d observed, %d stored", i, want, len(cols))
		}
	}

	gmins, gmaxs, ok := st.Norm()
	if !ok {
		t.Fatal("Norm stats lost")
	}
	for j := 0; j < m; j++ {
		if gmins[j] != mins[j] || gmaxs[j] != maxs[j] {
			t.Fatalf("norm column %d round-trip mismatch", j)
		}
	}
	if got := st.Columns(); len(got) != m || got[3] != "d" {
		t.Fatalf("column names round-trip mismatch: %v", got)
	}

	// ContentHash: stable across reopen, different for different data.
	st2, err := Open(dir, Config{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if st2.ContentHash() != st.ContentHash() {
		t.Fatal("ContentHash not stable across reopen")
	}
	st2.Close()
	x2 := x.Clone()
	x2.Set(4, 4, x2.At(4, 4)+0.25)
	dir2 := writeTestStore(t, x2, mask, shardRows, WriteOptions{})
	st3, err := Open(dir2, Config{})
	if err != nil {
		t.Fatalf("open modified: %v", err)
	}
	if st3.ContentHash() == st.ContentHash() {
		t.Fatal("ContentHash blind to a data change")
	}
	st3.Close()
}

func TestStoreBudgetEviction(t *testing.T) {
	const n, m, shardRows = 64, 16, 8 // 8 shards
	x, mask := testProblem(t, n, m, 0.5, 2)
	dir := writeTestStore(t, x, mask, shardRows, WriteOptions{})

	shardSize := int64(0)
	for s := 0; ; s++ {
		fi, err := os.Stat(filepath.Join(dir, ShardFileName(s)))
		if err != nil {
			break
		}
		if fi.Size() > shardSize {
			shardSize = fi.Size()
		}
	}

	// Budget of two max shards: a sequential sweep must evict, and a single
	// reader (one pin) must never push residency past the budget.
	st, err := Open(dir, Config{MemBudget: 2 * shardSize})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	rd := st.Reader()
	for i := 0; i < n; i++ {
		rd.Row(i)
	}
	rd.Release()
	stats := st.Stats()
	if stats.Evictions == 0 {
		t.Fatalf("no evictions under a 2-shard budget over 8 shards: %+v", stats)
	}
	if stats.PeakResident > 2*shardSize {
		t.Fatalf("peak resident %d exceeds budget %d with one reader", stats.PeakResident, 2*shardSize)
	}
	if stats.ShardMaps < 8 {
		t.Fatalf("expected at least one map per shard, got %d", stats.ShardMaps)
	}
	st.Close()

	// A generous budget caches every shard: second sweep maps nothing new.
	st, err = Open(dir, Config{MemBudget: 1 << 30})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer st.Close()
	for pass := 0; pass < 2; pass++ {
		rd := st.Reader()
		for i := 0; i < n; i++ {
			rd.Row(i)
		}
		rd.Release()
	}
	stats = st.Stats()
	if stats.Evictions != 0 {
		t.Fatalf("evictions under an unconstrained budget: %+v", stats)
	}
	if stats.ShardMaps != 8 {
		t.Fatalf("warm cache re-mapped shards: %d maps for 8 shards", stats.ShardMaps)
	}
}

// TestStoreConcurrentReaders drives many goroutine-local readers over a
// budget that forces constant eviction pressure (run under -race): pinned
// shards must never be unmapped underneath a reader.
func TestStoreConcurrentReaders(t *testing.T) {
	const n, m, shardRows = 96, 12, 8
	x, mask := testProblem(t, n, m, 0.5, 3)
	dir := writeTestStore(t, x, mask, shardRows, WriteOptions{})
	st, err := Open(dir, Config{MemBudget: 1}) // every unpinned shard is evictable
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer st.Close()

	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rd := st.Reader()
			defer rd.Release()
			for rep := 0; rep < 3; rep++ {
				for i := 0; i < n; i++ {
					row := (i*7 + g*13) % n // stride so goroutines disagree on shards
					xi, cols := rd.Row(row)
					for _, j := range cols {
						if xi[j] != x.At(row, int(j)) {
							errs <- "reader observed wrong value"
							return
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

func TestOpenRejectsCorruption(t *testing.T) {
	const n, m, shardRows = 40, 6, 8
	build := func(t *testing.T) string {
		x, mask := testProblem(t, n, m, 0.7, 4)
		return writeTestStore(t, x, mask, shardRows, WriteOptions{})
	}
	mustFail := func(t *testing.T, dir, what string) {
		t.Helper()
		if st, err := Open(dir, Config{}); err == nil {
			st.Close()
			t.Fatalf("Open accepted %s", what)
		}
	}

	t.Run("truncated shard", func(t *testing.T) {
		dir := build(t)
		p := filepath.Join(dir, ShardFileName(2))
		b, _ := os.ReadFile(p)
		os.WriteFile(p, b[:len(b)-5], 0o644)
		mustFail(t, dir, "a truncated shard")
	})
	t.Run("bit-flipped shard", func(t *testing.T) {
		dir := build(t)
		p := filepath.Join(dir, ShardFileName(1))
		b, _ := os.ReadFile(p)
		b[len(b)/2] ^= 0x01
		os.WriteFile(p, b, 0o644)
		mustFail(t, dir, "a corrupted shard")
	})
	t.Run("missing shard", func(t *testing.T) {
		dir := build(t)
		os.Remove(filepath.Join(dir, ShardFileName(3)))
		mustFail(t, dir, "a missing shard")
	})
	t.Run("swapped shards", func(t *testing.T) {
		dir := build(t)
		a := filepath.Join(dir, ShardFileName(0))
		b := filepath.Join(dir, ShardFileName(1))
		tmp := filepath.Join(dir, "swap")
		os.Rename(a, tmp)
		os.Rename(b, a)
		os.Rename(tmp, b)
		mustFail(t, dir, "swapped shard files")
	})
	t.Run("truncated manifest", func(t *testing.T) {
		dir := build(t)
		p := filepath.Join(dir, ManifestName)
		b, _ := os.ReadFile(p)
		os.WriteFile(p, b[:len(b)-3], 0o644)
		mustFail(t, dir, "a truncated manifest")
	})
	t.Run("bit-flipped manifest", func(t *testing.T) {
		dir := build(t)
		p := filepath.Join(dir, ManifestName)
		b, _ := os.ReadFile(p)
		b[20] ^= 0xff
		os.WriteFile(p, b, 0o644)
		mustFail(t, dir, "a corrupted manifest")
	})
	t.Run("missing manifest", func(t *testing.T) {
		dir := build(t)
		os.Remove(filepath.Join(dir, ManifestName))
		mustFail(t, dir, "a directory with no manifest")
	})
}

func TestWriteRejectsBadInput(t *testing.T) {
	x, mask := testProblem(t, 10, 4, 0.8, 5)
	dir := t.TempDir()

	bad := x.Clone()
	bad.Set(2, 2, -0.5)
	// Ensure the poisoned cell is observed so the writer must see it.
	mask.Observe(2, 2)
	if err := Write(filepath.Join(dir, "neg"), bad, mask, WriteOptions{}); err == nil {
		t.Fatal("Write accepted a negative observed value")
	}
	bad.Set(2, 2, math.NaN())
	if err := Write(filepath.Join(dir, "nan"), bad, mask, WriteOptions{}); err == nil {
		t.Fatal("Write accepted a NaN observed value")
	}
	wrongMask := mat.NewMask(9, 4)
	if err := Write(filepath.Join(dir, "shape"), x, wrongMask, WriteOptions{}); err == nil {
		t.Fatal("Write accepted a mask shape mismatch")
	}
	if err := Write(filepath.Join(dir, "norm"), x, mask, WriteOptions{Mins: []float64{0}, Maxs: []float64{1}}); err == nil {
		t.Fatal("Write accepted short normalization stats")
	}
	if err := Write(filepath.Join(dir, "cols"), x, mask, WriteOptions{Columns: []string{"a"}}); err == nil {
		t.Fatal("Write accepted short column names")
	}
}

func TestParseMemBudget(t *testing.T) {
	cases := map[string]int64{
		"1024":   1024,
		"64MiB":  64 << 20,
		"2G":     2 << 30,
		"16KiB":  16 << 10,
		" 8MiB ": 8 << 20,
	}
	for in, want := range cases {
		got, err := ParseMemBudget(in)
		if err != nil || got != want {
			t.Fatalf("ParseMemBudget(%q) = %d, %v; want %d", in, got, err, want)
		}
	}
	for _, bad := range []string{"", "-5", "0", "1TiB+", "abc", "1.5G",
		"17179869185G", // v·mult wraps to exactly 1 GiB
		"8589934592G",  // v·mult wraps to math.MinInt64
	} {
		if _, err := ParseMemBudget(bad); err == nil {
			t.Fatalf("ParseMemBudget(%q) accepted", bad)
		}
	}
}
