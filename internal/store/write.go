package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"os"
	"path/filepath"

	"github.com/spatialmf/smfl/internal/atomicfile"
	"github.com/spatialmf/smfl/internal/faultinject"
	"github.com/spatialmf/smfl/internal/mat"
)

// DefaultShardRows is the rows-per-shard default: at the 1M×50 benchmark
// shape one shard is ~1.6 MiB of values, large enough to amortize map calls
// and small enough that a handful fit any sane budget.
const DefaultShardRows = 4096

// ShardFault is the payload delivered at the faultinject ShardWrite /
// ShardRename / ManifestWrite points.
type ShardFault struct {
	Path string
}

// WriteOptions carries the optional metadata recorded alongside the data.
type WriteOptions struct {
	// ShardRows is the row count per shard (default DefaultShardRows,
	// clamped to the matrix height).
	ShardRows int
	// Mins/Maxs, when non-nil, are the per-column min-max normalization
	// stats of the stored (already normalized) values, so a fit over the
	// store can invert predictions back to original units without a
	// side-channel file. Both must have length m.
	Mins, Maxs []float64
	// Columns, when non-nil, are the m column names for CSV output.
	Columns []string
}

// Write lays x (restricted to omega; nil means fully observed) out as a
// shard store at dir, creating the directory if needed. Observed entries
// must be finite and nonnegative — the same contract core.Fit enforces — so
// a store that opens is a store that fits. Values at unobserved positions
// are stored as exact zeros regardless of what x holds there.
//
// Each shard is published atomically (temp + fsync + rename + dir fsync)
// and the manifest — which holds every shard's size and content hash — is
// written last. A crash at any instant therefore leaves either no manifest
// (Open refuses the directory) or a manifest whose hashes expose any
// missing or torn shard.
func Write(dir string, x *mat.Dense, omega *mat.Mask, opts WriteOptions) error {
	n, m := x.Dims()
	if n == 0 || m == 0 {
		return errors.New("store: refusing to write an empty matrix")
	}
	if n > maxDim || m > maxDim {
		return fmt.Errorf("store: matrix %dx%d exceeds the format limit", n, m)
	}
	if omega == nil {
		omega = mat.FullMask(n, m)
	}
	if or, oc := omega.Dims(); or != n || oc != m {
		return fmt.Errorf("store: mask shape %dx%d vs data %dx%d", or, oc, n, m)
	}
	if (opts.Mins == nil) != (opts.Maxs == nil) {
		return errors.New("store: normalization stats need both mins and maxs")
	}
	if opts.Mins != nil && (len(opts.Mins) != m || len(opts.Maxs) != m) {
		return fmt.Errorf("store: normalization stats have %d/%d entries for %d columns", len(opts.Mins), len(opts.Maxs), m)
	}
	for j := range opts.Mins {
		if math.IsNaN(opts.Mins[j]) || math.IsInf(opts.Mins[j], 0) ||
			math.IsNaN(opts.Maxs[j]) || math.IsInf(opts.Maxs[j], 0) || opts.Maxs[j] < opts.Mins[j] {
			return fmt.Errorf("store: normalization column %d has invalid range [%v, %v]", j, opts.Mins[j], opts.Maxs[j])
		}
	}
	if opts.Columns != nil && len(opts.Columns) != m {
		return fmt.Errorf("store: %d column names for %d columns", len(opts.Columns), m)
	}
	shardRows := opts.ShardRows
	if shardRows <= 0 {
		shardRows = DefaultShardRows
	}
	if shardRows > n {
		shardRows = n
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}

	nshards := (n + shardRows - 1) / shardRows
	man := &manifest{
		n: n, m: m, shardRows: shardRows,
		shards:  make([]shardMeta, 0, nshards),
		mins:    opts.Mins,
		maxs:    opts.Maxs,
		columns: opts.Columns,
	}
	cols := make([]int32, 0, m)
	for s := 0; s < nshards; s++ {
		lo := s * shardRows
		hi := lo + shardRows
		if hi > n {
			hi = n
		}
		buf, cells, err := encodeShard(x, omega, s, lo, hi, cols)
		if err != nil {
			return err
		}
		h := fnv.New64a()
		h.Write(buf)
		path := filepath.Join(dir, ShardFileName(s))
		write := func(w io.Writer) error {
			_, err := w.Write(buf)
			return err
		}
		if err := atomicfile.Write(path, 0o600, write, faultinject.ShardWrite, faultinject.ShardRename, &ShardFault{Path: path}); err != nil {
			return fmt.Errorf("store: shard %d: %w", s, err)
		}
		man.shards = append(man.shards, shardMeta{lo: lo, hi: hi, cells: cells, size: int64(len(buf)), hash: h.Sum64()})
		man.cells += cells
	}
	path, data := filepath.Join(dir, ManifestName), encodeManifest(man)
	write := func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	}
	if err := atomicfile.Write(path, 0o600, write, faultinject.ManifestWrite, faultinject.ShardRename, &ShardFault{Path: path}); err != nil {
		return fmt.Errorf("store: manifest: %w", err)
	}
	return nil
}

// encodeShard serializes rows [lo, hi) of (x, omega) into a shard image,
// validating the observed values as it goes.
func encodeShard(x *mat.Dense, omega *mat.Mask, index, lo, hi int, colScratch []int32) ([]byte, int, error) {
	_, m := x.Dims()
	rows := hi - lo
	// First pass: per-row observed columns and the cell total.
	indptr := make([]int, rows+1)
	allCols := colScratch[:0]
	for r := 0; r < rows; r++ {
		allCols = omega.AppendObservedCols(allCols, lo+r)
		indptr[r+1] = len(allCols)
	}
	cells := len(allCols)
	size, ok := expectedShardSize(uint64(rows), uint64(m), uint64(cells))
	if !ok {
		return nil, 0, fmt.Errorf("store: shard %d shape overflow", index)
	}
	buf := make([]byte, size)
	h := shardHeader{index: index, lo: lo, hi: hi, m: m, cells: cells}
	encodeShardHeader(buf, h)
	ipOff, valOff, colOff := h.indptrOff(), h.valuesOff(), h.columnsOff()
	for r := 0; r <= rows; r++ {
		binary.LittleEndian.PutUint64(buf[ipOff+r*8:], uint64(indptr[r]))
	}
	for r := 0; r < rows; r++ {
		xi := x.Row(lo + r)
		base := valOff + r*m*8
		for _, j := range allCols[indptr[r]:indptr[r+1]] {
			v := xi[j]
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, 0, fmt.Errorf("store: observed entry (%d,%d) is not finite", lo+r, j)
			}
			if v < 0 {
				return nil, 0, fmt.Errorf("store: observed entry (%d,%d) is negative (min-max normalize first)", lo+r, j)
			}
			binary.LittleEndian.PutUint64(buf[base+int(j)*8:], math.Float64bits(v))
		}
	}
	for c, j := range allCols {
		binary.LittleEndian.PutUint32(buf[colOff+c*4:], uint32(j))
	}
	return buf, cells, nil
}
