// Command datagen writes the synthetic paper datasets (and their
// ground-truth cluster labels) to CSV files.
//
// Usage:
//
//	datagen -name Vehicle -scale 0.05 -seed 1 -out vehicle.csv [-labels vehicle_labels.csv]
//	datagen -name all -scale 0.02 -dir ./data
//	datagen -name Lake -scale 1 -shard lake.smfs [-missing 0.3] [-shard-rows 4096]
//
// -shard writes the dataset directly as an out-of-core shard store
// (internal/store) instead of CSV: the table is min-max normalized, -missing
// hides that fraction of cells, and the store records the normalization
// stats so smfl impute -in <store> can map results back to original units.
// Generating straight to shards is how fits larger than RAM get their test
// data — no intermediate CSV of the full table is ever materialized.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"github.com/spatialmf/smfl/internal/atomicfile"
	"github.com/spatialmf/smfl/internal/dataset"
	"github.com/spatialmf/smfl/internal/faultinject"
	"github.com/spatialmf/smfl/internal/store"
)

func main() {
	if err := run(os.Args[1:], os.Stderr); err != nil {
		fatal(err)
	}
}

// run executes datagen; factored out of main for tests.
func run(args []string, stderr io.Writer) error {
	fs := flag.NewFlagSet("datagen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("name", "all", "Economic | Farm | Lake | Vehicle | all")
	scale := fs.Float64("scale", 0.02, "size relative to the paper's datasets")
	seed := fs.Int64("seed", 1, "RNG seed")
	out := fs.String("out", "", "output CSV path (single dataset)")
	labels := fs.String("labels", "", "optional path for ground-truth cluster labels")
	dir := fs.String("dir", ".", "output directory for -name all")
	shard := fs.String("shard", "", "write a normalized shard-store directory instead of (or besides) CSV")
	missing := fs.Float64("missing", 0, "shard store: fraction of cells to hide (0..1)")
	shardRows := fs.Int("shard-rows", 0, "shard store: rows per shard (0 = default 4096)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *name == "all" {
		for _, n := range dataset.PaperDatasets {
			path := filepath.Join(*dir, strings.ToLower(n)+".csv")
			if err := writeOne(n, *scale, *seed, path, ""); err != nil {
				return err
			}
			fmt.Fprintf(stderr, "datagen: wrote %s\n", path)
		}
		return nil
	}
	if *out == "" && *shard == "" {
		return fmt.Errorf("-out or -shard is required for a single dataset")
	}
	if *out != "" {
		if err := writeOne(*name, *scale, *seed, *out, *labels); err != nil {
			return err
		}
	}
	if *shard != "" {
		if err := writeShards(*name, *scale, *seed, *shard, *missing, *shardRows, stderr); err != nil {
			return err
		}
	}
	return nil
}

// writeShards generates the dataset and lays it out as a shard store:
// normalized, with a seeded missing mask, and the normalization stats plus
// column names recorded in the manifest.
func writeShards(name string, scale float64, seed int64, dir string, missing float64, shardRows int, stderr io.Writer) error {
	res, err := dataset.ByName(name, scale, seed)
	if err != nil {
		return err
	}
	mask, err := dataset.InjectMissing(res.Data, dataset.MissingSpec{Rate: missing, Seed: seed})
	if err != nil {
		return err
	}
	nz, err := dataset.FitNormalizer(res.Data.X, mask)
	if err != nil {
		return err
	}
	nz.Apply(res.Data.X)
	if err := store.Write(dir, res.Data.X, mask, store.WriteOptions{
		ShardRows: shardRows, Mins: nz.Mins, Maxs: nz.Maxs, Columns: res.Data.Columns,
	}); err != nil {
		return err
	}
	n, m := res.Data.Dims()
	fmt.Fprintf(stderr, "datagen: wrote %dx%d shard store (%d observed cells) to %s\n",
		n, m, mask.Count(), dir)
	return nil
}

func writeOne(name string, scale float64, seed int64, out, labelsPath string) error {
	res, err := dataset.ByName(name, scale, seed)
	if err != nil {
		return err
	}
	if err := atomicfile.Write(out, 0o666, res.Data.WriteCSV, faultinject.PersistWrite, faultinject.PersistRename, out); err != nil {
		return err
	}
	if labelsPath == "" {
		return nil
	}
	return atomicfile.Write(labelsPath, 0o666, func(w io.Writer) error {
		bw := bufio.NewWriter(w)
		fmt.Fprintln(bw, "row,cluster")
		for i, l := range res.Labels {
			fmt.Fprintf(bw, "%d,%d\n", i, l)
		}
		return bw.Flush()
	}, faultinject.PersistWrite, faultinject.PersistRename, labelsPath)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "datagen: %v\n", err)
	os.Exit(1)
}
