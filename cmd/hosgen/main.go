// Command hosgen generates the reproduction's datasets as CSV:
// synthetic clustered data with planted subspace outliers, uniform
// noise, or the pseudo-real scenarios (athlete / medical / nba).
//
// Usage:
//
//	hosgen -type synthetic -n 2000 -d 10 -outliers 5 -seed 1 \
//	       -out data.csv -truth truth.csv
//
// The truth file maps each planted outlier's row index to its true
// outlying subspace, e.g. "0,[2,7]". Generated CSVs feed hosminer
// (one-shot queries) and hosserve (the HTTP query service) directly.
// -save writes the dataset as a checksummed dataset-only snapshot
// instead (provenance pinned), loadable by hosminer -load and
// hosserve's POST /datasets/load {"file": ...}.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/datagen"
	"repro/internal/dataio"
	"repro/internal/snapshot"
	"repro/internal/vector"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "hosgen:", err)
		os.Exit(1)
	}
}

// run is the testable entry point: parses args, writes dataset CSV to
// stdout (or -out) and optional ground truth to -truth.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("hosgen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() {
		fmt.Fprintln(stderr, "hosgen — generate HOS-Miner datasets (synthetic / uniform / pseudo-real) as CSV.")
		fmt.Fprintln(stderr, "See also: hosminer (one-shot queries), hosbench (experiments), hosserve (HTTP query service).")
		fmt.Fprintln(stderr, "Flags:")
		fs.PrintDefaults()
	}
	var (
		typ       = fs.String("type", "synthetic", "dataset type: synthetic|uniform|athlete|medical|nba")
		n         = fs.Int("n", 1000, "number of points")
		d         = fs.Int("d", 8, "dimensionality (synthetic/uniform only)")
		outliers  = fs.Int("outliers", 5, "planted outliers / deviants")
		subDim    = fs.Int("subdim", 2, "cardinality of planted outlying subspaces (synthetic)")
		clusters  = fs.Int("clusters", 3, "number of clusters (synthetic)")
		seed      = fs.Int64("seed", 1, "random seed")
		out       = fs.String("out", "", "output CSV path (default stdout)")
		truthPath = fs.String("truth", "", "optional ground-truth CSV path")
		savePath  = fs.String("save", "", "also write a dataset-only .snap snapshot (checksummed binary with generator provenance; loadable by hosminer -load, hosserve /datasets/load)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	ds, truth, err := generate(*typ, *n, *d, *outliers, *subDim, *clusters, *seed)
	if err != nil {
		return err
	}

	if *savePath != "" {
		name := strings.TrimSuffix(filepath.Base(*savePath), ".snap")
		snap, err := snapshot.FromDataset(name, snapshot.Provenance{Generator: *typ, Seed: *seed}, ds)
		if err != nil {
			return err
		}
		if err := snapshot.SaveFile(*savePath, snap); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "wrote snapshot %s (%d points x %d dims, seed %d)\n",
			*savePath, ds.N(), ds.Dim(), *seed)
		if *out == "" && *truthPath == "" {
			// -save alone: don't also dump CSV to stdout.
			return nil
		}
	}

	if *out == "" {
		if err := dataio.WriteCSV(stdout, ds, true); err != nil {
			return err
		}
	} else if err := dataio.SaveFile(*out, ds); err != nil {
		return err
	}

	if *truthPath != "" {
		f, err := os.Create(*truthPath)
		if err != nil {
			return err
		}
		defer f.Close()
		fmt.Fprintln(f, "index,subspace")
		for _, o := range truth.Outliers {
			fmt.Fprintf(f, "%d,%q\n", o.Index, o.Subspace.String())
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	if *out != "" {
		fmt.Fprintf(stderr, "wrote %d points x %d dims to %s (%d planted)\n",
			ds.N(), ds.Dim(), *out, len(truth.Outliers))
	}
	return nil
}

func generate(typ string, n, d, outliers, subDim, clusters int, seed int64) (*vector.Dataset, datagen.GroundTruth, error) {
	return datagen.ByName(typ, datagen.NamedConfig{
		N: n, D: d, Planted: outliers, SubspaceDim: subDim, Clusters: clusters, Seed: seed,
	})
}
