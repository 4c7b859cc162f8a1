// Command hosminer is the interactive front-end of the reproduction —
// the "prototype" of the paper's demo plan, part 4. It loads a CSV
// dataset, preprocesses (X-tree indexing + sample-based learning) and
// answers outlying-subspace queries for dataset rows or external
// points, or scans the entire dataset for points with non-empty
// answer sets.
//
// Usage:
//
//	hosminer -data data.csv -k 5 -tq 0.95 -samples 20 -index 0
//	hosminer -data data.csv -k 5 -t 12.5 -point "1.0,2.0,0.3"
//	hosminer -data data.csv -k 5 -tq 0.95 -batch "0,3,17,3"
//	hosminer -data data.csv -k 5 -tq 0.99 -scan -top 10 -progress
//	hosminer -data data.csv -k 5 -tq 0.95 -save mined.snap
//	hosminer -load mined.snap -index 0   # warm: no rebuild, no relearning
//
// A -point is given in the dataset's raw units: under -normalize (or
// after -load of a normalized snapshot) it is rescaled with the same
// column ranges as the data. Output lists the minimal outlying
// subspaces with resolved column names, plus search-cost accounting.
// For a long-lived process that preprocesses once and answers many
// concurrent queries over HTTP, use hosserve instead.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/dataio"
	"repro/internal/shard"
	"repro/internal/snapshot"
	"repro/internal/subspace"
	"repro/internal/vector"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "hosminer:", err)
		os.Exit(1)
	}
}

// run is the testable entry point.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("hosminer", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() {
		fmt.Fprintln(stderr, "hosminer — one-shot outlying-subspace queries and scans over a CSV dataset.")
		fmt.Fprintln(stderr, "See also: hosgen (datasets), hosbench (experiments), hosserve (HTTP query service).")
		fmt.Fprintln(stderr, "Flags:")
		fs.PrintDefaults()
	}
	var (
		dataPath  = fs.String("data", "", "CSV dataset path (required)")
		k         = fs.Int("k", 5, "neighbourhood size of the OD measure")
		tAbs      = fs.Float64("t", 0, "absolute OD threshold T (use -t or -tq)")
		tq        = fs.Float64("tq", 0, "threshold as a quantile of full-space ODs, e.g. 0.95")
		samples   = fs.Int("samples", 0, "sample size for the learning phase (0 = uniform priors, recommended)")
		seed      = fs.Int64("seed", 1, "random seed")
		index     = fs.Int("index", -1, "query dataset row by index")
		pointStr  = fs.String("point", "", "query an external point: comma-separated values")
		scan      = fs.Bool("scan", false, "scan every dataset point for outlying subspaces")
		batch     = fs.String("batch", "", "query many dataset rows as one batch: comma-separated indices (a repeated index is evaluated once)")
		batchW    = fs.Int("batch-workers", 0, "with -batch: evaluation fan-out (0 = GOMAXPROCS)")
		top       = fs.Int("top", 10, "with -scan: report the top-N points by severity")
		scanW     = fs.Int("scan-workers", 0, "with -scan: worker fan-out (0 = GOMAXPROCS)")
		progress  = fs.Bool("progress", false, "with -scan: live points-evaluated progress on stderr")
		backend   = fs.String("backend", "auto", "k-NN backend: auto|linear|xtree")
		shards    = fs.Int("shards", 0, "partition the dataset across N scatter-gather shards (0 = single index)")
		partition = fs.String("partitioner", "roundrobin", "with -shards: row assignment, roundrobin|hash")
		policy    = fs.String("policy", "tsf", "search order: tsf|bottomup|topdown|random")
		normalize = fs.Bool("normalize", false, "min-max normalize columns before mining")
		showAll   = fs.Bool("all", false, "also print the full (unfiltered) outlying set size")
		maxPrint  = fs.Int("max-print", 25, "max minimal subspaces to print")
		loadSnap  = fs.String("load", "", "load a .snap snapshot instead of -data: a full snapshot restores dataset+config+state+index wholesale; a dataset-only snapshot supplies just the data")
		saveSnap  = fs.String("save", "", "after preprocessing, save a full snapshot (dataset+config+state+index) to this .snap file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	// set lists the flags given explicitly: a full snapshot refuses
	// every miner parameter among them, defaults included.
	var set []string
	fs.Visit(func(f *flag.Flag) { set = append(set, f.Name) })

	// Every source becomes a snapshot: a -load file as stored, a CSV
	// as a dataset-only snapshot that records its path.
	var snap *snapshot.Snapshot
	var err error
	switch {
	case *dataPath != "" && *loadSnap != "":
		return fmt.Errorf("use either -data or -load, not both")
	case *loadSnap != "":
		snap, err = snapshot.LoadFile(*loadSnap)
	case *dataPath != "":
		var raw *vector.Dataset
		if raw, err = dataio.LoadFile(*dataPath); err == nil {
			snap, err = snapshot.FromDataset(*dataPath, snapshot.Provenance{Source: *dataPath}, raw)
		}
	default:
		return fmt.Errorf("-data (CSV) or -load (snapshot) is required")
	}
	if err != nil {
		return err
	}
	if *normalize {
		if err := snap.Normalize(); err != nil {
			return err
		}
	}
	cfg := core.Config{K: *k, T: *tAbs, TQuantile: *tq, SampleSize: *samples, Seed: *seed, Shards: *shards}
	if cfg.Backend, err = core.ParseBackend(*backend); err != nil {
		return err
	}
	if cfg.Policy, err = core.ParsePolicy(*policy); err != nil {
		return err
	}
	if cfg.Partitioner, err = shard.ParsePartitioner(*partition); err != nil {
		return err
	}
	m, err := snap.Miner(cfg, set)
	if err != nil {
		return err
	}
	if snap.HasState() {
		fmt.Fprintf(stderr, "restored snapshot %s (no index build, no learning)\n", *loadSnap)
	}
	if *saveSnap != "" {
		// The saved snapshot keeps the opened one's provenance and
		// normalization ranges.
		out, err := snapshot.Capture(strings.TrimSuffix(filepath.Base(*saveSnap), ".snap"), snap.Provenance, m)
		if err != nil {
			return err
		}
		out.NormStats = snap.NormStats
		if err := snapshot.SaveFile(*saveSnap, out); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "saved snapshot to %s\n", *saveSnap)
	}
	ds := snap.Dataset
	fmt.Fprintf(stdout, "dataset: %d points x %d dims; T = %.4g; backend = %s\n",
		ds.N(), ds.Dim(), m.Threshold(), m.Config().Backend)
	if e := m.ShardEngine(); e != nil {
		fmt.Fprintf(stdout, "sharding: %d shards (%s partitioner), sizes %v\n",
			e.NumShards(), e.Config().Partitioner, e.ShardSizes())
	}
	if ls := m.LearnStats(); ls.Samples > 0 {
		fmt.Fprintf(stdout, "learning: %d samples, %d OD evaluations\n", ls.Samples, ls.ODEvaluations)
	}

	if *scan {
		return runScan(stdout, stderr, ds, m, *top, *scanW, *progress)
	}
	if *batch != "" {
		return runBatch(stdout, ds, m, *batch, *batchW)
	}

	var res *core.QueryResult
	switch {
	case *index >= 0 && *pointStr != "":
		return fmt.Errorf("use either -index or -point, not both")
	case *index >= 0:
		res, err = m.OutlyingSubspacesOfPoint(*index)
	case *pointStr != "":
		point, perr := parsePoint(*pointStr, ds.Dim())
		if perr != nil {
			return perr
		}
		if snap.NormStats != nil {
			point = snapshot.ScalePoint(snap.NormStats, point)
		}
		res, err = m.OutlyingSubspaces(point)
	default:
		return fmt.Errorf("provide a query: -index N, -point \"v1,v2,...\", -batch \"i,j,...\", or -scan")
	}
	if err != nil {
		return err
	}

	printResult(stdout, ds, res, *showAll, *maxPrint)
	return nil
}

func runScan(w, errw io.Writer, ds *vector.Dataset, m *core.Miner, top, workers int, progress bool) error {
	// The answers do not depend on the worker count; only wall time does.
	opts := core.ScanOptions{SortBySeverity: true, MaxResults: top, Workers: workers}
	if progress {
		opts.OnProgress = progressPrinter(errw)
	}
	hits, err := m.ScanAll(context.Background(), opts)
	if progress {
		// Terminate the \r display before anything else writes to
		// stderr — including the error report below.
		fmt.Fprintln(errw)
	}
	if err != nil {
		return err
	}
	if len(hits) == 0 {
		fmt.Fprintln(w, "no point is an outlier in any subspace at this threshold")
		return nil
	}
	fmt.Fprintf(w, "top %d outlying points (by full-space OD):\n", len(hits))
	for _, h := range hits {
		var subs []string
		for i, s := range h.Minimal {
			if i >= 4 {
				subs = append(subs, fmt.Sprintf("+%d more", len(h.Minimal)-4))
				break
			}
			subs = append(subs, describeSubspace(ds, s))
		}
		fmt.Fprintf(w, "  #%-5d OD=%-9.4g outlying in %d subspaces; minimal: %s\n",
			h.Index, h.FullSpaceOD, h.OutlyingCount, strings.Join(subs, "; "))
	}
	return nil
}

// progressPrinter renders a scan's points-evaluated progress as an
// in-place stderr line, printing each whole percent at most once.
// Scan workers report concurrently and may deliver out of order; the
// mutex keeps the display monotonic and the writes unscrambled, and
// is cheap next to the lattice sweep each report represents.
func progressPrinter(errw io.Writer) func(done, total int) {
	var mu sync.Mutex
	last := -1
	return func(done, total int) {
		pct := 0
		if total > 0 {
			pct = done * 100 / total
		}
		mu.Lock()
		if pct > last {
			last = pct
			fmt.Fprintf(errw, "\rscanning: %3d%% (%d/%d points)", pct, done, total)
		}
		mu.Unlock()
	}
}

// runBatch evaluates a comma-separated index list through the batch
// engine, which evaluates a repeated index once.
func runBatch(w io.Writer, ds *vector.Dataset, m *core.Miner, spec string, workers int) error {
	parts := strings.Split(spec, ",")
	indices := make([]int, 0, len(parts))
	queries := make([]core.BatchQuery, 0, len(parts))
	for _, p := range parts {
		idx, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return fmt.Errorf("-batch index %q: %w", p, err)
		}
		indices = append(indices, idx)
		queries = append(queries, core.BatchIndex(idx))
	}
	res, err := m.QueryBatch(context.Background(), queries, core.BatchOptions{Workers: workers})
	if err != nil {
		return err
	}
	for i, item := range res.Items {
		if item.Err != nil {
			fmt.Fprintf(w, "#%-5d error: %v\n", indices[i], item.Err)
			continue
		}
		r := item.Result
		if !r.IsOutlierAnywhere {
			fmt.Fprintf(w, "#%-5d not an outlier in any subspace\n", indices[i])
			continue
		}
		var subs []string
		for j, s := range r.Minimal {
			if j >= 4 {
				subs = append(subs, fmt.Sprintf("+%d more", len(r.Minimal)-4))
				break
			}
			subs = append(subs, describeSubspace(ds, s))
		}
		fmt.Fprintf(w, "#%-5d outlying in %d subspaces; minimal: %s\n",
			indices[i], len(r.Outlying), strings.Join(subs, "; "))
	}
	fmt.Fprintf(w, "batch: %d ok, %d failed\n", res.Succeeded, res.Failed)
	return nil
}

func parsePoint(s string, d int) ([]float64, error) {
	parts := strings.Split(s, ",")
	if len(parts) != d {
		return nil, fmt.Errorf("point has %d values, dataset dimensionality is %d", len(parts), d)
	}
	out := make([]float64, d)
	for i, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("value %d: %w", i+1, err)
		}
		out[i] = v
	}
	return out, nil
}

func describeSubspace(ds *vector.Dataset, s subspace.Mask) string {
	names := make([]string, 0, s.Card())
	s.EachDim(func(dim int) { names = append(names, ds.ColumnName(dim)) })
	return fmt.Sprintf("%s{%s}", s.String(), strings.Join(names, ","))
}

func printResult(w io.Writer, ds *vector.Dataset, res *core.QueryResult, showAll bool, maxPrint int) {
	if !res.IsOutlierAnywhere {
		fmt.Fprintln(w, "the point is not an outlier in any subspace")
		return
	}
	fmt.Fprintf(w, "minimal outlying subspaces (%d):\n", len(res.Minimal))
	for i, s := range res.Minimal {
		if i >= maxPrint {
			fmt.Fprintf(w, "  ... and %d more\n", len(res.Minimal)-maxPrint)
			break
		}
		fmt.Fprintf(w, "  %s\n", describeSubspace(ds, s))
	}
	if showAll {
		fmt.Fprintf(w, "full outlying set: %d subspaces (of %d in the lattice)\n",
			len(res.Outlying), res.Counters.Total)
	}
	fmt.Fprintf(w, "search cost: %d OD evaluations; %d settled by upward pruning, %d by downward pruning\n",
		res.Counters.Evaluations, res.Counters.ImpliedUp, res.Counters.ImpliedDown)
}
