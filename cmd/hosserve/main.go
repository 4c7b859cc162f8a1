// Command hosserve exposes HOS-Miner as a long-lived HTTP/JSON
// service: load a dataset once, preprocess once (X-tree indexing,
// threshold resolution, §3.2 learning — or restore all of it from a
// snapshot), and answer concurrent outlying-subspace queries until
// shut down.
//
// Usage:
//
//	hosserve -data data.csv -k 5 -tq 0.95 -addr :8080
//	hosserve -gen synthetic -n 2000 -d 8 -k 5 -tq 0.95
//	hosserve -gen synthetic -n 20000 -d 8 -k 5 -tq 0.95 -shards 4
//	hosserve -gen synthetic -n 20000 -d 8 -k 5 -tq 0.95 -data-dir ./snaps
//	hosserve -data-dir ./snaps   # warm restart: default.snap + background warm start
//
// The startup dataset becomes the registry's "default" entry; more
// datasets can be loaded and evicted at runtime. Endpoints (see
// README.md for a curl transcript):
//
//	POST /query          {"index": 3} or {"point": [..]}, optional "dataset"
//	POST /scan           {"max_results": 10, ...}, optional "dataset";
//	                     runs as a job and waits for it
//	POST /jobs/scan      the same body, answered at once → job id
//	GET  /jobs/{id}      poll job status/progress; DELETE cancels
//	POST /batch          {"items": [...]}, optional "dataset"
//	GET  /datasets       registry listing with shard topology
//	POST /datasets/load  generate (or load from a -data-dir snapshot)
//	                     + preprocess + register a dataset
//	POST /datasets/evict drop a loaded dataset
//	POST /datasets/{name}/save
//	                     persist an entry to <data-dir>/<name>.snap
//	POST /datasets/{name}/append
//	                     stream rows into a serving dataset (new epoch)
//	DELETE /datasets/{name}/rows
//	                     delete rows by stable-ID range or keep_last
//	GET  /datasets/{name}/retention
//	PUT  /datasets/{name}/retention
//	                     read / set the per-dataset retention policy
//	                     ({"max_age": "24h", "max_rows": 100000})
//	POST /datasets/{name}/compact
//	                     fold the dataset's WAL into a fresh snapshot
//	GET  /healthz        liveness + default dataset summary
//	GET  /stats          query counts, cache hits, latency percentiles,
//	                     per-dataset and per-shard counters
//
// The process drains in-flight requests and exits cleanly on SIGINT /
// SIGTERM. See also the batch front-ends: hosminer (one-shot queries),
// hosgen (dataset generation) and hosbench (experiment tables).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"slices"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/dataio"
	"repro/internal/overload"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/snapshot"
	"repro/internal/vector"
	"repro/internal/wal"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "hosserve:", err)
		os.Exit(1)
	}
}

// cliConfig is everything run parses out of the flags.
type cliConfig struct {
	addr      string
	pprofAddr string

	dataPath  string
	gen       string
	n, d      int
	outliers  int
	deviants  int
	normalize bool

	miner    core.Config
	dataDir  string
	debug    bool
	jobDrain time.Duration

	// set lists the flags the operator gave explicitly: restoring a
	// full default.snap refuses every miner parameter among them,
	// defaults included.
	set []string

	srv server.Options
}

// run is the testable entry point: parse flags, build the service,
// then serve until the context delivered by SIGINT/SIGTERM ends.
func run(args []string, stdout, stderr io.Writer) error {
	cc, err := parseFlags(args, stderr)
	if err != nil {
		return err
	}
	srv, ds, m, err := setup(cc, stderr)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "dataset: %d points x %d dims; T = %.4g; backend = %s\n",
		ds.N(), ds.Dim(), m.Threshold(), m.Config().Backend)
	if e := m.ShardEngine(); e != nil {
		fmt.Fprintf(stdout, "sharding: %d shards (%s partitioner), sizes %v\n",
			e.NumShards(), e.Config().Partitioner, e.ShardSizes())
	}

	if cc.pprofAddr != "" {
		stopPprof, err := startPprof(cc.pprofAddr, stdout)
		if err != nil {
			return err
		}
		defer stopPprof()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	return serve(ctx, cc.addr, srv, cc.jobDrain, stdout)
}

// pprofMux is the debug surface served on -pprof-addr: the standard
// net/http/pprof handlers on a mux of their own, so profiling never
// rides on the public API listener and can be bound to localhost
// while the service listens on all interfaces.
func pprofMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// startPprof serves the pprof mux on addr until the returned stop
// function is called. A listen failure is a startup error — an
// operator who asked for profiling must not silently run without it.
func startPprof(addr string, stdout io.Writer) (func(), error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("pprof listener: %w", err)
	}
	s := &http.Server{Handler: pprofMux(), ReadHeaderTimeout: 5 * time.Second}
	go func() { _ = s.Serve(ln) }()
	fmt.Fprintf(stdout, "pprof on http://%s/debug/pprof/\n", ln.Addr())
	return func() { _ = s.Close() }, nil
}

// parseFlags builds a cliConfig from the argument list.
func parseFlags(args []string, stderr io.Writer) (*cliConfig, error) {
	fs := flag.NewFlagSet("hosserve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() {
		fmt.Fprintln(stderr, "hosserve — serve concurrent outlying-subspace queries over HTTP/JSON.")
		fmt.Fprintln(stderr, "Endpoints: POST /query, /batch, /scan, /jobs/scan (async), /datasets/load, /datasets/evict; GET /jobs, /jobs/{id}, /datasets, /healthz, /stats (see README.md).")
		fmt.Fprintln(stderr, "See also: hosminer (one-shot queries), hosgen (datasets), hosbench (experiments).")
		fmt.Fprintln(stderr, "Flags:")
		fs.PrintDefaults()
	}
	var cc cliConfig
	var backend, policy, partitioner, walSync string
	fs.StringVar(&cc.addr, "addr", ":8080", "listen address")
	fs.StringVar(&cc.pprofAddr, "pprof-addr", "", "serve net/http/pprof on this address (e.g. localhost:6060; empty disables)")
	fs.StringVar(&cc.dataPath, "data", "", "CSV dataset path (use -data or -gen)")
	fs.StringVar(&cc.gen, "gen", "", "generate the dataset instead: synthetic|uniform|athlete|medical|nba")
	fs.IntVar(&cc.n, "n", 1000, "with -gen: number of points")
	fs.IntVar(&cc.d, "d", 8, "with -gen synthetic|uniform: dimensionality")
	fs.IntVar(&cc.outliers, "outliers", 5, "with -gen synthetic: planted outliers")
	fs.IntVar(&cc.deviants, "deviants", 5, "with -gen athlete|medical|nba: planted deviants")
	fs.BoolVar(&cc.normalize, "normalize", false, "min-max normalize columns before mining")
	fs.IntVar(&cc.miner.K, "k", 5, "neighbourhood size of the OD measure")
	fs.Float64Var(&cc.miner.T, "t", 0, "absolute OD threshold T (use -t or -tq)")
	fs.Float64Var(&cc.miner.TQuantile, "tq", 0, "threshold as a quantile of full-space ODs, e.g. 0.95")
	fs.IntVar(&cc.miner.SampleSize, "samples", 0, "sample size for the learning phase (0 = uniform priors)")
	fs.Int64Var(&cc.miner.Seed, "seed", 1, "random seed (generation and mining)")
	fs.StringVar(&backend, "backend", "auto", "k-NN backend: auto|linear|xtree")
	fs.IntVar(&cc.miner.Shards, "shards", 0, "partition the dataset across N scatter-gather shards (0 = single index)")
	fs.StringVar(&partitioner, "partitioner", "roundrobin", "with -shards: row assignment, roundrobin|hash")
	fs.StringVar(&policy, "policy", "tsf", "search order: tsf|bottomup|topdown|random")
	fs.StringVar(&cc.dataDir, "data-dir", "", "snapshot directory: warm-start every *.snap in it at boot (background jobs), enable POST /datasets/{name}/save and file loads; with no -data/-gen, serve default.snap from it as the default dataset")
	fs.BoolVar(&cc.srv.WAL, "wal", true, "with -data-dir: write-ahead log live mutations (POST /datasets/{name}/append, DELETE .../rows) beside each snapshot and replay the log on restart")
	fs.StringVar(&walSync, "wal-sync", "batch", "WAL fsync policy: batch (one fsync per coalesced mutation batch, before it is acknowledged; durable through power loss; always is another spelling), or interval=<duration> (time-coalesced; may lose acknowledged mutations inside the window)")
	fs.Int64Var(&cc.srv.WALCompactBytes, "wal-compact-bytes", 0, "auto-compact a dataset's WAL into a fresh snapshot once it exceeds this size (default 4 MiB, negative disables)")
	fs.DurationVar(&cc.srv.RetentionAge, "retention-age", 0, "expire dataset rows older than this via background sweeps (0 disables; override per dataset with PUT /datasets/{name}/retention)")
	fs.IntVar(&cc.srv.RetentionRows, "retention-rows", 0, "cap each dataset's row count, expiring the oldest rows (0 disables; same per-dataset override)")
	fs.DurationVar(&cc.srv.RetentionInterval, "retention-interval", 0, "cadence of the background retention sweeper (default 30s)")
	fs.IntVar(&cc.srv.CacheSize, "cache", 0, "LRU result-cache entries (0 = default 1024, negative disables)")
	fs.DurationVar(&cc.srv.QueryTimeout, "query-timeout", 0, "per-query deadline (default 10s)")
	fs.DurationVar(&cc.srv.ScanTimeout, "scan-timeout", 0, "how long POST /scan waits for its scan job before cancelling it (default 2m)")
	fs.Int64Var(&cc.srv.MaxBodyBytes, "max-body", 0, "request body limit in bytes (default 1 MiB)")
	fs.IntVar(&cc.srv.ScanWorkers, "scan-workers", 0, "scan worker pool size (default GOMAXPROCS)")
	fs.IntVar(&cc.srv.MaxScanResults, "max-scan-results", 0, "cap on hits per /scan (default 1000)")
	fs.IntVar(&cc.srv.Overload.ClassCaps[overload.Interactive], "max-queries", 0, "per-dataset cap on concurrently computing queries (default 4x GOMAXPROCS)")
	fs.IntVar(&cc.srv.MaxDatasets, "max-datasets", 0, "cap on registry size incl. the startup dataset (default 8)")
	fs.IntVar(&cc.srv.JobQueueDepth, "job-queue", 0, "job queue depth; a full queue answers /scan and /jobs/scan with 429 + Retry-After (default 8)")
	fs.IntVar(&cc.srv.JobWorkers, "job-workers", 0, "job worker pool size, shared by every scan, compaction, retention sweep and warm start (default 1)")
	fs.DurationVar(&cc.srv.JobResultTTL, "job-ttl", 0, "retention of finished job results (default 15m)")
	fs.DurationVar(&cc.srv.JobTimeout, "job-timeout", 0, "runaway backstop per scan job (default 30m, negative disables)")
	fs.DurationVar(&cc.jobDrain, "job-drain", 30*time.Second, "on shutdown, how long queued/running jobs may finish before being cancelled")
	fs.DurationVar(&cc.srv.Overload.Window, "breaker-window", 0, "per-dataset circuit-breaker outcome window (default 10s)")
	fs.DurationVar(&cc.srv.Overload.CoolDown, "breaker-cooldown", 0, "how long an open breaker rejects before half-open probing (default 5s)")
	fs.Float64Var(&cc.srv.Overload.FailureRatio, "breaker-ratio", 0, "error+timeout ratio that trips a dataset's breaker (default 0.5)")
	fs.IntVar(&cc.srv.Overload.MinSamples, "breaker-min-samples", 0, "volume floor before a breaker may trip (default 10)")
	fs.IntVar(&cc.srv.Overload.MinLimit, "limit-min", 0, "floor of the per-dataset adaptive concurrency limit (default 1)")
	fs.IntVar(&cc.srv.Overload.MaxLimit, "limit-max", 0, "ceiling of the per-dataset adaptive concurrency limit (default: sum of the class caps)")
	fs.DurationVar(&cc.srv.Overload.TargetP99, "target-p99", 0, "query p99 the AIMD limiter defends per dataset (default query-timeout/2)")
	fs.BoolVar(&cc.debug, "debug", false, "log debug-level serving events (job lifecycle, saves, warm start)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	fs.Visit(func(f *flag.Flag) { cc.set = append(cc.set, f.Name) })
	if cc.gen == "" {
		for _, name := range []string{"n", "d", "outliers", "deviants"} {
			if slices.Contains(cc.set, name) {
				return nil, fmt.Errorf("-%s configures the generator; it needs -gen", name)
			}
		}
	}
	var err error
	if cc.srv.WALSync, err = wal.ParseSyncPolicy(walSync); err != nil {
		return nil, err
	}
	if cc.miner.Backend, err = core.ParseBackend(backend); err != nil {
		return nil, err
	}
	if cc.miner.Policy, err = core.ParsePolicy(policy); err != nil {
		return nil, err
	}
	if cc.miner.Partitioner, err = shard.ParsePartitioner(partitioner); err != nil {
		return nil, err
	}
	return &cc, nil
}

// setup opens the default dataset's source as a snapshot — the -data
// CSV, the -gen generator, or <data-dir>/default.snap when neither is
// given — and turns it into a preprocessed miner with snapshot.Miner:
// restored when default.snap is a full snapshot (the lossless-restart
// path: no regeneration, no re-indexing, no re-learning), mined under
// the flags otherwise. It wraps the miner in a server and warm-starts
// the data dir's other snapshots; stderr receives debug-level serving
// events under -debug.
func setup(cc *cliConfig, stderr io.Writer) (*server.Server, *vector.Dataset, *core.Miner, error) {
	snap, err := source(cc)
	if err == nil && cc.normalize {
		// The server rescales raw-unit ad-hoc points and appended rows
		// with the recorded ranges, and a snapshot of this dataset
		// carries them across a restart.
		err = snap.Normalize()
	}
	var m *core.Miner
	if err == nil {
		m, err = snap.Miner(cc.miner, cc.set)
	}
	if err != nil {
		return nil, nil, nil, err
	}
	if snap.HasState() {
		fmt.Fprintf(stderr, "restored default dataset from %s (no regeneration)\n",
			filepath.Join(cc.dataDir, server.DefaultDatasetName+".snap"))
	}
	cc.srv.DataDir = cc.dataDir
	cc.srv.Provenance, cc.srv.NormStats = snap.Provenance, snap.NormStats
	if cc.debug {
		// The injected stderr, not the process-global logger: run()'s
		// writer-injection contract is what lets tests (and multiple
		// servers in one process) capture their own debug stream.
		cc.srv.Logf = log.New(stderr, "", log.LstdFlags).Printf
	}
	srv, err := server.New(m, cc.srv)
	if err != nil {
		return nil, nil, nil, err
	}
	// Replay the default dataset's delta log over a restored base. Only
	// a full default.snap is a base: after -gen/-data, or over a
	// dataset-only default.snap, the miner is fresh and a lingering
	// default.wal belongs to an earlier dataset. A replay problem
	// degrades to serving the base snapshot with a warning — the deltas
	// are still on disk for a post-mortem.
	if snap.HasState() && cc.srv.WAL {
		switch n, err := srv.AttachDefaultWAL(); {
		case err != nil:
			fmt.Fprintf(stderr, "warning: default dataset WAL not replayed (serving the base snapshot): %v\n", err)
		case n > 0:
			fmt.Fprintf(stderr, "replayed %d WAL record(s) onto the default dataset\n", n)
		}
	}
	warmStart(srv, cc, stderr)
	return srv, snap.Dataset, m, nil
}

// source opens the default dataset's source as a snapshot: a CSV as a
// dataset-only snapshot that records its path, a generator as one that
// records the generator and seed, and default.snap as stored.
func source(cc *cliConfig) (*snapshot.Snapshot, error) {
	switch {
	case cc.dataPath != "" && cc.gen != "":
		return nil, fmt.Errorf("use either -data or -gen, not both")
	case cc.dataPath != "":
		ds, err := dataio.LoadFile(cc.dataPath)
		if err != nil {
			return nil, err
		}
		return snapshot.FromDataset(server.DefaultDatasetName, snapshot.Provenance{Source: cc.dataPath}, ds)
	case cc.gen != "":
		planted := cc.outliers
		if cc.gen != "synthetic" {
			planted = cc.deviants
		}
		return snapshot.Generate(server.DefaultDatasetName, cc.gen, datagen.NamedConfig{
			N: cc.n, D: cc.d, Planted: planted, Seed: cc.miner.Seed,
		})
	case cc.dataDir != "":
		path := filepath.Join(cc.dataDir, server.DefaultDatasetName+".snap")
		if _, err := os.Stat(path); err == nil {
			return snapshot.LoadFile(path)
		}
	}
	return nil, fmt.Errorf("provide a dataset: -data file.csv, -gen synthetic|uniform|athlete|medical|nba, or -data-dir with a default.snap")
}

// warmStart registers the data dir's remaining snapshots as
// background jobs (no-op without -data-dir). A warm-start problem —
// an unreadable directory, a job queue too shallow for the snapshot
// count — degrades to partial warm start with a warning, never a
// failed boot: the already-registered datasets are serving and the
// rest can be loaded by hand, which beats an outage every time a
// stale file accumulates in the directory.
func warmStart(srv *server.Server, cc *cliConfig, stderr io.Writer) {
	if cc.dataDir == "" {
		return
	}
	n, err := srv.WarmStart()
	if err != nil {
		fmt.Fprintf(stderr, "warning: partial warm start from %s (%d submitted): %v — load the rest via POST /datasets/load or raise -job-queue\n", cc.dataDir, n, err)
	}
	if n > 0 {
		fmt.Fprintf(stderr, "warm-starting %d snapshot(s) from %s in the background (progress: GET /jobs)\n", n, cc.dataDir)
	}
}

// serve listens on addr and blocks until ctx is cancelled, then
// drains in-flight requests (15s) and queued async jobs (jobDrain —
// its own budget, since the jobs this subsystem exists for run far
// longer than any HTTP drain window) before returning.
func serve(ctx context.Context, addr string, srv *server.Server, jobDrain time.Duration, stdout io.Writer) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
	}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()
	fmt.Fprintf(stdout, "serving on %s\n", ln.Addr())

	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	fmt.Fprintln(stdout, "shutting down...")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	// Shutdown closes the listener immediately, so no new jobs can
	// arrive even if draining in-flight requests blows the budget
	// (a synchronous scan can legitimately outlive it — ScanTimeout
	// defaults to 2min); the job drain must therefore run regardless
	// of Shutdown's verdict, and on a budget of its own — sharing the
	// HTTP window would hand a drain that waited out a slow request an
	// already-expired context and cancel every job unconditionally.
	// A drain cut short by its deadline has cancelled the stragglers;
	// that is the graceful-exit contract, not a failure.
	shutdownErr := httpSrv.Shutdown(shutdownCtx)
	drainCtx, drainCancel := context.WithTimeout(context.Background(), jobDrain)
	defer drainCancel()
	if err := srv.Close(drainCtx); err != nil {
		fmt.Fprintf(stdout, "job drain cut short after %s: %v\n", jobDrain, err)
	}
	if shutdownErr != nil {
		return fmt.Errorf("shutdown: %w", shutdownErr)
	}
	if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	fmt.Fprintln(stdout, "bye")
	return nil
}
