// Package server wraps a preprocessed core.Miner in a concurrent
// HTTP/JSON query service — the "preprocess once, query many" shape
// HOS-Miner's expensive setup (threshold resolution + §3.2 learning)
// calls for. Endpoints:
//
//	POST /query      outlying subspaces of a dataset row or ad-hoc vector
//	POST /batch      many queries at once; identical items are evaluated once
//	POST /scan       whole-dataset sweep, run as a job and waited on
//	POST /jobs/scan  the same sweep, answered 202 at once (progress + polling)
//	GET  /jobs/{id}  job status/progress/result; DELETE cancels
//	GET  /healthz    liveness + dataset summary
//	GET  /stats      query counts, cache hit rate, latency percentiles
//
// Concurrency follows the contract documented on core.Miner: after
// Preprocess every Miner method is safe for concurrent use, so
// handlers call the Miner's query, batch and scan methods directly
// and never see the engine's per-goroutine state. Repeated identical
// queries are answered from an in-memory LRU keyed by (point,
// exclude) — the Miner's configuration is fixed per server, so the
// key does not need to carry it. Every request is bounded by a
// body-size limit and a deadline, and admitted through the dataset's
// overload guard (internal/overload): a per-dataset circuit breaker
// plus an AIMD concurrency limiter with priority-aware shedding —
// /query outranks /batch outranks /scan and /jobs/scan.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/jobs"
	"repro/internal/overload"
	"repro/internal/snapshot"
	"repro/internal/subspace"
	"repro/internal/wal"
)

// Options tunes a Server. The zero value selects the defaults noted
// on each field.
type Options struct {
	// QueryTimeout bounds one /query computation (default 10s).
	QueryTimeout time.Duration
	// ScanTimeout bounds how long POST /scan waits for its scan job,
	// queue wait included; on expiry the job is cancelled and the
	// request answered 503 (default 2min).
	ScanTimeout time.Duration
	// MaxBodyBytes bounds request bodies (default 1 MiB).
	MaxBodyBytes int64
	// CacheSize is the LRU result-cache capacity in entries
	// (default 1024; negative disables caching).
	CacheSize int
	// MaxScanResults caps the hits one /scan may return; requests
	// asking for more (or for "all" via 0) are clamped (default 1000).
	MaxScanResults int
	// ScanWorkers caps the per-scan fan-out (core.ScanOptions.Workers);
	// client requests asking for more are clamped (default GOMAXPROCS).
	ScanWorkers int
	// MaxCachedMasks caps the per-entry outlying-mask set the result
	// cache pins (default 16384, ~64 KiB; negative = no cap). Larger
	// sets are still answered and cached, but their full outlying set
	// is dropped from the entry, so an include_all request for that
	// key recomputes instead of hitting.
	MaxCachedMasks int
	// MaxBatchItems caps the item count of one /batch request
	// (default 256).
	MaxBatchItems int
	// BatchTimeout bounds one /batch computation (default 1min).
	BatchTimeout time.Duration
	// MaxDatasets caps the registry size — the startup dataset plus
	// datasets loaded at runtime via POST /datasets/load (default 8).
	MaxDatasets int
	// MaxLoadPoints caps the N a POST /datasets/load may generate —
	// loading allocates N×D floats and preprocesses them inline, so an
	// unbounded request is a memory/CPU DoS (default 100000).
	MaxLoadPoints int
	// JobQueueDepth bounds jobs accepted but not yet running; a full
	// queue rejects POST /scan, POST /jobs/scan and POST
	// /datasets/{name}/compact with 429 and a Retry-After estimate
	// (default 8).
	JobQueueDepth int
	// JobWorkers is the job worker-pool size — how many jobs may run
	// simultaneously. Every scan (sync or async), compaction, retention
	// sweep and warm start shares it (default 1: full-lattice scans
	// monopolise cores).
	JobWorkers int
	// JobResultTTL bounds how long a finished job's result stays
	// fetchable via GET /jobs/{id} (default 15min).
	JobResultTTL time.Duration
	// JobTimeout bounds one scan job's run time (default 30min,
	// negative disables). Deliberately far above ScanTimeout: async
	// jobs exist so scans longer than any request deadline still
	// complete; this is only the runaway backstop.
	JobTimeout time.Duration
	// Overload tunes the per-dataset admission guards (circuit breaker
	// + AIMD concurrency limiter — see internal/overload). Zero fields
	// take the package defaults, except where the server derives better
	// ones: each zero ClassCaps entry — the static per-class in-flight
	// ceiling — defaults to 4×GOMAXPROCS interactive queries, 2 batches
	// and 1 bulk scan; MaxLimit to the sum of the effective class caps;
	// and TargetP99 to QueryTimeout/2.
	Overload overload.Config
	// FaultHook, when set, is consulted at the start of every compute
	// (op ∈ "query"|"batch"|"scan", plus the dataset name). A non-nil
	// error fails the request with it; the returned duration is added
	// to the request's latency as observed by the overload guard
	// without sleeping. It exists for the fault-injection test harness
	// and must be nil in production.
	FaultHook func(op, dataset string) (time.Duration, error)
	// DataDir is the snapshot directory: POST /datasets/{name}/save
	// writes <name>.snap here, the "file" field of /datasets/load
	// resolves against it, and WarmStart registers every *.snap it
	// holds. Empty disables all three (the hosserve default without
	// -data-dir).
	DataDir string
	// WAL enables write-ahead delta logging of live mutations (append
	// and delete): a dataset's first mutation writes its pre-mutation
	// state to <name>.snap and opens <name>.wal beside it; every
	// mutation is journaled before its new view becomes visible, and
	// warm starts replay base + deltas. Requires DataDir.
	WAL bool
	// WALSync is the log's fsync policy (hosserve's -wal-sync flag,
	// parsed by wal.ParseSyncPolicy). The zero value — SyncBatch —
	// issues one fsync per drained mutation batch at the group-commit
	// point, before any of it is acknowledged, so coalesced appends
	// amortize durability; SyncInterval coalesces fsyncs in time and
	// may lose acknowledged mutations inside the window on power
	// failure (the documented trade).
	WALSync wal.SyncPolicy
	// WALCompactBytes auto-submits a compaction job when a dataset's
	// log outgrows this many bytes, folding the deltas into a fresh
	// snapshot (default 4 MiB; negative disables auto-compaction —
	// POST /datasets/{name}/compact still works).
	WALCompactBytes int64
	// RetentionAge expires rows whose ingest stamp is older than this
	// from every dataset (0 disables). It is the process-wide default;
	// PUT /datasets/{name}/retention overrides per dataset. Expiry is
	// exact: it runs through the same WAL-journaled delete path as
	// DELETE /datasets/{name}/rows.
	RetentionAge time.Duration
	// RetentionRows caps every dataset's row count: a sweep that finds
	// more deletes the oldest rows beyond the cap (0 disables; same
	// per-dataset override as RetentionAge).
	RetentionRows int
	// RetentionInterval is the background sweep cadence (default 30s).
	// Sweeps are async jobs (kind "retention"), visible under GET /jobs
	// and counted per dataset in /stats.
	RetentionInterval time.Duration
	// Provenance describes where the default dataset came from, so
	// saving it produces a snapshot that records its origin.
	Provenance snapshot.Provenance
	// NormStats is the raw per-column [Min,Max] of the default dataset
	// when it was min-max normalized (snapshot.Normalize). The server
	// rescales every ad-hoc /query and /batch vector and every appended
	// row with it (snapshot.ScalePoint) — without that, raw-unit client
	// points would be compared against [0,1]-scaled data and report as
	// outliers everywhere — and a snapshot of the default dataset
	// carries it across a restart.
	NormStats []snapshot.ColumnRange
	// Logf, when set, receives debug-level serving events (job
	// lifecycle, saves, warm start); nil discards them.
	Logf func(format string, args ...any)
}

func (o *Options) setDefaults() {
	if o.QueryTimeout <= 0 {
		o.QueryTimeout = 10 * time.Second
	}
	if o.ScanTimeout <= 0 {
		o.ScanTimeout = 2 * time.Minute
	}
	if o.MaxBodyBytes <= 0 {
		o.MaxBodyBytes = 1 << 20
	}
	if o.CacheSize == 0 {
		o.CacheSize = 1024
	}
	if o.MaxScanResults <= 0 {
		o.MaxScanResults = 1000
	}
	if o.MaxCachedMasks == 0 {
		o.MaxCachedMasks = 16384
	}
	if o.MaxBatchItems <= 0 {
		o.MaxBatchItems = 256
	}
	if o.BatchTimeout <= 0 {
		o.BatchTimeout = time.Minute
	}
	if o.MaxDatasets <= 0 {
		o.MaxDatasets = 8
	}
	if o.MaxLoadPoints <= 0 {
		o.MaxLoadPoints = 100_000
	}
	if o.JobQueueDepth <= 0 {
		o.JobQueueDepth = 8
	}
	if o.JobWorkers <= 0 {
		o.JobWorkers = 1
	}
	if o.JobResultTTL <= 0 {
		o.JobResultTTL = 15 * time.Minute
	}
	if o.JobTimeout == 0 {
		o.JobTimeout = 30 * time.Minute
	}
	if o.WALCompactBytes == 0 {
		o.WALCompactBytes = 4 << 20
	}
	if o.RetentionInterval <= 0 {
		o.RetentionInterval = 30 * time.Second
	}
}

// Server is the HTTP face of a registry of preprocessed Miners: the
// default dataset it was constructed over plus any loaded at runtime
// through POST /datasets/load. Admission control is per dataset: each
// registry entry carries an overload.Guard (circuit breaker + AIMD
// concurrency limiter) so one slow dataset sheds its own traffic
// instead of starving its siblings; result caches are likewise per
// dataset.
type Server struct {
	reg     *registry
	def     *dataset
	opts    Options
	stats   *serverStats
	jobs    *jobs.Manager
	loadSem chan struct{}
	mux     *http.ServeMux
	started time.Time
	// retStop/retDone bracket the background retention sweeper's
	// lifetime; retOnce makes shutdown idempotent.
	retStop chan struct{}
	retDone chan struct{}
	retOnce sync.Once
}

// New builds a Server over the Miner, running Preprocess if the
// caller has not already (directly or via ImportState). Preprocessing
// at construction — before any request goroutine exists — is what
// makes the shared Miner state read-only from then on. The Miner
// becomes the registry's default dataset.
func New(m *core.Miner, opts Options) (*Server, error) {
	if m == nil {
		return nil, fmt.Errorf("server: nil miner")
	}
	opts.setDefaults()
	if err := m.Preprocess(); err != nil {
		return nil, fmt.Errorf("server: preprocessing: %w", err)
	}
	s := &Server{
		opts:    opts,
		stats:   newServerStats(latencyWindow),
		loadSem: make(chan struct{}, 1),
		mux:     http.NewServeMux(),
		started: time.Now(),
	}
	s.jobs = jobs.NewManager(jobs.Options{
		QueueDepth: opts.JobQueueDepth,
		Workers:    opts.JobWorkers,
		ResultTTL:  opts.JobResultTTL,
	})
	s.def = s.newDatasetEntry(DefaultDatasetName, m, opts.NormStats, opts.Provenance)
	s.reg = newRegistry(s.def, opts.MaxDatasets)
	s.mux.HandleFunc("POST /query", s.handleQuery)
	s.mux.HandleFunc("POST /batch", s.handleBatch)
	s.mux.HandleFunc("POST /scan", s.handleScan)
	s.mux.HandleFunc("POST /jobs/scan", s.handleSubmitScanJob)
	s.mux.HandleFunc("GET /jobs", s.handleListJobs)
	s.mux.HandleFunc("GET /jobs/{id}", s.handleGetJob)
	s.mux.HandleFunc("DELETE /jobs/{id}", s.handleCancelJob)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /stats", s.handleStats)
	s.mux.HandleFunc("GET /datasets", s.handleListDatasets)
	s.mux.HandleFunc("POST /datasets/load", s.handleLoadDataset)
	s.mux.HandleFunc("POST /datasets/evict", s.handleEvictDataset)
	s.mux.HandleFunc("POST /datasets/{name}/save", s.handleSaveDataset)
	s.mux.HandleFunc("POST /datasets/{name}/append", s.handleAppendRows)
	s.mux.HandleFunc("DELETE /datasets/{name}/rows", s.handleDeleteRows)
	s.mux.HandleFunc("POST /datasets/{name}/compact", s.handleCompact)
	s.mux.HandleFunc("GET /datasets/{name}/retention", s.handleGetRetention)
	s.mux.HandleFunc("PUT /datasets/{name}/retention", s.handleSetRetention)
	s.retStop = make(chan struct{})
	s.retDone = make(chan struct{})
	go s.retentionLoop()
	return s, nil
}

// Close stops the background retention sweeper, then drains the async
// job subsystem: queued jobs still run, and Close blocks until the
// pool is idle or ctx expires, at which point the stragglers are
// cancelled. It then retires every entry, closing its log. Call it
// after the HTTP listener has shut down so no new jobs can arrive
// mid-drain.
func (s *Server) Close(ctx context.Context) error {
	s.retOnce.Do(func() {
		close(s.retStop)
		<-s.retDone
	})
	err := s.jobs.Close(ctx)
	for _, d := range s.reg.list() {
		d.retire()
	}
	return err
}

// debugf emits a debug-level serving event through Options.Logf.
func (s *Server) debugf(format string, args ...any) {
	if s.opts.Logf != nil {
		s.opts.Logf(format, args...)
	}
}

// Handler returns the root handler (mux + recovery), ready for
// http.Server or httptest.
func (s *Server) Handler() http.Handler { return s.recoverPanics(s.mux) }

// Stats returns a point-in-time counter snapshot (also served at
// GET /stats). The scalar counters come from one consistent locked
// snapshot; the per-dataset section is appended after it.
func (s *Server) Stats() StatsSnapshot {
	entries := s.reg.list()
	cacheEntries := 0
	for _, d := range entries {
		cacheEntries += d.view().cache.len()
	}
	snap := s.stats.snapshot(cacheEntries, time.Since(s.started))
	snap.Jobs = toJobStats(s.jobs.Counters())
	snap.Datasets = make([]DatasetStats, len(entries))
	for i, d := range entries {
		snap.Datasets[i] = d.stats()
	}
	return snap
}

// ---- request/response bodies ----

type queryRequest struct {
	// Dataset routes the query to a registry entry ("" = the default
	// dataset the process started with).
	Dataset string `json:"dataset,omitempty"`
	// Exactly one of Index (dataset row) or Point (ad-hoc vector) must
	// be set.
	Index *int      `json:"index,omitempty"`
	Point []float64 `json:"point,omitempty"`
	// IncludeAll adds the full outlying set to the response (it can be
	// exponentially larger than the minimal set, so it is opt-in).
	IncludeAll bool `json:"include_all,omitempty"`
}

type queryResponse struct {
	Index         *int      `json:"index,omitempty"`
	Point         []float64 `json:"point,omitempty"`
	Threshold     float64   `json:"threshold"`
	IsOutlier     bool      `json:"is_outlier"`
	Minimal       [][]int   `json:"minimal"`
	OutlyingCount int       `json:"outlying_count"`
	Outlying      [][]int   `json:"outlying,omitempty"`
	ODEvaluations int64     `json:"od_evaluations"`
	Cached        bool      `json:"cached"`
	ElapsedMs     float64   `json:"elapsed_ms"`

	// outlyingMasks is the full outlying set in its compact 4-byte-
	// per-subspace form; it is what the cache pins. The [][]int
	// Outlying field is materialised per response, and only for
	// include_all — the set can be exponential in d.
	outlyingMasks []subspace.Mask
}

type scanRequest struct {
	Dataset        string `json:"dataset,omitempty"`
	MaxResults     int    `json:"max_results,omitempty"`
	SortBySeverity bool   `json:"sort_by_severity,omitempty"`
	Workers        int    `json:"workers,omitempty"`
}

type scanResponse struct {
	Hits       []scanHit `json:"hits"`
	HitCount   int       `json:"hit_count"`
	MaxResults int       `json:"max_results"`
	ElapsedMs  float64   `json:"elapsed_ms"`
}

type scanHit struct {
	Index         int     `json:"index"`
	Minimal       [][]int `json:"minimal"`
	OutlyingCount int     `json:"outlying_count"`
	FullSpaceOD   float64 `json:"full_space_od"`
}

type healthResponse struct {
	Status        string  `json:"status"`
	DatasetN      int     `json:"dataset_n"`
	DatasetD      int     `json:"dataset_d"`
	K             int     `json:"k"`
	Threshold     float64 `json:"threshold"`
	Policy        string  `json:"policy"`
	Backend       string  `json:"backend"`
	Shards        int     `json:"shards"`
	Datasets      int     `json:"datasets"`
	UptimeSeconds float64 `json:"uptime_seconds"`
}

type errorResponse struct {
	Error string `json:"error"`
}

// ---- handlers ----

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	s.stats.startRequest()
	defer s.stats.endRequest()
	start := time.Now()

	var req queryRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	d, ok := s.resolveDataset(w, req.Dataset)
	if !ok {
		return
	}
	// Pin the current epoch: every read below — target resolution,
	// cache, the miner itself — goes through this one view, so a
	// concurrent append/delete swapping in a new epoch can never show
	// this request a mix of old and new state.
	v := d.view()
	point, exclude, emsg := v.resolveQueryTarget(req.Index, req.Point)
	if emsg != "" {
		s.error(w, http.StatusBadRequest, emsg)
		return
	}

	key := cacheKey(point, exclude)
	if resp, ok := v.cache.get(key); ok {
		// An entry whose full outlying set was too large to pin (see
		// MaxCachedMasks) cannot serve include_all; fall through and
		// recompute for that combination only.
		if !req.IncludeAll || resp.outlyingMasks != nil || resp.OutlyingCount == 0 {
			// The per-dataset counter mirrors the global one: answers
			// served, not requests received (scan/batch count the same
			// way), so DatasetStats.Queries sums to the scalar counters.
			d.queries.Add(1)
			s.stats.recordQuery(true, time.Since(start))
			out := *resp // copy: cached value stays immutable
			out.Cached = true
			out.ElapsedMs = msSince(start)
			if req.IncludeAll {
				out.Outlying = masksToDims(resp.outlyingMasks)
			}
			w.Header().Set("X-Cache", "HIT")
			s.writeJSON(w, http.StatusOK, &out)
			return
		}
	}

	// fn ignores the deadline context on purpose: a query that outlives
	// the deadline still finishes and seeds the cache (answer), so the
	// client's retry is a hit instead of re-paying the full cost (and
	// timing out again, forever).
	var resp *queryResponse
	if !s.compute(w, r, d, overload.Interactive, s.opts.QueryTimeout, func(context.Context) error {
		var res *core.QueryResult
		var err error
		if exclude >= 0 {
			res, err = v.miner.OutlyingSubspacesOfPoint(exclude)
		} else {
			res, err = v.miner.OutlyingSubspaces(point)
		}
		if err != nil {
			return err
		}
		resp = s.answer(v, key, req.Index, point, res)
		s.stats.addODEvals(res.ODEvaluations)
		return nil
	}) {
		return
	}
	// Misses are counted when a computed answer is served, not at
	// lookup time, so shed/timed-out requests (counted in errors) keep
	// the invariant hits + misses == queries.
	d.queries.Add(1)
	s.stats.recordQuery(false, time.Since(start))
	out := *resp
	out.ElapsedMs = msSince(start)
	if req.IncludeAll {
		out.Outlying = masksToDims(resp.outlyingMasks)
	}
	w.Header().Set("X-Cache", "MISS")
	s.writeJSON(w, http.StatusOK, &out)
}

// scanPlan is a validated, clamped scan request — the front half of
// submitScan, which POST /scan and POST /jobs/scan share.
type scanPlan struct {
	d *dataset
	// v is the epoch pinned at planning time: the whole sweep runs
	// over it even if the dataset mutates mid-scan.
	v              *view
	maxResults     int
	workers        int
	sortBySeverity bool
	// hook is the fault-injection point (Options.FaultHook bound to
	// this dataset); nil outside the test harness.
	hook func() (time.Duration, error)
}

// planScan decodes and validates a scanRequest, writing the 4xx
// itself on failure.
func (s *Server) planScan(w http.ResponseWriter, r *http.Request) (*scanPlan, bool) {
	var req scanRequest
	if !s.decodeBody(w, r, &req) {
		return nil, false
	}
	d, ok := s.resolveDataset(w, req.Dataset)
	if !ok {
		return nil, false
	}
	if req.MaxResults < 0 {
		s.error(w, http.StatusBadRequest, fmt.Sprintf("max_results = %d", req.MaxResults))
		return nil, false
	}
	workers, ok := s.fanOut(w, req.Workers, s.opts.ScanWorkers)
	if !ok {
		return nil, false
	}
	maxResults := req.MaxResults
	if maxResults == 0 || maxResults > s.opts.MaxScanResults {
		maxResults = s.opts.MaxScanResults
	}
	plan := &scanPlan{d: d, v: d.view(), maxResults: maxResults, workers: workers, sortBySeverity: req.SortBySeverity}
	if fh := s.opts.FaultHook; fh != nil {
		name := d.name
		plan.hook = func() (time.Duration, error) { return fh("scan", name) }
	}
	return plan, true
}

// run executes the plan and renders the response, reporting progress
// to onProgress.
func (p *scanPlan) run(ctx context.Context, start time.Time, onProgress func(done, total int)) (*scanResponse, error) {
	if p.hook != nil {
		if _, err := p.hook(); err != nil {
			return nil, err
		}
	}
	hits, err := p.v.miner.ScanAll(ctx, core.ScanOptions{
		MaxResults:     p.maxResults,
		SortBySeverity: p.sortBySeverity,
		Workers:        p.workers,
		OnProgress:     onProgress,
	})
	if err != nil {
		return nil, err
	}
	resp := &scanResponse{
		Hits:       make([]scanHit, len(hits)),
		HitCount:   len(hits),
		MaxResults: p.maxResults,
		ElapsedMs:  msSince(start),
	}
	for i, h := range hits {
		resp.Hits[i] = scanHit{
			Index:         h.Index,
			Minimal:       masksToDims(h.Minimal),
			OutlyingCount: h.OutlyingCount,
			FullSpaceOD:   h.FullSpaceOD,
		}
	}
	return resp, nil
}

// handleScan is the synchronous face of the scan job: it submits the
// same job POST /jobs/scan does and waits for it, so both transports
// share one execution and admission path. The sync scan is therefore
// visible under GET /jobs and runs on the job worker pool.
func (s *Server) handleScan(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	plan, job, ok := s.submitScan(w, r)
	if !ok {
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.opts.ScanTimeout)
	defer cancel()
	snap, ok := s.jobs.Wait(ctx, job.ID)
	if !ok {
		// Only a JobResultTTL shorter than the scan's own delivery can
		// sweep the job before its waiter reads it.
		s.error(w, http.StatusInternalServerError, fmt.Sprintf("scan job %s expired before delivery", job.ID))
		return
	}
	if !snap.State.Terminal() {
		// The deadline fired or the client left first: nobody will read
		// the sweep, so stop it and free the worker. The cancelled job
		// records a neutral outcome; the waiter knows why it gave up,
		// and a blown deadline is what the client experienced.
		s.jobs.Cancel(job.ID)
		plan.d.guard.RecordDetached(outcomeFor(ctx.Err()))
		s.scanInterrupted(w, ctx.Err())
		return
	}
	switch snap.State {
	case jobs.StateDone:
		// The job's elapsed_ms counts from worker pickup; the sync
		// answer reports the request's wall time, queue wait included.
		// Copy: the retained result is shared with GET /jobs/{id}.
		out := *snap.Result.(*scanResponse)
		out.ElapsedMs = msSince(start)
		s.writeJSON(w, http.StatusOK, &out)
	case jobs.StateCancelled:
		s.error(w, http.StatusServiceUnavailable, fmt.Sprintf("scan job %s was cancelled before it finished", job.ID))
	case jobs.StateFailed:
		// A job-timeout or injected deadline is a capacity signal, the
		// same as the waiter's own deadline firing.
		status := http.StatusInternalServerError
		if errors.Is(snap.Err, context.DeadlineExceeded) {
			status = http.StatusServiceUnavailable
		}
		s.error(w, status, snap.Err.Error())
	}
}

// scanInterrupted writes the status for a scan that ended before
// producing an answer, distinguishing the server's deadline (503 — a
// capacity signal, counted as an error) from the client closing the
// request (408-family, the client's own doing, counted separately so
// it cannot corrupt error-rate stats).
func (s *Server) scanInterrupted(w http.ResponseWriter, err error) {
	if errors.Is(err, context.DeadlineExceeded) {
		s.error(w, http.StatusServiceUnavailable,
			fmt.Sprintf("scan exceeded the %s deadline (submit via POST /jobs/scan to run it asynchronously)", s.opts.ScanTimeout))
		return
	}
	s.clientGone(w, "scan")
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	m := s.def.view().miner
	cfg := m.Config()
	s.writeJSON(w, http.StatusOK, &healthResponse{
		Status:        "ok",
		DatasetN:      m.Dataset().N(),
		DatasetD:      m.Dataset().Dim(),
		K:             cfg.K,
		Threshold:     m.Threshold(),
		Policy:        cfg.Policy.String(),
		Backend:       cfg.Backend.String(),
		Shards:        m.NumShards(),
		Datasets:      s.reg.len(),
		UptimeSeconds: time.Since(s.started).Seconds(),
	})
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	snap := s.Stats()
	s.writeJSON(w, http.StatusOK, &snap)
}

// ---- middleware & helpers ----

// recoverPanics converts a handler panic into a counted 500 instead
// of killing the connection handler. The panic value and stack go to
// the server log; the client sees only a generic message.
func (s *Server) recoverPanics(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if rec := recover(); rec != nil {
				log.Printf("server: panic serving %s %s: %v\n%s", r.Method, r.URL.Path, rec, debug.Stack())
				s.error(w, http.StatusInternalServerError, "internal error")
			}
		}()
		next.ServeHTTP(w, r)
	})
}

// decodeBody parses the JSON request body under the configured size
// limit, writing the 4xx itself when parsing fails.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, dst any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		// An empty body means "all defaults" — natural for /scan,
		// where every field is optional.
		if errors.Is(err, io.EOF) {
			return true
		}
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			s.error(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("body exceeds %d bytes", s.opts.MaxBodyBytes))
			return false
		}
		s.error(w, http.StatusBadRequest, fmt.Sprintf("bad request body: %v", err))
		return false
	}
	return true
}

func (s *Server) writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(body)
}

func (s *Server) error(w http.ResponseWriter, status int, msg string) {
	s.stats.recordError()
	s.writeJSON(w, status, &errorResponse{Error: msg})
}

// conflict answers 409 for registry-capacity and duplicate-name
// refusals. These land in the registry_conflicts counter, not the
// error counter: they are admission control working as designed, and
// counting them as server errors (as the generic error path used to)
// made a full registry look like a malfunction on dashboards.
func (s *Server) conflict(w http.ResponseWriter, msg string) {
	s.stats.recordRegistryConflict()
	s.writeJSON(w, http.StatusConflict, &errorResponse{Error: msg})
}

// notFound answers 404 for requests naming a dataset that is not
// registered — counted in dataset_not_found, apart from server errors,
// for the same reason as conflict.
func (s *Server) notFound(w http.ResponseWriter, msg string) {
	s.stats.recordDatasetNotFound()
	s.writeJSON(w, http.StatusNotFound, &errorResponse{Error: msg})
}

// registryError maps a typed registry failure onto its HTTP status
// and counter — the single place the taxonomy is spelled out.
func (s *Server) registryError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrDatasetExists), errors.Is(err, ErrRegistryFull):
		s.conflict(w, err.Error())
	case errors.Is(err, ErrDatasetNotFound):
		s.notFound(w, err.Error())
	case errors.Is(err, ErrNotEvictable):
		s.error(w, http.StatusBadRequest, err.Error())
	default:
		s.error(w, http.StatusInternalServerError, err.Error())
	}
}

// outcomeFor classifies a finished computation's error for the
// overload guard: deadline → Timeout (the breaker's primary trip
// signal), cancellation → Cancelled (the client's doing, neutral),
// anything else → Errored.
func outcomeFor(err error) overload.Outcome {
	switch {
	case err == nil:
		return overload.Success
	case errors.Is(err, context.DeadlineExceeded):
		return overload.Timeout
	case errors.Is(err, context.Canceled):
		return overload.Cancelled
	default:
		return overload.Errored
	}
}

// opNames spells each admission class the way Options.FaultHook and
// the request-path messages name its operation.
var opNames = [...]string{overload.Interactive: "query", overload.Batch: "batch", overload.Bulk: "scan"}

// compute is the one request path of /query (class Interactive) and
// /batch (class Batch). One deadline, timeout from now, bounds the
// admission wait and the compute wait together: a query waits for a
// slot until it, a batch fails fast. Options.FaultHook and then fn run
// on one detached goroutine that holds the permit until fn returns,
// even past the deadline, so concurrent computations stay bounded. The
// release counts the injected delay, and a success slower than the
// deadline counts as a timeout, because that is what the client saw.
// Whether fn honours its deadline context is the caller's choice
// (DESIGN §4.3). compute answers every failure itself and reports
// whether fn succeeded; the caller then writes the answer.
func (s *Server) compute(w http.ResponseWriter, r *http.Request, d *dataset, class overload.Priority, timeout time.Duration, fn func(ctx context.Context) error) bool {
	op := opNames[class]
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()
	permit, rej := d.guard.Admit(ctx, class, class == overload.Interactive)
	if rej != nil {
		s.refuse(w, d.name, class, rej)
		return false
	}
	done := make(chan error, 1)
	go func() {
		start := time.Now()
		var injected time.Duration
		var err error
		if s.opts.FaultHook != nil {
			injected, err = s.opts.FaultHook(op, d.name)
		}
		if err == nil {
			err = fn(ctx)
		}
		lat := time.Since(start) + injected
		out := outcomeFor(err)
		if out == overload.Success && lat > timeout {
			out = overload.Timeout
		}
		permit.Release(out, lat)
		done <- err
	}()
	var err error
	select {
	case <-ctx.Done():
		err = ctx.Err()
	case err = <-done:
	}
	switch {
	case err == nil:
		return true
	case r.Context().Err() != nil, errors.Is(err, context.Canceled):
		s.clientGone(w, op)
	case errors.Is(err, context.DeadlineExceeded):
		// The handler's deadline, an engine-side one or an injected one:
		// each is a capacity signal.
		s.error(w, http.StatusServiceUnavailable, fmt.Sprintf("%s exceeded the %s deadline", op, timeout))
	default:
		s.error(w, http.StatusInternalServerError, err.Error())
	}
	return false
}

// refuse answers a request the server declined to run; it is the one
// table of refusal statuses. why is the dataset guard's
// *overload.Rejection of an admission of class, or the error of a job
// submission:
//
//	breaker open                          503, Retry-After: remaining cool-down
//	client gone while waiting for a slot  408, counted in client_cancelled
//	interactive, waited out its deadline  503, Retry-After
//	batch or bulk at its class share      429, Retry-After
//	job queue full                        429, Retry-After: the queue's estimate
//	job manager draining                  503
//	another dataset load in progress      429, Retry-After: 1
func (s *Server) refuse(w http.ResponseWriter, dataset string, class overload.Priority, why error) {
	var rej *overload.Rejection
	errors.As(why, &rej)
	switch {
	case rej != nil && rej.Reason == overload.ReasonBreakerOpen:
		retry := retryAfter(w, rej.RetryAfter)
		s.error(w, http.StatusServiceUnavailable,
			fmt.Sprintf("dataset %q is shedding load (circuit breaker open), retry in ~%ds", dataset, retry))
	case rej != nil && errors.Is(rej.Err, context.Canceled):
		s.clientGone(w, opNames[class])
	case rej != nil && class == overload.Interactive:
		retryAfter(w, rej.RetryAfter)
		s.error(w, http.StatusServiceUnavailable,
			fmt.Sprintf("no compute slot within the %s deadline", s.opts.QueryTimeout))
	case rej != nil:
		retry := retryAfter(w, rej.RetryAfter)
		s.error(w, http.StatusTooManyRequests,
			fmt.Sprintf("dataset %q at its %s concurrency share, retry in ~%ds", dataset, class, retry))
	case errors.Is(why, jobs.ErrQueueFull):
		retry := retryAfter(w, s.jobs.RetryAfter())
		s.error(w, http.StatusTooManyRequests,
			fmt.Sprintf("job queue full (%d queued), retry in ~%ds", s.opts.JobQueueDepth, retry))
	case errors.Is(why, jobs.ErrClosed):
		s.error(w, http.StatusServiceUnavailable, "server is draining, no new jobs")
	case errors.Is(why, errLoadInProgress):
		retry := retryAfter(w, 0)
		s.error(w, http.StatusTooManyRequests, fmt.Sprintf("%v, retry in ~%ds", why, retry))
	default:
		s.error(w, http.StatusInternalServerError, why.Error())
	}
}

// retryAfter sets the Retry-After header to d in whole seconds and
// returns them. overload.RetryAfterSeconds floors the value at 1s:
// whatever an estimator returns (the job queue's has no history before
// its first job finishes), "Retry-After: 0" invites a zero-delay retry
// loop.
func retryAfter(w http.ResponseWriter, d time.Duration) int {
	secs := overload.RetryAfterSeconds(d)
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	return secs
}

// fanOut validates a client-requested worker count and clamps it to
// limit (GOMAXPROCS when limit is unset): each worker holds its own
// k-NN working set, so an unbounded count is a memory/scheduler DoS. 0
// asks for the bound itself; a negative count is answered 400.
func (s *Server) fanOut(w http.ResponseWriter, requested, limit int) (int, bool) {
	if requested < 0 {
		s.error(w, http.StatusBadRequest, fmt.Sprintf("workers = %d", requested))
		return 0, false
	}
	if limit <= 0 {
		limit = runtime.GOMAXPROCS(0)
	}
	if requested == 0 || requested > limit {
		return limit, true
	}
	return requested, true
}

// clientGone reports a request whose own client closed the connection
// mid-computation. The status is 408 (the 4xx "the client gave up"
// family — nobody reads the body, but middleware and access logs do
// read the code) and the event lands in the client_cancelled counter,
// NOT the error counter: the old behaviour of answering 503 here made
// every impatient client look like server overload.
func (s *Server) clientGone(w http.ResponseWriter, what string) {
	s.stats.recordClientCancelled()
	s.writeJSON(w, http.StatusRequestTimeout, &errorResponse{Error: what + ": client closed request"})
}

// answer builds the response to a computed query result — for dataset
// row *index, or for point when index is nil — and seeds the view's
// result LRU with it under key, so /query and /batch share one
// response shape and one caching rule. The response and the LRU keep
// point and res.Outlying, so the caller must own both. A set larger
// than MaxCachedMasks is dropped from the cached entry only; the
// returned response keeps it.
func (s *Server) answer(v *view, key string, index *int, point []float64, res *core.QueryResult) *queryResponse {
	resp := &queryResponse{
		Index:         index,
		Threshold:     res.Threshold,
		IsOutlier:     res.IsOutlierAnywhere,
		Minimal:       masksToDims(res.Minimal),
		OutlyingCount: len(res.Outlying),
		ODEvaluations: res.ODEvaluations,
		outlyingMasks: res.Outlying,
	}
	if index == nil {
		resp.Point = point
	}
	cached := resp
	if s.opts.MaxCachedMasks > 0 && len(res.Outlying) > s.opts.MaxCachedMasks {
		stripped := *resp
		stripped.outlyingMasks = nil
		cached = &stripped
	}
	v.cache.put(key, cached)
	return resp
}

func masksToDims(masks []subspace.Mask) [][]int {
	out := make([][]int, len(masks))
	for i, m := range masks {
		out[i] = m.Dims()
	}
	return out
}

func msSince(t time.Time) float64 {
	return float64(time.Since(t)) / float64(time.Millisecond)
}
