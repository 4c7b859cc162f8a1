package server

import (
	"errors"
	"fmt"
	"net/http"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/overload"
	"repro/internal/shard"
	"repro/internal/snapshot"
	"repro/internal/subspace"
	"repro/internal/wal"
)

// This file is the multi-dataset registry: a Server is no longer the
// HTTP face of exactly one preprocessed Miner but of a named set of
// them, each with its own shard topology and result LRU. /query, /scan
// and /batch route on an optional "dataset" field (default: the
// dataset the process was started with); operators load and evict
// datasets at runtime:
//
//	GET  /datasets        list every entry with shard topology
//	POST /datasets/load   generate (or read from -data-dir) + preprocess
//	                      + register a dataset
//	POST /datasets/evict  drop a loaded dataset
//
// A load generates its dataset (datagen.ByName) or reads a snapshot
// file from the data directory: the service stays self-contained — no
// file-upload surface — while tests and operators can still stand up
// arbitrarily shaped datasets on a running process.

// dataset is one registry entry: the epoch-versioned serving state of
// one named dataset. The queryable state — miner, result cache, stable
// row IDs — lives in an immutable view behind an atomic pointer:
// readers pin the current view with one load and keep using it for
// the whole request, so a concurrent append or delete (which derives a
// complete replacement view and swaps the pointer) can never show them
// torn data. Old views retire by garbage
// collection when their last in-flight query drains.
type dataset struct {
	name    string
	cur     atomic.Pointer[view]
	queries atomic.Int64
	// guard is the dataset's admission gate: circuit breaker + AIMD
	// concurrency limiter (internal/overload). It is created with the
	// entry and dies with it, which is what makes evict + reload a
	// clean breaker reset — a recovered dataset re-registered under
	// the same name starts closed with a full concurrency limit.
	guard *overload.Guard
	// normStats is the raw per-column [Min,Max] of a min-max
	// normalized dataset (nil when it is served in raw units): ad-hoc
	// query vectors and appended rows are rescaled with it
	// (snapshot.ScalePoint), and it rides into snapshots so a restored
	// entry rescales the same way.
	normStats []snapshot.ColumnRange
	created   time.Time
	// prov records where the dataset came from; it travels into
	// snapshots written by POST /datasets/{name}/save.
	prov snapshot.Provenance

	// mut serializes mutations — append, delete, compaction, save,
	// retention. Readers never take it; they go through cur. wal
	// (guarded by mut) is the entry's delta log once WAL persistence
	// has been engaged; retired (guarded by mut) is set once the entry
	// has left the registry (retire).
	mut     sync.Mutex
	wal     *wal.Log
	retired bool
	// compacting gates auto-compaction so mutations do not pile up
	// duplicate jobs while one is queued or running; retaining does
	// the same for retention sweeps.
	compacting atomic.Bool
	retaining  atomic.Bool

	// pendMu guards pending — append requests queued for the next
	// coalescer drain (see handleAppendRows). It is a leaf lock held
	// only for the enqueue/steal instants, never across engine work,
	// so enqueueing never waits on a rebuild in progress.
	pendMu  sync.Mutex
	pending []*appendOp

	// retMu guards retention, the entry's expiry policy. It starts as
	// the process-wide default (Options.RetentionAge/RetentionRows)
	// and PUT /datasets/{name}/retention overrides it at runtime.
	retMu     sync.Mutex
	retention retentionConfig

	// Mutation counters for /stats. walBytes/walRecords/walSyncs
	// shadow the log's state atomically so a stats scrape never waits
	// on a compaction holding mut.
	appends       atomic.Int64
	appendedRows  atomic.Int64
	appendBatches atomic.Int64
	deletes       atomic.Int64
	deletedRows   atomic.Int64
	compactions   atomic.Int64
	walBytes      atomic.Int64
	walRecords    atomic.Int64
	walSyncs      atomic.Int64
	// retentionSweeps counts completed sweep jobs (including no-op
	// sweeps); retentionExpired counts the rows they deleted.
	retentionSweeps  atomic.Int64
	retentionExpired atomic.Int64
	// columnRows sums the column rows each committed mutation
	// recomputed (view.columnRows).
	columnRows atomic.Int64
}

// view returns the entry's current queryable state. Handlers call it
// once per request and hold the result — that is the epoch pin.
func (d *dataset) view() *view { return d.cur.Load() }

// Typed registry failures. The HTTP layer maps these onto statuses —
// 409 for conflicts, 404 for absences — and counts them apart from
// server errors in /stats: an operator filling the registry or naming
// a dataset that is not there is not a malfunctioning server, and the
// old behaviour of folding everything into one generic error counter
// (and, for registry-full, a generic error status) made capacity
// pressure indistinguishable from breakage on a dashboard.
var (
	// ErrRegistryFull: no load slot left; evict something first.
	ErrRegistryFull = errors.New("registry full")
	// ErrDatasetExists: the name is already registered.
	ErrDatasetExists = errors.New("dataset already loaded")
	// ErrDatasetNotFound: the name matches no registered dataset.
	ErrDatasetNotFound = errors.New("dataset not found")
	// ErrNotEvictable: the default dataset cannot be evicted.
	ErrNotEvictable = errors.New("dataset not evictable")
	// errLoadInProgress: another POST /datasets/load holds the one
	// build slot; refuse answers it 429 with Retry-After.
	errLoadInProgress = errors.New("another dataset load is in progress")
)

// registry is the named-dataset table. Reads (request routing) take
// the read lock; load/evict take the write lock. The entries
// themselves are never mutated in place, so a handler may keep using
// a *dataset it resolved even across a concurrent eviction — the
// entry's miner and caches outlive their registry slot.
//
//hos:statslock mu
type registry struct {
	mu      sync.RWMutex
	entries map[string]*dataset
	max     int
}

func newRegistry(def *dataset, max int) *registry {
	return &registry{entries: map[string]*dataset{def.name: def}, max: max}
}

// resolve returns the entry for name ("" selects the default).
func (r *registry) resolve(name string) (*dataset, bool) {
	if name == "" {
		name = DefaultDatasetName
	}
	r.mu.RLock()
	d, ok := r.entries[name]
	r.mu.RUnlock()
	return d, ok
}

// len returns the entry count without list's allocation and sort.
func (r *registry) len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.entries)
}

// list returns the entries sorted by name.
func (r *registry) list() []*dataset {
	r.mu.RLock()
	out := make([]*dataset, 0, len(r.entries))
	for _, d := range r.entries {
		out = append(out, d)
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// check reports whether name could currently be added — the cheap
// pre-flight the load handler runs before paying for a build.
func (r *registry) check(name string) error {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if _, ok := r.entries[name]; ok {
		return fmt.Errorf("%w: %q", ErrDatasetExists, name)
	}
	if len(r.entries) >= r.max {
		return fmt.Errorf("%w (%d datasets); evict one first", ErrRegistryFull, r.max)
	}
	return nil
}

// add registers a new entry; it fails on duplicate names or when the
// registry is full.
func (r *registry) add(d *dataset) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.entries[d.name]; ok {
		return fmt.Errorf("%w: %q", ErrDatasetExists, d.name)
	}
	if len(r.entries) >= r.max {
		return fmt.Errorf("%w (%d datasets); evict one first", ErrRegistryFull, r.max)
	}
	r.entries[d.name] = d
	return nil
}

// remove drops name. The default dataset is not evictable: it is the
// entry the process was configured with and the fallback for every
// request that names none. The entry is retired before its slot frees,
// so a reload of the name can never open <name>.wal while the evicted
// entry still holds it; the registry lock is not held meanwhile, since
// retiring waits for a mutation in progress.
func (r *registry) remove(name string) error {
	if name == DefaultDatasetName {
		return fmt.Errorf("%w: %q is the default dataset", ErrNotEvictable, DefaultDatasetName)
	}
	d, ok := r.resolve(name)
	if !ok {
		return fmt.Errorf("%w: %q", ErrDatasetNotFound, name)
	}
	d.retire()
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.entries[name] != d {
		return fmt.Errorf("%w: %q", ErrDatasetNotFound, name)
	}
	delete(r.entries, name)
	return nil
}

// DefaultDatasetName is the registry name of the dataset the process
// was started with; requests that name no dataset route to it.
const DefaultDatasetName = "default"

// ---- request/response bodies ----

type loadRequest struct {
	// Name registers the dataset (required; anything but "default").
	Name string `json:"name"`
	// File loads a snapshot file from the server's -data-dir instead
	// of generating: a bare file name, resolved inside the data
	// directory only. A full snapshot (hosserve save, hosminer -save)
	// restores dataset, configuration, state and index wholesale — the
	// request must then carry no miner parameter (snapshot.Miner). A
	// dataset-only snapshot (hosgen -save) supplies just the data; the
	// request configures the miner exactly as a generated load does.
	File string `json:"file,omitempty"`
	// Gen selects the generator (datagen.ByName):
	// synthetic|uniform|athlete|medical|nba. N, D and Planted configure
	// it and are refused without it; Seed seeds it and the miner.
	Gen     string `json:"gen"`
	N       int    `json:"n,omitempty"`
	D       int    `json:"d,omitempty"`
	Planted int    `json:"planted,omitempty"`
	Seed    int64  `json:"seed,omitempty"`
	// Miner parameters, mirroring the hosserve flags.
	K         int     `json:"k"`
	T         float64 `json:"t,omitempty"`
	TQuantile float64 `json:"tq,omitempty"`
	Samples   int     `json:"samples,omitempty"`
	Policy    string  `json:"policy,omitempty"`
	Backend   string  `json:"backend,omitempty"`
	// Shards > 1 serves the dataset from a scatter-gather engine with
	// this many per-shard indexes.
	Shards      int    `json:"shards,omitempty"`
	Partitioner string `json:"partitioner,omitempty"`
}

type datasetInfo struct {
	Name        string  `json:"name"`
	N           int     `json:"n"`
	D           int     `json:"d"`
	K           int     `json:"k"`
	Threshold   float64 `json:"threshold"`
	Policy      string  `json:"policy"`
	Backend     string  `json:"backend"`
	Shards      int     `json:"shards"`
	Partitioner string  `json:"partitioner,omitempty"`
	ShardSizes  []int   `json:"shard_sizes,omitempty"`
	Epoch       int64   `json:"epoch"`
	Queries     int64   `json:"queries"`
	CreatedAt   string  `json:"created_at"`
	Default     bool    `json:"default,omitempty"`
}

type listDatasetsResponse struct {
	Datasets []datasetInfo `json:"datasets"`
	Capacity int           `json:"capacity"`
}

type evictRequest struct {
	Name string `json:"name"`
}

// ---- handlers ----

func (s *Server) handleListDatasets(w http.ResponseWriter, _ *http.Request) {
	entries := s.reg.list()
	resp := &listDatasetsResponse{
		Datasets: make([]datasetInfo, len(entries)),
		Capacity: s.opts.MaxDatasets,
	}
	for i, d := range entries {
		resp.Datasets[i] = d.info()
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// validDatasetName restricts registry names to path-safe spellings:
// they become snapshot file stems under -data-dir, so separators,
// leading dots and empty/oversized names are rejected at the door.
func validDatasetName(name string) bool {
	if name == "" || len(name) > 64 || name[0] == '.' {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '-', c == '_', c == '.':
		default:
			return false
		}
	}
	return true
}

// maxLoadPoints caps the N of a dataset loaded through POST
// /datasets/load and of any dataset an append grows: loading allocates
// N×D floats and preprocesses them inline, so an unbounded request is a
// memory/CPU DoS.
const maxLoadPoints = 100_000

func (s *Server) handleLoadDataset(w http.ResponseWriter, r *http.Request) {
	var req loadRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	if !validDatasetName(req.Name) {
		s.error(w, http.StatusBadRequest, "dataset name must be 1-64 characters from [a-zA-Z0-9._-], not starting with '.'")
		return
	}
	if req.Name == DefaultDatasetName {
		s.error(w, http.StatusBadRequest, fmt.Sprintf("name %q is reserved", DefaultDatasetName))
		return
	}
	if req.File != "" && req.Gen != "" {
		s.error(w, http.StatusBadRequest, "set either \"file\" or \"gen\", not both")
		return
	}
	set := req.fields()
	if req.Gen == "" {
		for _, name := range []string{"n", "d", "planted"} {
			if slices.Contains(set, name) {
				s.error(w, http.StatusBadRequest, fmt.Sprintf("%q configures the generator; it needs \"gen\"", name))
				return
			}
		}
	}
	// Generating + preprocessing allocates N×D floats and runs the
	// full threshold/learning pipeline inline; bound the size before
	// spending anything. (File loads re-check N after reading the
	// snapshot, whose size is already bounded by the file itself.)
	if req.N > maxLoadPoints {
		s.error(w, http.StatusBadRequest,
			fmt.Sprintf("n = %d exceeds the load limit %d", req.N, maxLoadPoints))
		return
	}
	if req.D > subspace.MaxDim {
		s.error(w, http.StatusBadRequest,
			fmt.Sprintf("d = %d exceeds the supported maximum %d", req.D, subspace.MaxDim))
		return
	}
	// Fail fast on a name or capacity conflict before the expensive
	// build; reg.add re-checks under its lock, so a racing duplicate
	// still loses there.
	if err := s.reg.check(req.Name); err != nil {
		s.registryError(w, err)
		return
	}
	// One build at a time: loads are operator actions, not traffic,
	// and each one monopolises memory bandwidth and cores while it
	// preprocesses.
	select {
	case s.loadSem <- struct{}{}:
		defer func() { <-s.loadSem }()
	default:
		s.refuse(w, req.Name, overload.Bulk, errLoadInProgress)
		return
	}
	d, err := s.load(&req, set)
	if err != nil {
		s.error(w, http.StatusBadRequest, err.Error())
		return
	}
	if err := s.reg.add(d); err != nil {
		d.retire()
		s.registryError(w, err)
		return
	}
	info := d.info()
	s.writeJSON(w, http.StatusCreated, &info)
}

func (s *Server) handleEvictDataset(w http.ResponseWriter, r *http.Request) {
	var req evictRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	if req.Name == "" {
		s.error(w, http.StatusBadRequest, "set \"name\"")
		return
	}
	if err := s.reg.remove(req.Name); err != nil {
		s.registryError(w, err)
		return
	}
	s.writeJSON(w, http.StatusOK, map[string]string{"evicted": req.Name})
}

// fields returns the JSON names of the request's non-zero fields —
// what the client set, as far as a zero value can tell.
func (req *loadRequest) fields() []string {
	v := reflect.ValueOf(*req)
	var set []string
	for i := range v.NumField() {
		if !v.Field(i).IsZero() {
			name, _, _ := strings.Cut(v.Type().Field(i).Tag.Get("json"), ",")
			set = append(set, name)
		}
	}
	return set
}

// load turns a loadRequest into an entry: it generates the dataset, or
// reads the snapshot file from the data directory, and opens it under
// the request's miner parameters; set names the fields the request
// gave.
func (s *Server) load(req *loadRequest, set []string) (*dataset, error) {
	cfg := core.Config{
		K: req.K, T: req.T, TQuantile: req.TQuantile,
		SampleSize: req.Samples, Seed: req.Seed, Shards: req.Shards,
	}
	var err error
	if req.Backend != "" {
		if cfg.Backend, err = core.ParseBackend(req.Backend); err != nil {
			return nil, err
		}
	}
	if req.Policy != "" {
		if cfg.Policy, err = core.ParsePolicy(req.Policy); err != nil {
			return nil, err
		}
	}
	if req.Partitioner != "" {
		if cfg.Partitioner, err = shard.ParsePartitioner(req.Partitioner); err != nil {
			return nil, err
		}
	}
	if req.File == "" {
		snap, err := snapshot.Generate(req.Name, req.Gen, datagen.NamedConfig{
			N: req.N, D: req.D, Planted: req.Planted, Seed: req.Seed,
		})
		if err != nil {
			return nil, err
		}
		return s.open(req.Name, "", snap, cfg, set)
	}
	path, err := s.snapshotPath(req.File)
	if err != nil {
		return nil, err
	}
	snap, err := snapshot.LoadFile(path)
	if err != nil {
		return nil, err
	}
	if snap.Dataset.N() > maxLoadPoints {
		return nil, fmt.Errorf("snapshot holds %d points, exceeding the load limit %d", snap.Dataset.N(), maxLoadPoints)
	}
	return s.open(req.Name, path, snap, cfg, set)
}

// newDatasetEntry wraps a preprocessed miner in its serving state at
// epoch 0, with stable row IDs 0..N-1; norm is the dataset's
// normalization ranges (nil when it is served in raw units). Every
// base row is stamped with the load time: their true ingest times are
// unknown, and stamping "now" is the conservative choice — retention
// can never expire a row earlier than its policy allows, only later.
func (s *Server) newDatasetEntry(name string, m *core.Miner, norm []snapshot.ColumnRange, prov snapshot.Provenance) *dataset {
	d := &dataset{
		name:      name,
		guard:     overload.NewGuard(s.guardConfig()),
		created:   time.Now(),
		prov:      prov,
		normStats: norm,
		retention: retentionConfig{MaxAge: s.opts.RetentionAge, MaxRows: s.opts.RetentionRows},
	}
	n := m.Dataset().N()
	ids := make([]int64, n)
	stamps := make([]int64, n)
	now := time.Now().UnixNano()
	for i := range ids {
		ids[i] = int64(i)
		stamps[i] = now
	}
	d.cur.Store(s.newView(d, m, 0, ids, stamps, int64(n)))
	return d
}

// newView wraps a preprocessed miner in one immutable queryable epoch
// with its own result cache (bound to this miner's rows and threshold,
// so it cannot outlive the epoch). ids and stamps are parallel (stamps
// non-decreasing — the retention sweeper's prefix-expiry relies on
// it).
func (s *Server) newView(d *dataset, m *core.Miner, epoch int64, ids, stamps []int64, nextID int64) *view {
	return &view{
		miner:  m,
		cache:  newResultCache(s.opts.CacheSize),
		norm:   d.normStats,
		epoch:  epoch,
		ids:    ids,
		stamps: stamps,
		nextID: nextID,
	}
}

// guardConfig derives a per-dataset overload config from Options:
// explicit Overload fields win, and the gaps are filled with server
// defaults. Each zero class cap takes its default ceiling, and the
// adaptive limit tops out at the sum of the effective caps, so a
// healthy dataset admits every class up to its own cap; only under
// pressure does the shrinking limit bite (bulk first, then batch).
func (s *Server) guardConfig() overload.Config {
	cfg := s.opts.Overload
	defaults := [3]int{
		overload.Interactive: 4 * runtime.GOMAXPROCS(0),
		overload.Batch:       2,
		overload.Bulk:        1,
	}
	sum := 0
	for p, c := range cfg.ClassCaps {
		if c == 0 {
			cfg.ClassCaps[p] = defaults[p]
		}
		sum += cfg.ClassCaps[p]
	}
	if cfg.MaxLimit == 0 {
		cfg.MaxLimit = sum
	}
	if cfg.TargetP99 == 0 {
		cfg.TargetP99 = s.opts.QueryTimeout / 2
	}
	return cfg
}

// info renders the entry for /datasets and /stats.
func (d *dataset) info() datasetInfo {
	v := d.view()
	cfg := v.miner.Config()
	info := datasetInfo{
		Name:      d.name,
		N:         v.miner.Dataset().N(),
		D:         v.miner.Dataset().Dim(),
		K:         cfg.K,
		Threshold: v.miner.Threshold(),
		Policy:    cfg.Policy.String(),
		Backend:   cfg.Backend.String(),
		Shards:    v.miner.NumShards(),
		Epoch:     v.epoch,
		Queries:   d.queries.Load(),
		CreatedAt: d.created.UTC().Format(time.RFC3339),
		Default:   d.name == DefaultDatasetName,
	}
	if e := v.miner.ShardEngine(); e != nil {
		info.Partitioner = e.Config().Partitioner.String()
		info.ShardSizes = e.ShardSizes()
	}
	return info
}

// stats renders the entry for the /stats datasets section, including
// the cumulative per-shard work counters and the overload guard.
func (d *dataset) stats() DatasetStats {
	v := d.view()
	g := d.guard.Snapshot()
	out := DatasetStats{
		Name:    d.name,
		N:       v.miner.Dataset().N(),
		D:       v.miner.Dataset().Dim(),
		Shards:  v.miner.NumShards(),
		Queries: d.queries.Load(),
		Live: LiveStats{
			Epoch:                v.epoch,
			NextID:               v.nextID,
			Appends:              d.appends.Load(),
			AppendedRows:         d.appendedRows.Load(),
			AppendBatches:        d.appendBatches.Load(),
			Deletes:              d.deletes.Load(),
			DeletedRows:          d.deletedRows.Load(),
			Compactions:          d.compactions.Load(),
			WALBytes:             d.walBytes.Load(),
			WALRecords:           d.walRecords.Load(),
			WALSyncs:             d.walSyncs.Load(),
			RetentionSweeps:      d.retentionSweeps.Load(),
			RetentionExpiredRows: d.retentionExpired.Load(),
			ColumnRowsRecomputed: d.columnRows.Load(),
		},
		Overload: OverloadStats{
			BreakerState:     g.Breaker.State.String(),
			BreakerOpens:     g.Breaker.Opens,
			ConcurrencyLimit: g.Limiter.Limit,
			InFlight:         g.Limiter.Total,
			P99Ms:            float64(g.Limiter.P99) / float64(time.Millisecond),
			Received:         g.Received,
			Admitted:         g.Admitted,
			Shed:             g.Shed,
			ShedBreakerOpen:  g.ShedBreakerOpen,
			ShedCapacity:     g.ShedCapacity,
		},
	}
	if cfg := d.retentionCfg(); cfg.enabled() {
		if cfg.MaxAge > 0 {
			out.Live.RetentionMaxAge = cfg.MaxAge.String()
		}
		out.Live.RetentionMaxRows = cfg.MaxRows
	}
	if e := v.miner.ShardEngine(); e != nil {
		sizes := e.ShardSizes()
		work := e.ShardStats()
		out.PerShard = make([]ShardStats, len(sizes))
		for i := range sizes {
			out.PerShard[i] = ShardStats{
				Points:         sizes[i],
				Queries:        work[i].Queries,
				PointsExamined: work[i].PointsExamined,
				NodesVisited:   work[i].NodesVisited,
			}
		}
	}
	return out
}

// resolveDataset routes a request's dataset name to its entry,
// writing the 404 itself when the name is unknown.
func (s *Server) resolveDataset(w http.ResponseWriter, name string) (*dataset, bool) {
	d, ok := s.reg.resolve(name)
	if !ok {
		s.notFound(w, fmt.Sprintf("%s: %q (GET /datasets lists loaded ones)", ErrDatasetNotFound, name))
		return nil, false
	}
	return d, true
}
