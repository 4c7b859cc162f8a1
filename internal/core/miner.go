package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/knn"
	"repro/internal/od"
	"repro/internal/shard"
	"repro/internal/subspace"
	"repro/internal/vector"
)

// Backend selects the k-NN engine behind OD evaluation. It is
// shard.IndexKind, the one backend enum: the same values, spellings
// and threshold serve the unsharded index and every shard's.
type Backend = shard.IndexKind

const (
	// BackendAuto uses an X-tree for datasets of at least
	// shard.AutoXTreeThreshold rows and a linear scan below it.
	BackendAuto = shard.IndexAuto
	// BackendLinear always scans.
	BackendLinear = shard.IndexLinear
	// BackendXTree always uses the X-tree index (§3, "X-tree
	// Indexing" module).
	BackendXTree = shard.IndexXTree
)

// Config parameterises a Miner.
type Config struct {
	// K is the neighbourhood size of the OD measure (§2).
	K int
	// T is the paper's global outlying-degree threshold: p is an
	// outlier in s iff OD(p, s) ≥ T. Exactly one of T/TQuantile is
	// used: when TQuantile > 0, T is derived at Preprocess time as
	// that quantile of the full-space OD distribution over the
	// dataset.
	T         float64
	TQuantile float64
	// Metric is the distance metric (default L2, as the paper
	// implies).
	Metric vector.Metric
	// SampleSize is the number of sample points for the §3.2 learning
	// process. 0 disables learning (uniform priors are used for
	// queries too).
	SampleSize int
	// Seed drives sampling and PolicyRandom. The same seed reproduces
	// the same run bit-for-bit.
	Seed int64
	// Policy is the layer-ordering strategy (PolicyTSF = the paper).
	Policy Policy
	// Backend selects the k-NN engine.
	Backend Backend
	// Shards partitions the dataset across this many per-shard
	// indexes answered by scatter-gather (internal/shard). 0 means a
	// single unsharded index; any value ≥ 1 routes through the
	// scatter-gather engine (1 = one-shard engine, useful for
	// exercising the plumbing). Sharded answers are byte-identical to
	// unsharded ones (see shard.Merge); Backend then selects the
	// per-shard index, with BackendAuto applied shard by shard.
	Shards int
	// Partitioner assigns rows to shards when Shards > 1 (default
	// round-robin).
	Partitioner shard.Partitioner
}

// Validate checks the configuration against a dataset — the same
// checks NewMiner runs, exported so serialization layers can vet a
// deserialized Config before building anything from it.
func (c Config) Validate(ds *vector.Dataset) error {
	if ds == nil {
		return fmt.Errorf("core: nil dataset")
	}
	return c.validate(ds)
}

// MinRows is the smallest dataset size validate accepts for c: K must
// stay below the row count, and SampleSize and Shards within it.
// Retention sweeps keep at least this many rows, so an expiry policy
// degrades to "keep the newest rows" instead of failing the sweep.
func (c Config) MinRows() int {
	return max(c.K+1, c.SampleSize, c.Shards)
}

func (c *Config) validate(ds *vector.Dataset) error {
	if c.K < 1 {
		return fmt.Errorf("core: K = %d, need ≥ 1", c.K)
	}
	if c.K >= ds.N() {
		return fmt.Errorf("core: K = %d must be below dataset size %d", c.K, ds.N())
	}
	if !c.Metric.Valid() {
		return fmt.Errorf("core: invalid metric")
	}
	if c.TQuantile != 0 && !inOpenUnit(c.TQuantile) {
		return fmt.Errorf("core: TQuantile %v out of (0,1)", c.TQuantile)
	}
	if c.TQuantile == 0 && !positiveFinite(c.T) {
		return fmt.Errorf("core: T = %v, need a positive, finite T or a TQuantile in (0,1)", c.T)
	}
	if c.SampleSize < 0 || c.SampleSize > ds.N() {
		return fmt.Errorf("core: SampleSize %d out of [0,%d]", c.SampleSize, ds.N())
	}
	if !c.Policy.Valid() {
		return fmt.Errorf("core: invalid policy")
	}
	if c.Backend > BackendXTree {
		return fmt.Errorf("core: invalid backend")
	}
	if c.Shards < 0 {
		return fmt.Errorf("core: Shards = %d, need ≥ 0", c.Shards)
	}
	if c.Shards > ds.N() {
		return fmt.Errorf("core: Shards = %d exceeds dataset size %d", c.Shards, ds.N())
	}
	if !c.Partitioner.Valid() {
		return fmt.Errorf("core: invalid partitioner")
	}
	return nil
}

// positiveFinite is the rule for a threshold T, configured or
// restored; NaN fails it.
func positiveFinite(v float64) bool { return v > 0 && v <= math.MaxFloat64 }

// inOpenUnit is the rule for TQuantile; NaN fails it.
func inOpenUnit(v float64) bool { return v > 0 && v < 1 }

// Miner is the HOS-Miner system: dataset + index + learned priors.
// Construct with NewMiner, then call Preprocess once (indexing +
// learning), then OutlyingSubspaces per query.
//
// Concurrency: once Preprocess has run, or Restore built the Miner,
// every query, batch, scan and accessor method is safe for concurrent
// use. The dataset, index, per-row columns, threshold, priors and
// configuration are then read-only (WithAppendedBatch and WithoutRows
// only read them), and the only mutable state is the Miner's own
// evaluator pool and query counter, both safe for concurrent use.
// Every search borrows an od.Evaluator from that pool (its k-NN cursor carries
// mutable work counters and scratch) and returns it afterwards, so
// callers never handle evaluators. A caller that wants to own one —
// to keep its scratch warm across queries — builds it with
// NewWorkerEvaluator and passes it to QueryWith, one goroutine per
// evaluator. Preprocess (run lazily by the query methods on a fresh
// Miner) is a set-up step: run it before sharing the Miner. This is
// the contract internal/server is built on.
type Miner struct {
	cfg    Config
	ds     *vector.Dataset
	index  *shard.Index  // non-nil when Config.Shards is 0
	shards *shard.Engine // non-nil when Config.Shards ≥ 1

	threshold    float64
	priors       Priors
	learned      bool
	preprocessed bool

	learnStats LearnStats

	// fullOD and kthDist are the per-row columns of column.go: row i's
	// full-space OD and k-th-neighbour distance (nil when the Miner
	// keeps none). columnRows counts the rows this Miner computed.
	fullOD, kthDist []float64
	columnRows      int

	// querySeq numbers searches so PolicyRandom stays deterministic
	// per (seed, search) without a shared rng.
	querySeq atomic.Int64

	// evals is the Miner's one evaluator pool: every search in this
	// package borrows from it (see borrowEvaluator). Idle evaluators
	// keep their search scratch warm and may be dropped under memory
	// pressure.
	evals sync.Pool
}

// LearnStats summarises the §3.2 learning phase.
type LearnStats struct {
	Samples        int
	ODEvaluations  int64 // OD computations spent on sample searches
	SampledIndices []int
}

// NewMiner validates the configuration and builds the k-NN backend
// (but performs no learning yet; see Preprocess).
func NewMiner(ds *vector.Dataset, cfg Config) (*Miner, error) {
	return newMiner(ds, cfg, nil)
}

// assemble wires a Miner around its k-NN index — exactly one of index
// and engine is non-nil — with uniform priors, and seeds its evaluator
// pool with a first evaluator (which also proves the configuration
// can build one). It is the shared tail of newMiner and
// WithAppendedBatch.
func assemble(ds *vector.Dataset, cfg Config, index *shard.Index, engine *shard.Engine) (*Miner, error) {
	m := &Miner{
		cfg:    cfg,
		ds:     ds,
		index:  index,
		shards: engine,
		priors: UniformPriors(ds.Dim()),
	}
	eval, err := m.NewWorkerEvaluator()
	if err != nil {
		return nil, err
	}
	m.evals.Put(eval)
	return m, nil
}

// NewWorkerEvaluator builds an independent OD evaluator over the
// Miner's dataset and index for use by one goroutine at a time. The
// index is shared — it is immutable and safe for concurrent reads —
// so construction is cheap: only the k-NN cursor, its counters and
// the search scratch are per-evaluator. The Miner's pool builds its
// evaluators here; callers build one only to own it (see QueryWith).
func (m *Miner) NewWorkerEvaluator() (*od.Evaluator, error) {
	var srch knn.Searcher
	var err error
	if m.shards != nil {
		srch, err = m.shards.NewSearcher()
	} else {
		srch, err = m.index.NewSearcher()
	}
	if err != nil {
		return nil, err
	}
	return od.NewEvaluator(m.ds, srch, m.cfg.Metric, m.cfg.K, od.NormNone)
}

// borrowEvaluator takes an evaluator from the Miner's pool, building a
// fresh one when the pool is empty. Give it back with m.evals.Put;
// results that alias its scratch are invalid from then on.
func (m *Miner) borrowEvaluator() (*od.Evaluator, error) {
	if eval, ok := m.evals.Get().(*od.Evaluator); ok {
		return eval, nil
	}
	return m.NewWorkerEvaluator()
}

// Dataset returns the indexed dataset.
func (m *Miner) Dataset() *vector.Dataset { return m.ds }

// Threshold returns the effective T (resolved from TQuantile at
// Preprocess time when configured).
func (m *Miner) Threshold() float64 { return m.threshold }

// Priors returns the priors queries will use (learned when learning
// ran, uniform otherwise).
func (m *Miner) Priors() Priors { return m.priors }

// LearnStats returns the learning-phase summary (zero value before
// Preprocess).
func (m *Miner) LearnStats() LearnStats { return m.learnStats }

// ShardEngine returns the scatter-gather engine behind a sharded
// Miner, or nil when Config.Shards is 0. Callers use it for shard
// topology (sizes) and cumulative per-shard work counters; the engine
// is immutable and safe to read concurrently.
func (m *Miner) ShardEngine() *shard.Engine { return m.shards }

// NumShards returns the engine width the Miner serves from: the
// shard count of its scatter-gather engine, or 1 for an unsharded
// single-index Miner.
func (m *Miner) NumShards() int {
	if m.shards != nil {
		return m.shards.NumShards()
	}
	return 1
}

// Preprocess resolves the threshold and runs the sample-based
// learning process (§3.2): SampleSize points are drawn uniformly
// without replacement, each is searched with uniform priors, and the
// per-layer outlier fractions are averaged into the query priors.
// Preprocess is idempotent; repeated calls are no-ops. It mutates the
// Miner, so it must finish before the Miner is shared.
func (m *Miner) Preprocess() error {
	if m.preprocessed {
		return nil
	}

	// Resolve the threshold from the full-space OD column, filling
	// every row first when the Miner has no column.
	if m.cfg.TQuantile > 0 {
		if m.fullOD == nil {
			n := m.ds.N()
			m.fullOD, m.kthDist = make([]float64, n), make([]float64, n)
			if err := m.fillColumns(n, nil); err != nil {
				m.fullOD, m.kthDist = nil, nil
				return err
			}
		}
		t, err := vector.Quantile(m.fullOD, m.cfg.TQuantile)
		if err != nil {
			return fmt.Errorf("core: resolving TQuantile: %w", err)
		}
		if t <= 0 {
			return fmt.Errorf("core: TQuantile %v resolves to non-positive threshold %v (degenerate dataset)", m.cfg.TQuantile, t)
		}
		m.threshold = t
	} else {
		m.threshold = m.cfg.T
	}

	// Learning: the sample is the head of a Seed-derived permutation,
	// so the same seed samples the same rows on every build.
	if m.cfg.SampleSize > 0 {
		eval, err := m.borrowEvaluator()
		if err != nil {
			return err
		}
		defer m.evals.Put(eval)
		d := m.ds.Dim()
		uniform := UniformPriors(d)
		sampled := rand.New(rand.NewSource(m.cfg.Seed)).Perm(m.ds.N())[:m.cfg.SampleSize]
		perSample := make([]Priors, 0, len(sampled))
		var evals int64
		for _, idx := range sampled {
			res, err := m.search(context.Background(), eval, m.ds.Point(idx), idx, uniform, PolicyTSF)
			if err != nil {
				return fmt.Errorf("core: learning on sample %d: %w", idx, err)
			}
			perSample = append(perSample, PriorsFromResult(&res.SearchResult))
			evals += res.ODEvaluations
		}
		m.priors = SmoothPriors(averagePriors(perSample, d), len(perSample))
		m.learned = true
		m.learnStats = LearnStats{
			Samples:        len(sampled),
			ODEvaluations:  evals,
			SampledIndices: slices.Clone(sampled),
		}
	}
	m.preprocessed = true
	return nil
}

// QueryResult is what a caller receives for one query point.
//
// Results from the scratch-backed path (QueryWith) alias their
// evaluator's reusable buffers; Clone detaches them.
type QueryResult struct {
	SearchResult
	// Threshold is the effective T the search used.
	Threshold float64
	// ODEvaluations is the number of distinct OD computations this
	// query performed.
	ODEvaluations int64
	// IsOutlierAnywhere reports whether the point is an outlier in at
	// least one subspace (the paper: "if the answer set is empty for
	// p, we say that p is not an outlier in any subspace").
	IsOutlierAnywhere bool
}

// Clone returns a deep copy whose slices are independently owned —
// the way to retain a QueryWith result beyond the next query on the
// same evaluator. Nil and empty slices keep their shape.
func (r *QueryResult) Clone() *QueryResult {
	if r == nil {
		return nil
	}
	out := *r
	out.Outlying = cloneMasks(r.Outlying)
	out.Minimal = cloneMasks(r.Minimal)
	if r.LayerOrder != nil {
		out.LayerOrder = make([]int, len(r.LayerOrder))
		copy(out.LayerOrder, r.LayerOrder)
	}
	if r.PerLayerOutlierFrac != nil {
		out.PerLayerOutlierFrac = make([]float64, len(r.PerLayerOutlierFrac))
		copy(out.PerLayerOutlierFrac, r.PerLayerOutlierFrac)
	}
	return &out
}

// cloneMasks copies a mask slice preserving nil-ness and emptiness.
func cloneMasks(s []subspace.Mask) []subspace.Mask {
	if s == nil {
		return nil
	}
	out := make([]subspace.Mask, len(s))
	copy(out, s)
	return out
}

// OutlyingSubspaces finds every subspace in which the given point is
// an outlier, and the minimal set after refinement. The point may be
// external to the dataset. The result is owned by the caller.
func (m *Miner) OutlyingSubspaces(point []float64) (*QueryResult, error) {
	return m.query(point, -1)
}

// OutlyingSubspacesOfPoint runs the query for dataset member idx
// (self-excluded from its own neighbourhoods).
func (m *Miner) OutlyingSubspacesOfPoint(idx int) (*QueryResult, error) {
	if idx < 0 || idx >= m.ds.N() {
		return nil, fmt.Errorf("core: point index %d out of range [0,%d)", idx, m.ds.N())
	}
	return m.query(m.ds.Point(idx), idx)
}

// query runs a lazy Preprocess, then answers one query on a borrowed
// evaluator and detaches the result from its scratch.
func (m *Miner) query(point []float64, exclude int) (*QueryResult, error) {
	if err := m.Preprocess(); err != nil {
		return nil, err
	}
	eval, err := m.borrowEvaluator()
	if err != nil {
		return nil, err
	}
	defer m.evals.Put(eval)
	res, err := m.QueryWith(eval, point, exclude)
	if err != nil {
		return nil, err
	}
	return res.Clone(), nil
}
