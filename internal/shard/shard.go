// Package shard partitions a dataset across N shards, each with its
// own k-NN backend index, and answers neighbourhood queries by
// scatter-gather: every (point, subspace) probe fans out to all shards
// in parallel, each shard returns its local k nearest neighbours, and
// the partials are merged into the exact global answer.
//
// The merge is exact, not approximate: the global k nearest
// neighbours of a query each live in some shard, and within that
// shard nothing can outrank them, so each one appears in its shard's
// local top-k. The union of the per-shard top-k lists therefore
// contains the global top-k, and selecting the k best by the same
// (distance, index) order every Searcher already guarantees
// reproduces the single-index answer byte for byte — both backends
// compute a point's distance with the identical float operations
// regardless of which shard holds it. Since the Outlying Degree (§2)
// is the distance sum over exactly that neighbour set, a sharded
// OD equals the unsharded OD bit for bit; internal/conformance
// asserts this across shard counts, partitioners and policies.
package shard

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/knn"
	"repro/internal/subspace"
	"repro/internal/vector"
)

// Partitioner selects how dataset rows are assigned to shards. Both
// strategies are deterministic: the same dataset and shard count
// always produce the same partition.
type Partitioner uint8

const (
	// RoundRobin deals rows to shards in turn (row i → shard i mod N):
	// perfectly balanced and oblivious to the data.
	RoundRobin Partitioner = iota
	// HashPoint assigns each row by an FNV-1a hash of its coordinate
	// bit patterns, so a point's shard is a function of its value, not
	// its position — stable under row reordering, at the cost of
	// statistical (not exact) balance.
	HashPoint
)

// String names the partitioner (the spelling ParsePartitioner accepts).
func (p Partitioner) String() string {
	switch p {
	case RoundRobin:
		return "roundrobin"
	case HashPoint:
		return "hash"
	default:
		return fmt.Sprintf("Partitioner(%d)", uint8(p))
	}
}

// Valid reports whether p is a defined partitioner.
func (p Partitioner) Valid() bool { return p <= HashPoint }

// ParsePartitioner parses the CLI spelling of a Partitioner — the
// inverse of Partitioner.String.
func ParsePartitioner(s string) (Partitioner, error) {
	switch s {
	case "roundrobin", "round-robin":
		return RoundRobin, nil
	case "hash":
		return HashPoint, nil
	default:
		return 0, fmt.Errorf("shard: unknown partitioner %q (have roundrobin|hash)", s)
	}
}

// Assign returns the shard in [0, shards) for dataset row idx with
// coordinates point.
func (p Partitioner) Assign(idx int, point []float64, shards int) int {
	if shards <= 1 {
		return 0
	}
	switch p {
	case HashPoint:
		const (
			offset64 = 14695981039346656037
			prime64  = 1099511628211
		)
		h := uint64(offset64)
		for _, v := range point {
			bits := math.Float64bits(v)
			for b := 0; b < 64; b += 8 {
				h = (h ^ (bits >> b & 0xff)) * prime64
			}
		}
		return int(h % uint64(shards))
	default: // RoundRobin
		return idx % shards
	}
}

// Config parameterises an Engine.
type Config struct {
	// Shards is the partition width (≥ 1; 1 degrades to a single
	// index behind the scatter-gather plumbing).
	Shards int
	// Partitioner assigns rows to shards (default RoundRobin).
	Partitioner Partitioner
	// Metric is the distance metric shared by every shard index.
	Metric vector.Metric
	// Index selects the per-shard backend (default IndexAuto, applied
	// to each shard's size).
	Index IndexKind
}

// partition is one shard: the immutable index over its copied
// sub-dataset, and its local→global row mapping. Everything here is
// read-only after NewEngine.
type partition struct {
	index  *Index
	global []int // local row → global row
}

// shardCounters aggregates work across all Searchers, per shard.
type shardCounters struct {
	queries        atomic.Int64
	pointsExamined atomic.Int64
	nodesVisited   atomic.Int64
}

// Engine is the immutable heart of the sharded backend: the partition
// of one dataset plus the per-shard indexes. Build one Engine per
// dataset, then give each worker goroutine its own Searcher via
// NewSearcher — the Engine itself is safe for any number of
// concurrent readers.
type Engine struct {
	ds      *vector.Dataset
	cfg     Config
	parts   []*partition
	shardOf []int32 // global row → owning shard
	localOf []int32 // global row → local row within its shard
	work    []shardCounters
	// parallel is the fan-out decision, taken once at construction:
	// probing it per KNN call via runtime.GOMAXPROCS(0) would take the
	// scheduler lock on the hottest path in the system.
	parallel bool
}

// NewEngine partitions ds and builds one index per shard.
func NewEngine(ds *vector.Dataset, cfg Config) (*Engine, error) {
	return newEngine(ds, cfg, nil)
}

// NewEngineFromEncoded is NewEngine with warm-started per-shard
// indexes: encoded[s] holds the Index.Encode bytes of shard s (nil for
// shards the configuration backs with a linear scan). The partition
// itself is recomputed — it is a pure function of (dataset, config) —
// and each shard's bytes go through DecodeIndex against its
// sub-dataset, so a snapshot restore skips the index build but not the
// integrity and shape checks.
func NewEngineFromEncoded(ds *vector.Dataset, cfg Config, encoded [][]byte) (*Engine, error) {
	if encoded == nil {
		return nil, fmt.Errorf("shard: nil encoded tree set")
	}
	return newEngine(ds, cfg, encoded)
}

func newEngine(ds *vector.Dataset, cfg Config, encoded [][]byte) (*Engine, error) {
	if ds == nil {
		return nil, fmt.Errorf("shard: nil dataset")
	}
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("shard: %d shards, need ≥ 1", cfg.Shards)
	}
	if cfg.Shards > ds.N() {
		return nil, fmt.Errorf("shard: %d shards exceed the %d dataset points", cfg.Shards, ds.N())
	}
	if !cfg.Partitioner.Valid() {
		return nil, fmt.Errorf("shard: invalid partitioner %v", cfg.Partitioner)
	}
	if encoded != nil && len(encoded) != cfg.Shards {
		return nil, fmt.Errorf("shard: %d encoded trees for %d shards", len(encoded), cfg.Shards)
	}

	n, d := ds.N(), ds.Dim()
	e := &Engine{
		ds:       ds,
		cfg:      cfg,
		parts:    make([]*partition, cfg.Shards),
		shardOf:  make([]int32, n),
		localOf:  make([]int32, n),
		work:     make([]shardCounters, cfg.Shards),
		parallel: cfg.Shards > 1 && runtime.GOMAXPROCS(0) > 1,
	}

	rows := make([][]int, cfg.Shards)
	for i := 0; i < n; i++ {
		s := cfg.Partitioner.Assign(i, ds.Point(i), cfg.Shards)
		e.shardOf[i] = int32(s)
		e.localOf[i] = int32(len(rows[s]))
		rows[s] = append(rows[s], i)
	}

	for s := range e.parts {
		flat := make([]float64, 0, len(rows[s])*d)
		for _, g := range rows[s] {
			flat = append(flat, ds.Point(g)...)
		}
		sub, err := vector.NewDataset(flat, len(rows[s]), d)
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", s, err)
		}
		var idx *Index
		if encoded == nil {
			idx, err = NewIndex(sub, cfg.Metric, cfg.Index)
		} else {
			idx, err = DecodeIndex(sub, cfg.Metric, cfg.Index, encoded[s])
		}
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", s, err)
		}
		e.parts[s] = &partition{index: idx, global: rows[s]}
	}
	return e, nil
}

// EncodedTrees serializes every shard's index for snapshotting: entry
// s is shard s's Index.Encode bytes, nil when the shard is backed by a
// linear scan. NewEngineFromEncoded accepts the result, given the same
// dataset and configuration.
func (e *Engine) EncodedTrees() ([][]byte, error) {
	out := make([][]byte, len(e.parts))
	for s, p := range e.parts {
		enc, err := p.index.Encode()
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", s, err)
		}
		out[s] = enc
	}
	return out, nil
}

// NumShards returns the partition width.
func (e *Engine) NumShards() int { return len(e.parts) }

// ShardSizes returns the number of points resident in each shard.
func (e *Engine) ShardSizes() []int {
	out := make([]int, len(e.parts))
	for i, p := range e.parts {
		out[i] = p.index.ds.N()
	}
	return out
}

// ShardOf returns the shard owning global row idx.
func (e *Engine) ShardOf(idx int) int { return int(e.shardOf[idx]) }

// Config returns the Engine's configuration.
func (e *Engine) Config() Config { return e.cfg }

// ShardStats returns cumulative per-shard work counters aggregated
// across every Searcher the Engine has handed out.
func (e *Engine) ShardStats() []knn.SearchStats {
	out := make([]knn.SearchStats, len(e.work))
	for i := range e.work {
		out[i] = knn.SearchStats{
			Queries:        e.work[i].queries.Load(),
			PointsExamined: e.work[i].pointsExamined.Load(),
			NodesVisited:   e.work[i].nodesVisited.Load(),
		}
	}
	return out
}

// NewSearcher builds a scatter-gather cursor over every shard for use
// by one goroutine at a time — the per-worker analogue of
// knn.NewLinear / xtree.NewSearcher. Construction is cheap (one
// cursor per shard); the heavy per-shard indexes are shared.
func (e *Engine) NewSearcher() (*Searcher, error) {
	subs := make([]knn.Searcher, len(e.parts))
	for s := range subs {
		sub, err := e.parts[s].index.NewSearcher()
		if err != nil {
			return nil, err
		}
		subs[s] = sub
	}
	return &Searcher{engine: e, subs: subs}, nil
}

// Searcher implements knn.Searcher by scatter-gather over the
// Engine's shards. One Searcher serves one goroutine at a time; any
// number of Searchers from the same Engine may run concurrently. See
// knn.Searcher for the scratch-ownership contract: the returned slice
// (backed by the merge heap) is valid until the next KNN call.
type Searcher struct {
	engine   *Engine
	subs     []knn.Searcher
	queries  atomic.Int64
	partials [][]knn.Neighbor // per-shard result table, reused
	merge    knn.BoundedHeap  // global top-k, backs the returned slice
}

// probeShard runs the query on shard i's cursor, remaps local indices
// to global rows and charges the work to the engine's shard counters.
// The returned slice aliases the sub-searcher's scratch.
func (s *Searcher) probeShard(i int, query []float64, sub subspace.Mask, k int, exclude int) []knn.Neighbor {
	e := s.engine
	localExclude := -1
	if exclude >= 0 && int(e.shardOf[exclude]) == i {
		localExclude = int(e.localOf[exclude])
	}
	before := s.subs[i].Stats()
	nbs := s.subs[i].KNN(query, sub, k, localExclude)
	delta := s.subs[i].Stats()
	delta.Queries -= before.Queries
	delta.PointsExamined -= before.PointsExamined
	delta.NodesVisited -= before.NodesVisited
	global := e.parts[i].global
	for j := range nbs {
		nbs[j].Index = global[nbs[j].Index]
	}
	e.work[i].queries.Add(delta.Queries)
	e.work[i].pointsExamined.Add(delta.PointsExamined)
	e.work[i].nodesVisited.Add(delta.NodesVisited)
	return nbs
}

// KNN implements knn.Searcher: fan the probe out to every shard in
// parallel, remap each shard's local indices to global rows, and merge
// the partials into the exact global top-k.
//
//hos:hotpath
func (s *Searcher) KNN(query []float64, sub subspace.Mask, k int, exclude int) []knn.Neighbor {
	s.queries.Add(1)
	if k <= 0 || sub.IsEmpty() {
		return nil
	}
	e := s.engine
	if cap(s.partials) < len(s.subs) {
		s.partials = make([][]knn.Neighbor, len(s.subs))
	}
	partials := s.partials[:len(s.subs)]
	if !e.parallel {
		// No parallelism to win (single shard, or a single-core box at
		// engine-build time, where goroutine handoffs only add
		// latency): probe in place. The merged answer is identical
		// either way, and this path allocates nothing in steady state.
		for i := range s.subs {
			partials[i] = s.probeShard(i, query, sub, k, exclude)
		}
	} else {
		s.fanOut(partials, query, sub, k, exclude)
	}
	return mergeInto(&s.merge, k, partials)
}

// fanOut is the parallel arm of KNN: shards 1..n-1 probe on their own
// goroutines while shard 0 probes in place (one fewer handoff). It
// lives outside the //hos:hotpath annotation on purpose — the
// goroutine launches and their closure are the deliberate cost of the
// multicore mode, bought back by the shards=4 speedup floor in CI.
func (s *Searcher) fanOut(partials [][]knn.Neighbor, query []float64, sub subspace.Mask, k, exclude int) {
	var wg sync.WaitGroup
	for i := 1; i < len(s.subs); i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			partials[i] = s.probeShard(i, query, sub, k, exclude)
		}(i)
	}
	partials[0] = s.probeShard(0, query, sub, k, exclude)
	wg.Wait()
}

// Stats implements knn.Searcher: scatter-gather probes issued through
// this cursor plus the per-shard point/node work they caused. Safe to
// call concurrently with the querying goroutine.
func (s *Searcher) Stats() knn.SearchStats {
	out := knn.SearchStats{Queries: s.queries.Load()}
	for _, sub := range s.subs {
		st := sub.Stats()
		out.PointsExamined += st.PointsExamined
		out.NodesVisited += st.NodesVisited
	}
	return out
}

// ResetStats implements knn.Searcher.
func (s *Searcher) ResetStats() {
	s.queries.Store(0)
	for _, sub := range s.subs {
		sub.ResetStats()
	}
}

// Merge folds per-shard top-k lists into the global top-k, preserving
// the Searcher contract order (ascending distance, ties by ascending
// global index). It is symmetric in its inputs: any permutation of
// the partials, or of the items within one partial, yields the same
// answer — the property test in internal/conformance pins this down.
// It runs the same merge as Searcher.KNN, into a fresh heap.
func Merge(k int, partials ...[]knn.Neighbor) []knn.Neighbor {
	return mergeInto(knn.NewBoundedHeap(k), k, partials)
}

// mergeInto is the one k-NN merge: it folds the partials into h,
// reset to capacity k, and returns h's sorted contents (which alias
// h's storage). Searcher.KNN passes its reused heap; Merge a fresh one.
//
//hos:hotpath
func mergeInto(h *knn.BoundedHeap, k int, partials [][]knn.Neighbor) []knn.Neighbor {
	h.Reset(k)
	for _, part := range partials {
		for _, nb := range part {
			h.Push(nb.Index, nb.Dist)
		}
	}
	return h.Sorted()
}
