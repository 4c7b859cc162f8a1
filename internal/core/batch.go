package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/od"
	"repro/internal/subspace"
)

// This file is the batch query engine: many outlying-subspace queries
// evaluated through one shared, bounded, concurrency-safe memo of OD
// evaluations (od.SharedCache) and one evaluator pool, instead of
// rebuilding per-point state query by query. Duplicate or repeated
// points — the common shape of multi-user traffic — pay for each
// distinct (point, subspace) OD evaluation once per batch.

// batchKind discriminates the two item forms; the zero value marks an
// unconstructed (invalid) item.
type batchKind uint8

const (
	batchKindEmpty batchKind = iota
	batchKindRow
	batchKindPoint
)

// BatchQuery is one item of a QueryBatch: a dataset row or an
// external point. Build items with BatchIndex / BatchPoint — the
// fields are unexported precisely so an accidental zero value or
// half-filled literal cannot silently address row 0; a zero BatchQuery
// is reported as a per-item error.
type BatchQuery struct {
	kind  batchKind
	index int
	point []float64
}

// BatchIndex makes a BatchQuery for dataset row idx.
func BatchIndex(idx int) BatchQuery { return BatchQuery{kind: batchKindRow, index: idx} }

// BatchPoint makes a BatchQuery for an external point.
func BatchPoint(p []float64) BatchQuery { return BatchQuery{kind: batchKindPoint, point: p} }

// Row returns the dataset row the item addresses, or (0, false) for
// external-point and zero-value items.
func (q BatchQuery) Row() (int, bool) { return q.index, q.kind == batchKindRow }

// ExternalPoint returns the external point the item addresses, or
// (nil, false).
func (q BatchQuery) ExternalPoint() ([]float64, bool) { return q.point, q.kind == batchKindPoint }

// BatchOptions tunes QueryBatch. The zero value selects the defaults
// noted on each field.
type BatchOptions struct {
	// Workers is the evaluation fan-out (≤ 0 selects GOMAXPROCS;
	// always clamped to the batch size). At Workers = 1 the batch runs
	// inline on the calling goroutine — no fan-out machinery at all.
	Workers int
	// CacheCapacity bounds the shared per-batch OD cache in entries
	// (0 = od.DefaultSharedCacheCapacity; negative disables sharing,
	// leaving each item with only its private per-query cache).
	CacheCapacity int
	// Pool, when non-nil, supplies worker evaluators (e.g. a serving
	// layer's long-lived pool); nil uses the Miner's shared default
	// pool, so back-to-back batches reuse warmed evaluators.
	Pool *EvaluatorPool
	// Reuse, when non-nil, recycles a previous batch's result storage
	// (item table, per-item result structs and the mask/int/float
	// arenas behind their slices) instead of allocating fresh — the
	// zero-allocation steady state for callers that fully consume each
	// BatchResult before issuing the next batch. The returned
	// *BatchResult is then Reuse itself, and every slice handed out by
	// the previous batch is invalidated. After an error return the
	// recycled storage is in an unspecified state; do not read it.
	Reuse *BatchResult
}

// BatchItemResult is the outcome of one batch item: exactly one of
// Result and Err is non-nil.
type BatchItemResult struct {
	Result *QueryResult
	Err    error
}

// BatchCacheStats summarises the shared per-batch OD cache (zeros
// when sharing was disabled).
type BatchCacheStats struct {
	// Hits is the number of OD probes answered by a sibling query's
	// earlier work; Misses is the number of OD evaluations actually
	// computed through the shared cache.
	Hits   int64
	Misses int64
	// Evictions counts entries displaced by CacheCapacity.
	Evictions int64
	// Entries is the resident size when the batch finished.
	Entries int
}

// BatchResult is the outcome of a QueryBatch: per-item results in
// input order plus batch-wide accounting. Item results are copied out
// of the workers' evaluator scratch into storage owned by the
// BatchResult, so they stay valid for as long as the caller keeps it
// (or until it is recycled via BatchOptions.Reuse).
type BatchResult struct {
	// Items has exactly one entry per input query, in input order.
	Items []BatchItemResult
	// Succeeded and Failed count the two item outcomes.
	Succeeded int
	Failed    int
	// Cache is the shared OD cache accounting.
	Cache BatchCacheStats

	// Recycled storage (see BatchOptions.Reuse): the per-item result
	// structs Items point into and the per-worker arenas their slices
	// are carved from.
	results []QueryResult
	arenas  []resultArena
	// run is the multi-worker fan-out machinery (work cursor,
	// WaitGroup, per-worker error slots, the spawned func), kept here
	// so the Reuse contract covers coordination state too: a recycled
	// parallel batch re-arms it instead of allocating a fresh closure,
	// error slice and boxed counters per call.
	run batchRun
}

// batchRun is the coordination state of one multi-worker QueryBatch.
// The transient fields (miner, ctx, queries, cache, pool) are armed at
// the start of a parallel batch and cleared before QueryBatch returns,
// so a retained BatchResult pins result storage only — never a context
// or a cache. Workers draw their identity from seq and their next item
// from next; both are reset per batch.
type batchRun struct {
	m       *Miner
	ctx     context.Context
	queries []BatchQuery
	shared  *od.SharedCache
	pool    *EvaluatorPool
	res     *BatchResult
	next    atomic.Int64
	seq     atomic.Int64
	wg      sync.WaitGroup
	errs    []error
	// work is r.worker as a func value, bound once per BatchResult
	// lifetime: `go r.work()` spawns without re-allocating the closure
	// every batch the way `go func(){...}()` in the loop would.
	work func()
}

// arm prepares the run for one parallel batch of the given width.
func (r *batchRun) arm(m *Miner, ctx context.Context, queries []BatchQuery, shared *od.SharedCache, pool *EvaluatorPool, res *BatchResult, workers int) {
	r.m, r.ctx, r.queries, r.shared, r.pool, r.res = m, ctx, queries, shared, pool, res
	r.next.Store(0)
	r.seq.Store(0)
	if cap(r.errs) < workers {
		r.errs = make([]error, workers)
	} else {
		r.errs = r.errs[:workers]
		clear(r.errs)
	}
	if r.work == nil {
		r.work = r.worker
	}
}

// disarm drops the transient references armed for the batch.
func (r *batchRun) disarm() {
	r.m, r.ctx, r.queries, r.shared, r.pool, r.res = nil, nil, nil, nil, nil, nil
}

// worker is one fan-out goroutine: claim an identity, borrow an
// evaluator, then drain items off the shared cursor.
func (r *batchRun) worker() {
	defer r.wg.Done()
	w := int(r.seq.Add(1)) - 1
	eval, err := r.pool.Get()
	if err != nil {
		r.errs[w] = err
		return
	}
	defer r.pool.Put(eval)
	arena := &r.res.arenas[w]
	for {
		i := int(r.next.Add(1)) - 1
		if i >= len(r.queries) {
			return
		}
		if err := r.ctx.Err(); err != nil {
			r.errs[w] = err
			return
		}
		r.res.Items[i] = r.m.batchOne(r.ctx, eval, r.queries[i], r.shared, arena, &r.res.results[i])
		if err := r.ctx.Err(); err != nil {
			r.errs[w] = err
			return
		}
	}
}

// reset prepares the result for a batch of n items over the given
// worker count, reusing existing capacity.
func (r *BatchResult) reset(n, workers int) {
	if cap(r.Items) < n {
		r.Items = make([]BatchItemResult, n)
	} else {
		r.Items = r.Items[:n]
		clear(r.Items)
	}
	if cap(r.results) < n {
		r.results = make([]QueryResult, n)
	} else {
		r.results = r.results[:n]
	}
	for len(r.arenas) < workers {
		r.arenas = append(r.arenas, resultArena{})
	}
	for i := range r.arenas {
		r.arenas[i].reset()
	}
	r.Succeeded, r.Failed = 0, 0
	r.Cache = BatchCacheStats{}
}

// resultArena is append-only backing storage for the slices of one
// worker's item results. Growth may reallocate the arena slice, but
// previously handed-out sub-slices keep pointing at the old backing
// array, which stays alive through them — so earlier items are never
// invalidated mid-batch.
type resultArena struct {
	masks  []subspace.Mask
	ints   []int
	floats []float64
}

func (a *resultArena) reset() {
	a.masks = a.masks[:0]
	a.ints = a.ints[:0]
	a.floats = a.floats[:0]
}

// Shared zero-length backings so cloning an empty-but-non-nil slice
// preserves its shape without touching the arena.
var (
	emptyMasks  = make([]subspace.Mask, 0)
	emptyInts   = make([]int, 0)
	emptyFloats = make([]float64, 0)
)

func (a *resultArena) cloneMasks(src []subspace.Mask) []subspace.Mask {
	if src == nil {
		return nil
	}
	if len(src) == 0 {
		return emptyMasks
	}
	start := len(a.masks)
	a.masks = append(a.masks, src...)
	return a.masks[start:len(a.masks):len(a.masks)]
}

func (a *resultArena) cloneInts(src []int) []int {
	if src == nil {
		return nil
	}
	if len(src) == 0 {
		return emptyInts
	}
	start := len(a.ints)
	a.ints = append(a.ints, src...)
	return a.ints[start:len(a.ints):len(a.ints)]
}

func (a *resultArena) cloneFloats(src []float64) []float64 {
	if src == nil {
		return nil
	}
	if len(src) == 0 {
		return emptyFloats
	}
	start := len(a.floats)
	a.floats = append(a.floats, src...)
	return a.floats[start:len(a.floats):len(a.floats)]
}

// QueryBatch evaluates many outlying-subspace queries as one unit of
// work: items fan out over opts.Workers goroutines that borrow
// evaluators from one pool and memoise OD evaluations in one shared
// bounded cache, so duplicated points across the batch are answered
// from each other's work. Answers are identical to running each item
// through OutlyingSubspaces / OutlyingSubspacesOfPoint — the shared
// cache stores deterministic OD values, never decisions.
//
// Item-level problems (index out of range, dimension mismatch,
// ambiguous item) are reported per item in BatchResult.Items, and the
// rest of the batch still completes. QueryBatch itself errors only on
// setup failure or context cancellation; cancellation is noticed
// between items and mid-search (see SearchContext), so an abandoned
// batch frees its workers promptly.
//
// Like ScanAll, a first QueryBatch on a fresh Miner
// runs Preprocess lazily (from the calling goroutine, before workers
// fan out); once the Miner is preprocessed, any number of QueryBatch,
// QueryWith and scan calls may run concurrently.
//
//hos:hotpath
func (m *Miner) QueryBatch(ctx context.Context, queries []BatchQuery, opts BatchOptions) (*BatchResult, error) {
	if err := m.Preprocess(); err != nil {
		return nil, err
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(queries) {
		workers = len(queries)
	}
	res := resultFor(opts.Reuse)
	res.reset(len(queries), workers)
	if len(queries) == 0 {
		return res, nil
	}
	pool := m.poolFor(opts.Pool)
	shared := m.sharedCacheFor(opts.CacheCapacity)
	defer m.releaseSharedCache(shared)

	if workers == 1 {
		// Inline path: no goroutines, no WaitGroup — the calling
		// goroutine is the one worker. This is both the GOMAXPROCS=1
		// default and the deterministic zero-allocation steady state.
		eval, err := pool.Get()
		if err != nil {
			return nil, err
		}
		defer pool.Put(eval)
		arena := &res.arenas[0]
		for i := range queries {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			res.Items[i] = m.batchOne(ctx, eval, queries[i], shared, arena, &res.results[i])
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
	} else {
		if err := m.queryBatchParallel(ctx, queries, shared, pool, res, workers); err != nil {
			return nil, err
		}
	}
	for _, item := range res.Items {
		if item.Err != nil {
			res.Failed++
		} else {
			res.Succeeded++
		}
	}
	st := shared.Stats()
	res.Cache = BatchCacheStats{
		Hits:      st.Hits,
		Misses:    st.Misses,
		Evictions: st.Evictions,
		Entries:   st.Entries,
	}
	return res, nil
}

// queryBatchParallel is the fan-out arm of QueryBatch: arm the
// recycled run state, launch the workers, wait, and surface the first
// worker error. It lives outside the //hos:hotpath annotation on
// purpose — the goroutine launches are the deliberate cost of the
// parallel mode (their coordination state is still recycled through
// the BatchResult, so the arm stays 0 allocs/op steady-state).
func (m *Miner) queryBatchParallel(ctx context.Context, queries []BatchQuery, shared *od.SharedCache, pool *EvaluatorPool, res *BatchResult, workers int) error {
	run := &res.run
	run.arm(m, ctx, queries, shared, pool, res, workers)
	run.wg.Add(workers)
	for w := 0; w < workers; w++ {
		go run.work()
	}
	run.wg.Wait()
	var failed error
	for _, err := range run.errs {
		if err != nil {
			failed = err
			break
		}
	}
	run.disarm()
	return failed
}

// resultFor returns the result to fill: the caller's recycled one, or
// a fresh BatchResult.
func resultFor(reuse *BatchResult) *BatchResult {
	if reuse == nil {
		return &BatchResult{}
	}
	return reuse
}

// poolFor returns the evaluator pool to borrow from: the caller's, or
// the Miner's lazily built default.
func (m *Miner) poolFor(p *EvaluatorPool) *EvaluatorPool {
	if p != nil {
		return p
	}
	m.defaultPoolOnce.Do(func() { m.defaultPool = m.NewEvaluatorPool() })
	return m.defaultPool
}

// sharedCacheFor borrows a pooled per-batch OD cache (capacity ≥ 0),
// or returns nil when capacity is negative (sharing disabled).
func (m *Miner) sharedCacheFor(capacity int) *od.SharedCache {
	if capacity < 0 {
		return nil
	}
	if v := m.cachePool.Get(); v != nil {
		c := v.(*od.SharedCache)
		c.Reset(capacity)
		return c
	}
	return od.NewSharedCache(capacity)
}

// releaseSharedCache returns a borrowed cache to the pool. Safe at
// the end of a batch: BatchResult carries only a stats snapshot, the
// workers have all exited.
func (m *Miner) releaseSharedCache(c *od.SharedCache) {
	if c != nil {
		m.cachePool.Put(c)
	}
}

// batchOne validates and evaluates a single batch item, copying the
// evaluator-scratch result into slot with its slices carved from the
// worker's arena — the item result then lives as long as the
// BatchResult, independent of the evaluator's next query.
func (m *Miner) batchOne(ctx context.Context, eval *od.Evaluator, q BatchQuery, shared *od.SharedCache, arena *resultArena, slot *QueryResult) BatchItemResult {
	var point []float64
	exclude := -1
	switch q.kind {
	case batchKindRow:
		if q.index < 0 || q.index >= m.ds.N() {
			return BatchItemResult{Err: fmt.Errorf("core: batch index %d out of range [0,%d)", q.index, m.ds.N())}
		}
		point = m.ds.Point(q.index)
		exclude = q.index
	case batchKindPoint:
		if len(q.point) != m.ds.Dim() {
			return BatchItemResult{Err: fmt.Errorf("core: batch point has %d dims, dataset %d", len(q.point), m.ds.Dim())}
		}
		point = q.point
	default:
		return BatchItemResult{Err: fmt.Errorf("core: empty batch item (use BatchIndex or BatchPoint)")}
	}
	r, err := m.searchOne(ctx, eval, point, exclude, shared)
	if err != nil {
		return BatchItemResult{Err: err}
	}
	*slot = *r
	slot.Outlying = arena.cloneMasks(r.Outlying)
	slot.Minimal = arena.cloneMasks(r.Minimal)
	slot.LayerOrder = arena.cloneInts(r.LayerOrder)
	slot.PerLayerOutlierFrac = arena.cloneFloats(r.PerLayerOutlierFrac)
	return BatchItemResult{Result: slot}
}
