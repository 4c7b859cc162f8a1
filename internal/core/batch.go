package core

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/od"
	"repro/internal/subspace"
)

// This file is the batch query engine: many outlying-subspace queries
// evaluated over one evaluator pool by a bounded worker fan-out, into
// result storage the caller can recycle. Identical items — the common
// shape of multi-user traffic — are evaluated once: the first
// occurrence runs the search and every repeat receives a copy of its
// answer.

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
	// always clamped to the number of distinct items). At Workers = 1
	// the batch runs inline on the calling goroutine — no fan-out
	// machinery at all.
	Workers int
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

// BatchResult is the outcome of a QueryBatch: per-item results in
// input order plus outcome counts. Item results are copied out of the
// workers' evaluator scratch into storage owned by the BatchResult, so
// they stay valid for as long as the caller keeps it (or until it is
// recycled via BatchOptions.Reuse). A repeated item's Result is a copy
// of its first occurrence's, sharing its slices, with ODEvaluations 0.
type BatchResult struct {
	// Items has exactly one entry per input query, in input order.
	Items []BatchItemResult
	// Succeeded and Failed count the two item outcomes.
	Succeeded int
	Failed    int

	// Recycled storage (see BatchOptions.Reuse): the per-item result
	// structs Items point into, the per-worker arenas their slices
	// are carved from, and the grouping of identical items.
	results []QueryResult
	arenas  []resultArena
	dedup   batchDedup
	// run is the multi-worker fan-out machinery (work cursor,
	// WaitGroup, per-worker error slots, the spawned func), kept here
	// so the Reuse contract covers coordination state too: a recycled
	// parallel batch re-arms it instead of allocating a fresh closure,
	// error slice and boxed counters per call.
	run batchRun
}

// batchRun is the coordination state of one multi-worker QueryBatch.
// The transient fields (miner, ctx, queries, pool) are armed at the
// start of a parallel batch and cleared before QueryBatch returns, so
// a retained BatchResult pins result storage only — never a context
// or the caller's items. Workers draw their identity from seq and
// their next distinct item from next; both are reset per batch.
type batchRun struct {
	m       *Miner
	ctx     context.Context
	queries []BatchQuery
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
func (r *batchRun) arm(m *Miner, ctx context.Context, queries []BatchQuery, pool *EvaluatorPool, res *BatchResult, workers int) {
	r.m, r.ctx, r.queries, r.pool, r.res = m, ctx, queries, pool, res
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
	r.m, r.ctx, r.queries, r.pool, r.res = nil, nil, nil, nil, nil
}

// worker is one fan-out goroutine: claim an identity, borrow an
// evaluator, then drain distinct items off the shared cursor.
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
	work := r.res.dedup.work
	for {
		k := int(r.next.Add(1)) - 1
		if k >= len(work) {
			return
		}
		if err := r.ctx.Err(); err != nil {
			r.errs[w] = err
			return
		}
		i := work[k]
		r.res.Items[i] = r.m.batchOne(r.ctx, eval, r.queries[i], arena, &r.res.results[i])
		if err := r.ctx.Err(); err != nil {
			r.errs[w] = err
			return
		}
	}
}

// reset prepares the result for a batch of n items, reusing existing
// capacity.
func (r *BatchResult) reset(n int) {
	r.Items = resize(r.Items, n)
	clear(r.Items)
	r.results = resize(r.results, n)
	r.Succeeded, r.Failed = 0, 0
}

// resetArenas readies one empty arena per worker.
func (r *BatchResult) resetArenas(workers int) {
	for len(r.arenas) < workers {
		r.arenas = append(r.arenas, resultArena{})
	}
	for i := range r.arenas {
		r.arenas[i].reset()
	}
}

// finish hands each repeated item a copy of its first occurrence's
// outcome — with ODEvaluations 0, since the repeat computed nothing —
// and counts the outcomes.
func (r *BatchResult) finish() {
	for i, f := range r.dedup.first {
		if f != i {
			r.Items[i] = r.Items[f]
			if src := r.Items[f].Result; src != nil {
				r.results[i] = *src
				r.results[i].ODEvaluations = 0
				r.Items[i].Result = &r.results[i]
			}
		}
		if r.Items[i].Err != nil {
			r.Failed++
		} else {
			r.Succeeded++
		}
	}
}

// resize returns s with length n, reallocating only when its capacity
// is short. The contents are unspecified.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// batchDedup groups identical batch items so each distinct item is
// evaluated once. It is recycled with its BatchResult, so grouping
// allocates nothing in steady state.
type batchDedup struct {
	// work lists the first occurrence of every distinct item, in input
	// order: the items the workers evaluate. It doubles as the sorted
	// index permutation while grouping.
	work []int
	// first[i] is the index of the first item identical to item i (i
	// itself for a first occurrence).
	first []int
}

// group fills first and work for queries: sorting the index
// permutation by item identity, ties broken by index, puts every run
// of identical items together with its first occurrence at the head.
func (d *batchDedup) group(queries []BatchQuery) {
	d.work = resize(d.work, len(queries))
	d.first = resize(d.first, len(queries))
	for i := range d.work {
		d.work[i] = i
	}
	slices.SortFunc(d.work, func(i, j int) int {
		if c := compareItems(queries[i], queries[j]); c != 0 {
			return c
		}
		return cmp.Compare(i, j)
	})
	for p, i := range d.work {
		if p > 0 && compareItems(queries[d.work[p-1]], queries[i]) == 0 {
			d.first[i] = d.first[d.work[p-1]]
		} else {
			d.first[i] = i
		}
	}
	d.work = d.work[:0]
	for i, f := range d.first {
		if f == i {
			d.work = append(d.work, i)
		}
	}
}

// compareItems orders batch items by identity — kind, then row index
// or the bit patterns of the point's coordinates — and returns 0
// exactly when a and b are the same query. This is the server's
// result-cache identity: a row and its own coordinates sent as a
// point stay distinct, because the row excludes itself from its
// neighbourhoods.
func compareItems(a, b BatchQuery) int {
	if c := cmp.Compare(a.kind, b.kind); c != 0 {
		return c
	}
	switch a.kind {
	case batchKindRow:
		return cmp.Compare(a.index, b.index)
	case batchKindPoint:
		if c := cmp.Compare(len(a.point), len(b.point)); c != 0 {
			return c
		}
		for k := range a.point {
			if c := cmp.Compare(math.Float64bits(a.point[k]), math.Float64bits(b.point[k])); c != 0 {
				return c
			}
		}
	}
	return 0
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
// work. Identical items — the same row, or bit-identical point
// coordinates — are evaluated once: the first occurrence runs the
// search and every repeat receives a copy of its answer with
// ODEvaluations 0. The distinct items fan out over opts.Workers
// goroutines that borrow evaluators from one pool. Answers are
// identical to running each item through OutlyingSubspaces /
// OutlyingSubspacesOfPoint.
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
	res := resultFor(opts.Reuse)
	res.reset(len(queries))
	if len(queries) == 0 {
		return res, nil
	}
	res.dedup.group(queries)
	work := res.dedup.work
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, len(work))
	res.resetArenas(workers)
	pool := m.poolFor(opts.Pool)

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
		for _, i := range work {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			res.Items[i] = m.batchOne(ctx, eval, queries[i], arena, &res.results[i])
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
	} else if err := m.queryBatchParallel(ctx, queries, pool, res, workers); err != nil {
		return nil, err
	}
	res.finish()
	return res, nil
}

// queryBatchParallel is the fan-out arm of QueryBatch: arm the
// recycled run state, launch the workers, wait, and surface the first
// worker error. It lives outside the //hos:hotpath annotation on
// purpose — the goroutine launches are the deliberate cost of the
// parallel mode (their coordination state is still recycled through
// the BatchResult, so the arm stays 0 allocs/op steady-state).
func (m *Miner) queryBatchParallel(ctx context.Context, queries []BatchQuery, pool *EvaluatorPool, res *BatchResult, workers int) error {
	run := &res.run
	run.arm(m, ctx, queries, pool, res, workers)
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

// batchOne validates and evaluates a single batch item, copying the
// evaluator-scratch result into slot with its slices carved from the
// worker's arena — the item result then lives as long as the
// BatchResult, independent of the evaluator's next query.
func (m *Miner) batchOne(ctx context.Context, eval *od.Evaluator, q BatchQuery, arena *resultArena, slot *QueryResult) BatchItemResult {
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
	r, err := m.searchOne(ctx, eval, point, exclude)
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
