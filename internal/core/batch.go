package core

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"

	"repro/internal/od"
	"repro/internal/subspace"
)

// This file is the batch query engine: many outlying-subspace queries
// evaluated by the Miner's worker loop, into result storage the caller
// can recycle. Identical items — the common shape of multi-user
// traffic — are evaluated once: the first occurrence runs the search
// and every repeat receives a copy of its answer.

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

// BatchOptions tunes QueryBatch. The zero value selects the defaults
// noted on each field.
type BatchOptions struct {
	// Workers is the evaluation fan-out (≤ 0 selects GOMAXPROCS;
	// always clamped to the number of distinct items). At Workers = 1
	// the batch runs inline on the calling goroutine.
	Workers int
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
	// are carved from, the grouping of identical items, and the worker
	// loop that evaluates them (the BatchResult is the loop's body).
	results []QueryResult
	arenas  []resultArena
	dedup   batchDedup
	loop    workerLoop
	// The running batch's Miner and items, set by QueryBatch and
	// cleared before it returns, so a retained BatchResult pins result
	// storage only — never a Miner or the caller's items.
	m       *Miner
	queries []BatchQuery
}

// visit evaluates the k-th distinct item on worker w's evaluator into
// its slot: the BatchResult is the body of its own worker loop.
func (r *BatchResult) visit(ctx context.Context, eval *od.Evaluator, w, k int) error {
	i := r.dedup.work[k]
	r.Items[i] = r.m.batchOne(ctx, eval, r.queries[i], &r.arenas[w], &r.results[i])
	return nil
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
// ODEvaluations 0. The distinct items run through the Miner's worker
// loop on opts.Workers workers, each on an evaluator borrowed from the
// Miner's pool. Answers are identical to running each item through
// OutlyingSubspaces / OutlyingSubspacesOfPoint.
//
// Item-level problems (index out of range, dimension mismatch, a
// non-finite coordinate, ambiguous item) are reported per item in
// BatchResult.Items, and the rest of the batch still completes.
// QueryBatch itself errors only on setup failure or context
// cancellation; cancellation is noticed between items and mid-search,
// so an abandoned batch frees its workers promptly.
//
// Like ScanAll, a first QueryBatch on a fresh Miner runs Preprocess
// lazily, from the calling goroutine, before any worker starts.
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
	n := len(res.dedup.work)
	width := loopWidth(opts.Workers, n)
	res.resetArenas(width)
	res.m, res.queries = m, queries
	err := res.loop.run(ctx, m, res, n, width)
	res.m, res.queries = nil, nil
	if err != nil {
		return nil, err
	}
	res.finish()
	return res, nil
}

// resultFor returns the result to fill: the caller's recycled one, or
// a fresh BatchResult.
func resultFor(reuse *BatchResult) *BatchResult {
	if reuse == nil {
		return &BatchResult{}
	}
	return reuse
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
		if j := nonFinite(q.point); j >= 0 {
			return BatchItemResult{Err: fmt.Errorf("core: batch point column %d is not finite", j)}
		}
		point = q.point
	default:
		return BatchItemResult{Err: fmt.Errorf("core: empty batch item (use BatchIndex or BatchPoint)")}
	}
	r, err := m.search(ctx, eval, point, exclude, m.priors, m.cfg.Policy)
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
