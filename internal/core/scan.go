package core

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/subspace"
)

// ScanHit is one dataset point found to be an outlier in at least one
// subspace during a whole-dataset scan.
type ScanHit struct {
	Index int
	// Minimal outlying subspaces of the point (§3.4 filtered).
	Minimal []subspace.Mask
	// OutlyingCount is the size of the full outlying set.
	OutlyingCount int
	// FullSpaceOD is the point's OD in the full attribute space
	// (a convenient severity proxy for ranking).
	FullSpaceOD float64
}

// ScanOptions tunes ScanAll.
type ScanOptions struct {
	// MaxResults bounds the number of hits returned (0 = all).
	MaxResults int
	// SortBySeverity orders hits by descending full-space OD instead
	// of ascending index.
	SortBySeverity bool
	// Workers is the scan fan-out: ≤ 0 selects GOMAXPROCS, and the
	// count is clamped to the dataset size. Answers do not depend on
	// it; only wall-clock does.
	Workers int
	// OnProgress, when non-nil, is invoked after each point's subspace
	// search finishes, with the number of points evaluated so far and
	// the dataset total — the hook an async serving layer uses to
	// report real scan progress. The done values across all calls cover
	// 1..total exactly once and never regress, but workers (including
	// scatter-gather sharded ones) invoke the callback from their own
	// goroutines, so calls may be concurrent and may reach a consumer
	// out of order: consumers should retain the maximum. The callback
	// must be cheap and safe for concurrent use; it is not called for
	// points a cancelled scan never evaluated.
	OnProgress func(done, total int)
}

// ScanAll runs the outlying-subspace query for every dataset point
// and returns the points with non-empty answer sets — the system-
// level "detect the outlying subspaces of high-dimensional data"
// operation. Cost is N times the per-query cost, spread over
// opts.Workers goroutines.
//
// ScanAll never touches the Miner's shared evaluator or rng — every
// worker, even a single one, runs on private state — so, once the
// Miner is preprocessed, any number of ScanAll and QueryWith calls may
// run concurrently. A first ScanAll on a fresh Miner runs Preprocess
// lazily, from the calling goroutine, before the workers fan out.
//
// Cancellation is cooperative: workers check ctx between points and
// inside each point's subspace search (see SearchContext), so a
// cancelled scan returns ctx.Err() promptly instead of finishing a
// sweep nobody will read.
//
// Note: PolicyRandom queries draw from per-worker deterministic RNGs,
// so the *work* per query can vary with Workers; the answer sets
// cannot.
func (m *Miner) ScanAll(ctx context.Context, opts ScanOptions) ([]ScanHit, error) {
	if err := m.Preprocess(); err != nil {
		return nil, err
	}
	if opts.MaxResults < 0 {
		return nil, fmt.Errorf("core: MaxResults = %d", opts.MaxResults)
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > m.ds.N() {
		workers = m.ds.N()
	}
	if workers < 1 {
		workers = 1
	}

	d := m.ds.Dim()
	n := m.ds.N()
	fullSpace := subspace.Full(d)
	perPoint := make([]*ScanHit, n)
	errs := make([]error, workers)
	// evaluated feeds OnProgress: one shared monotonic counter across
	// all workers, so the callback sees every done value in 1..n
	// exactly once (though possibly out of delivery order).
	var evaluated atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			eval, err := m.workerEvaluator()
			if err != nil {
				errs[worker] = err
				return
			}
			rng := newDeterministicRng(m.cfg.Seed, int64(worker))
			for i := worker; i < n; i += workers {
				if err := ctx.Err(); err != nil {
					errs[worker] = err
					return
				}
				q := eval.NewQueryForPoint(i)
				res, err := SearchContext(ctx, q, d, m.threshold, m.priors, m.cfg.Policy, rng)
				if err != nil {
					errs[worker] = err
					return
				}
				if len(res.Outlying) > 0 {
					perPoint[i] = &ScanHit{
						Index:         i,
						Minimal:       res.Minimal,
						OutlyingCount: len(res.Outlying),
						FullSpaceOD:   eval.OD(m.ds.Point(i), fullSpace, i),
					}
				}
				if opts.OnProgress != nil {
					opts.OnProgress(int(evaluated.Add(1)), n)
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	var hits []ScanHit
	for _, h := range perPoint {
		if h != nil {
			hits = append(hits, *h)
		}
	}
	return finishScan(hits, opts), nil
}

func finishScan(hits []ScanHit, opts ScanOptions) []ScanHit {
	if opts.SortBySeverity {
		sort.Slice(hits, func(a, b int) bool {
			if hits[a].FullSpaceOD != hits[b].FullSpaceOD {
				return hits[a].FullSpaceOD > hits[b].FullSpaceOD
			}
			return hits[a].Index < hits[b].Index
		})
	}
	if opts.MaxResults > 0 && len(hits) > opts.MaxResults {
		hits = hits[:opts.MaxResults]
	}
	return hits
}
