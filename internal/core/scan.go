package core

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"sync/atomic"

	"repro/internal/od"
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
	// 1..total exactly once, but the worker loop's workers invoke the
	// callback from their own goroutines, so calls may be concurrent
	// and may reach a consumer out of order: consumers should retain
	// the maximum. The callback must be cheap and safe for concurrent
	// use; it is not called for points a cancelled scan never
	// evaluated.
	OnProgress func(done, total int)
}

// ScanAll runs the outlying-subspace query for every dataset point
// and returns the points with non-empty answer sets — the system-
// level "detect the outlying subspaces of high-dimensional data"
// operation. Cost is N times the per-query cost, spread over
// opts.Workers workers of the Miner's worker loop, each on an
// evaluator borrowed from the Miner's pool. Only hits allocate: a row
// without an outlying subspace leaves nothing behind.
//
// A first ScanAll on a fresh Miner runs Preprocess lazily, from the
// calling goroutine, before any worker starts.
//
// Cancellation is cooperative: workers check ctx between points and
// inside each point's subspace search, so a cancelled scan returns
// ctx.Err() promptly instead of finishing a sweep nobody will read.
//
// Note: PolicyRandom searches draw their rngs from the Miner's
// per-search sequence, so the *work* per query depends on how many
// searches the Miner ran before and, with more than one worker, on
// scheduling; the answer sets cannot vary.
func (m *Miner) ScanAll(ctx context.Context, opts ScanOptions) ([]ScanHit, error) {
	if err := m.Preprocess(); err != nil {
		return nil, err
	}
	if opts.MaxResults < 0 {
		return nil, fmt.Errorf("core: MaxResults = %d", opts.MaxResults)
	}
	n := m.ds.N()
	s := &scanRun{
		m:          m,
		full:       subspace.Full(m.ds.Dim()),
		perRow:     make([]*ScanHit, n),
		onProgress: opts.OnProgress,
	}
	if err := s.loop.run(ctx, m, s, n, loopWidth(opts.Workers, n)); err != nil {
		return nil, err
	}
	var hits []ScanHit
	if found := s.found.Load(); found > 0 {
		hits = make([]ScanHit, 0, found)
	}
	for _, h := range s.perRow {
		if h != nil {
			hits = append(hits, *h)
		}
	}
	return finishScan(hits, opts), nil
}

// scanRun is one ScanAll: the body of its worker loop and the hits it
// collects.
type scanRun struct {
	m          *Miner
	full       subspace.Mask
	perRow     []*ScanHit // the hit for each row, nil for non-outliers
	onProgress func(done, total int)
	// found counts hits; evaluated feeds OnProgress — one counter
	// across all workers, so the callback sees every done value in
	// 1..n exactly once (though possibly out of delivery order).
	found     atomic.Int64
	evaluated atomic.Int64
	loop      workerLoop
}

// visit searches row i and records it when it is outlying anywhere,
// copying what the hit keeps out of the evaluator's scratch.
func (s *scanRun) visit(ctx context.Context, eval *od.Evaluator, _, i int) error {
	m := s.m
	point := m.ds.Point(i)
	res, err := m.search(ctx, eval, point, i, m.priors, m.cfg.Policy)
	if err != nil {
		return err
	}
	if len(res.Outlying) > 0 {
		s.perRow[i] = &ScanHit{
			Index:         i,
			Minimal:       slices.Clone(res.Minimal),
			OutlyingCount: len(res.Outlying),
			FullSpaceOD:   eval.OD(point, s.full, i),
		}
		s.found.Add(1)
	}
	if s.onProgress != nil {
		s.onProgress(int(s.evaluated.Add(1)), len(s.perRow))
	}
	return nil
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
