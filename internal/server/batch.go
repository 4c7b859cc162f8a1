package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"slices"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/overload"
)

// POST /batch evaluates many outlying-subspace queries as one request
// through core.QueryBatch: bounded worker fan-out, identical items
// evaluated once. Items that are already in the server's result LRU
// are answered from it without touching the engine; computed items
// seed the LRU so follow-up /query traffic hits. Item-level failures
// (bad index, wrong dimensionality) are reported per item and do not
// fail the batch.

type batchRequest struct {
	// Dataset routes the whole batch to a registry entry ("" = the
	// default dataset).
	Dataset string             `json:"dataset,omitempty"`
	Items   []batchRequestItem `json:"items"`
	// Workers overrides the per-batch fan-out (clamped to the server's
	// BatchWorkers bound).
	Workers int `json:"workers,omitempty"`
}

type batchRequestItem struct {
	// Exactly one of Index (dataset row) or Point (ad-hoc vector) must
	// be set, as in /query.
	Index *int      `json:"index,omitempty"`
	Point []float64 `json:"point,omitempty"`
}

type batchItemResponse struct {
	Index         *int      `json:"index,omitempty"`
	Point         []float64 `json:"point,omitempty"`
	Error         string    `json:"error,omitempty"`
	IsOutlier     bool      `json:"is_outlier"`
	Minimal       [][]int   `json:"minimal"`
	OutlyingCount int       `json:"outlying_count"`
	ODEvaluations int64     `json:"od_evaluations"`
	Cached        bool      `json:"cached"`
}

type batchResponse struct {
	Results   []batchItemResponse `json:"results"`
	Succeeded int                 `json:"succeeded"`
	Failed    int                 `json:"failed"`
	Threshold float64             `json:"threshold"`
	// ResultCacheHits counts items answered from the server's LRU.
	ResultCacheHits int64   `json:"result_cache_hits"`
	ElapsedMs       float64 `json:"elapsed_ms"`
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	var req batchRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	d, ok := s.resolveDataset(w, req.Dataset)
	if !ok {
		return
	}
	// One epoch for the whole batch: items, cache lookups and the
	// engine all see the same view even across a concurrent append.
	v := d.view()
	if len(req.Items) == 0 {
		s.error(w, http.StatusBadRequest, "batch has no items")
		return
	}
	if len(req.Items) > s.opts.MaxBatchItems {
		s.error(w, http.StatusBadRequest,
			fmt.Sprintf("batch has %d items, limit is %d", len(req.Items), s.opts.MaxBatchItems))
		return
	}
	if req.Workers < 0 {
		s.error(w, http.StatusBadRequest, fmt.Sprintf("workers = %d", req.Workers))
		return
	}
	maxWorkers := s.opts.BatchWorkers
	if maxWorkers <= 0 {
		maxWorkers = runtime.GOMAXPROCS(0)
	}
	workers := req.Workers
	if workers == 0 || workers > maxWorkers {
		workers = maxWorkers
	}

	// Validate items and split them into LRU hits and engine work
	// before taking the batch slot: a fully-cached batch costs nothing.
	resp := &batchResponse{
		Results:   make([]batchItemResponse, len(req.Items)),
		Threshold: v.miner.Threshold(),
	}
	var queries []core.BatchQuery // engine work, in compacted order
	var queryPos []int            // queries[j] answers Results[queryPos[j]]
	keys := make([]string, len(req.Items))
	for i, item := range req.Items {
		out := &resp.Results[i]
		point, exclude, emsg := v.resolveQueryTarget(item.Index, item.Point)
		if emsg != "" {
			out.Error = emsg
			continue
		}
		if exclude >= 0 {
			out.Index = item.Index
		} else {
			out.Point = append([]float64(nil), point...)
		}
		keys[i] = cacheKey(point, exclude)
		if cached, ok := v.cache.get(keys[i]); ok {
			out.IsOutlier = cached.IsOutlier
			out.Minimal = cached.Minimal
			out.OutlyingCount = cached.OutlyingCount
			out.ODEvaluations = cached.ODEvaluations
			out.Cached = true
			resp.ResultCacheHits++
			continue
		}
		if exclude >= 0 {
			queries = append(queries, core.BatchIndex(exclude))
		} else {
			queries = append(queries, core.BatchPoint(point))
		}
		queryPos = append(queryPos, i)
	}

	// odEvals carries the engine-side accounting out of the compute
	// block so it lands in serverStats as one consistent transition.
	var odEvals int64
	if len(queries) > 0 {
		// Batch traffic fails fast at the guard: it is programmatic and
		// retryable, so it is shed before interactive queries — but
		// after bulk scans — as the adaptive limit shrinks. A
		// fully-cached batch never reaches this admission.
		permit, rej := d.guard.Admit(r.Context(), overload.Batch, false)
		if rej != nil {
			if rej.Reason == overload.ReasonBreakerOpen {
				s.shedBreakerOpen(w, d.name, rej)
				return
			}
			retry := overload.RetryAfterSeconds(rej.RetryAfter)
			w.Header().Set("Retry-After", strconv.Itoa(retry))
			s.error(w, http.StatusTooManyRequests,
				fmt.Sprintf("dataset %q at its batch concurrency share, retry in ~%ds", d.name, retry))
			return
		}
		ctx, cancel := context.WithTimeout(r.Context(), s.opts.BatchTimeout)
		defer cancel()

		type outcome struct {
			res *core.BatchResult
			err error
		}
		done := make(chan outcome, 1)
		go func() {
			computeStart := time.Now()
			if s.opts.FaultHook != nil {
				if _, err := s.opts.FaultHook("batch", d.name); err != nil {
					permit.Release(outcomeFor(err), time.Since(computeStart))
					done <- outcome{nil, err}
					return
				}
			}
			res, err := v.miner.QueryBatch(ctx, queries, core.BatchOptions{Workers: workers})
			permit.Release(outcomeFor(err), time.Since(computeStart))
			done <- outcome{res, err}
		}()

		var res *core.BatchResult
		select {
		case <-ctx.Done():
			if errors.Is(ctx.Err(), context.DeadlineExceeded) {
				s.error(w, http.StatusServiceUnavailable,
					fmt.Sprintf("batch exceeded the %s deadline", s.opts.BatchTimeout))
			} else {
				s.clientGone(w, "batch")
			}
			return
		case o := <-done:
			if o.err != nil {
				// QueryBatch is ctx-aware, so a deadline/cancel can surface
				// through its error rather than ctx.Done() when both are
				// ready; classify identically either way.
				switch {
				case errors.Is(o.err, context.DeadlineExceeded):
					s.error(w, http.StatusServiceUnavailable,
						fmt.Sprintf("batch exceeded the %s deadline", s.opts.BatchTimeout))
				case errors.Is(o.err, context.Canceled):
					s.clientGone(w, "batch")
				default:
					s.error(w, http.StatusInternalServerError, o.err.Error())
				}
				return
			}
			res = o.res
		}

		for j, item := range res.Items {
			i := queryPos[j]
			out := &resp.Results[i]
			if item.Err != nil {
				out.Error = item.Err.Error()
				continue
			}
			// Seed the LRU so follow-up /query (and /batch) traffic for
			// the same key hits. The cached outlying set is a copy:
			// item.Result's is carved from the BatchResult's arena, and
			// caching it would pin the whole arena for the lifetime of
			// one LRU entry.
			qr := *item.Result
			qr.Outlying = slices.Clone(qr.Outlying)
			ans := s.answer(v, keys[i], out.Index, out.Point, &qr)
			out.IsOutlier = ans.IsOutlier
			out.Minimal = ans.Minimal
			out.OutlyingCount = ans.OutlyingCount
			out.ODEvaluations = ans.ODEvaluations
			odEvals += ans.ODEvaluations
		}
	}

	for i := range resp.Results {
		if resp.Results[i].Error != "" {
			resp.Failed++
		} else {
			resp.Succeeded++
		}
	}
	resp.ElapsedMs = msSince(start)
	d.queries.Add(int64(len(req.Items)))
	s.stats.recordBatch(len(req.Items), odEvals)
	s.writeJSON(w, http.StatusOK, resp)
}
