package server

import (
	"context"
	"fmt"
	"net/http"
	"slices"
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

const (
	// maxBatchItems caps the item count of one /batch request.
	maxBatchItems = 256
	// batchTimeout bounds one /batch computation.
	batchTimeout = time.Minute
)

type batchRequest struct {
	// Dataset routes the whole batch to a registry entry ("" = the
	// default dataset).
	Dataset string             `json:"dataset,omitempty"`
	Items   []batchRequestItem `json:"items"`
	// Workers overrides the per-batch fan-out (clamped to GOMAXPROCS).
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
	if len(req.Items) > maxBatchItems {
		s.error(w, http.StatusBadRequest,
			fmt.Sprintf("batch has %d items, limit is %d", len(req.Items), maxBatchItems))
		return
	}
	workers, ok := s.fanOut(w, req.Workers, 0)
	if !ok {
		return
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
		// A fully-cached batch never reaches admission. fn hands the
		// deadline context to the engine, so an abandoned batch stops
		// mid-search instead of running on for nobody.
		var res *core.BatchResult
		if !s.compute(w, r, d, overload.Batch, batchTimeout, func(ctx context.Context) error {
			var err error
			res, err = v.miner.QueryBatch(ctx, queries, core.BatchOptions{Workers: workers})
			return err
		}) {
			return
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
