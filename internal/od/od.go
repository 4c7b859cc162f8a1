// Package od computes the paper's Outlying Degree (§2):
//
//	OD(p, s) = Σ_{i=1..k} Dist_s(p, p_i),  p_i ∈ KNNSet(p, s)
//
// the sum of distances from p to its k nearest neighbours in subspace
// s. The Evaluator wraps a knn.Searcher and adds the optional
// dimensionality normalization discussed in DESIGN.md; a Query binds
// it to one query point and counts the evaluations spent on it.
package od

import (
	"fmt"
	"math"

	"repro/internal/knn"
	"repro/internal/subspace"
	"repro/internal/vector"
)

// Normalization selects how OD values are made comparable across
// subspace dimensionalities.
type Normalization uint8

const (
	// NormNone is the paper's literal definition: raw distance sums
	// compared against one global threshold T.
	NormNone Normalization = iota
	// NormDim divides each distance by sqrt(|s|) (L2), |s| (L1) or 1
	// (LInf), removing the systematic growth of distances with
	// dimensionality. OD monotonicity across the lattice no longer
	// holds under NormDim, so HOS-Miner's pruning must not be combined
	// with it; it exists for the naive baseline and for effectiveness
	// studies.
	NormDim
)

// String names the normalization.
func (n Normalization) String() string {
	switch n {
	case NormNone:
		return "none"
	case NormDim:
		return "dim"
	default:
		return fmt.Sprintf("Normalization(%d)", uint8(n))
	}
}

// Evaluator computes OD values for query points against a dataset.
// An Evaluator is single-goroutine (its searcher carries reusable
// scratch); give each worker its own.
type Evaluator struct {
	ds       *vector.Dataset
	searcher knn.Searcher
	metric   vector.Metric
	k        int
	norm     Normalization

	evaluations int64

	// borrow is the reusable Query handed out by BorrowQuery.
	borrow Query
	// scratch is an opaque engine-owned working set (the core layer
	// attaches its per-evaluator search scratch here so pooled
	// evaluators carry it across queries).
	scratch any
}

// NewEvaluator builds an Evaluator. searcher must be constructed over
// the same dataset and metric.
func NewEvaluator(ds *vector.Dataset, searcher knn.Searcher, metric vector.Metric, k int, norm Normalization) (*Evaluator, error) {
	if ds == nil {
		return nil, fmt.Errorf("od: nil dataset")
	}
	if searcher == nil {
		return nil, fmt.Errorf("od: nil searcher")
	}
	if !metric.Valid() {
		return nil, fmt.Errorf("od: invalid metric %v", metric)
	}
	if k < 1 {
		return nil, fmt.Errorf("od: k = %d, need k ≥ 1", k)
	}
	if k >= ds.N() {
		return nil, fmt.Errorf("od: k = %d must be smaller than the dataset size %d (self excluded)", k, ds.N())
	}
	if norm > NormDim {
		return nil, fmt.Errorf("od: invalid normalization %v", norm)
	}
	return &Evaluator{ds: ds, searcher: searcher, metric: metric, k: k, norm: norm}, nil
}

// K returns the neighbourhood size.
func (e *Evaluator) K() int { return e.k }

// Metric returns the distance metric in use.
func (e *Evaluator) Metric() vector.Metric { return e.metric }

// Dataset returns the underlying dataset.
func (e *Evaluator) Dataset() *vector.Dataset { return e.ds }

// Evaluations returns how many OD computations the evaluator has
// performed (the empty subspace costs none).
func (e *Evaluator) Evaluations() int64 { return e.evaluations }

// Scratch returns the engine-attached opaque scratch value, or nil.
func (e *Evaluator) Scratch() any { return e.scratch }

// SetScratch attaches an opaque per-evaluator scratch owned by the
// engine layer above. The evaluator only stores it, so pooled
// evaluators keep their warmed working sets without od depending on
// engine types.
func (e *Evaluator) SetScratch(v any) { e.scratch = v }

// OD computes the outlying degree of an arbitrary point in subspace
// s. exclude is the dataset index of the point itself when it is a
// dataset member (-1 otherwise), so a point never counts as its own
// neighbour.
//
//hos:hotpath
func (e *Evaluator) OD(p []float64, s subspace.Mask, exclude int) float64 {
	if s.IsEmpty() {
		return 0
	}
	e.evaluations++
	nbs := e.searcher.KNN(p, s, e.k, exclude)
	sum := knn.SumDistances(nbs)
	if e.norm == NormDim {
		sum = normalizeSum(sum, e.metric, s)
	}
	return sum
}

// ODOfPoint computes OD for dataset point idx (self-excluding).
func (e *Evaluator) ODOfPoint(idx int, s subspace.Mask) float64 {
	return e.OD(e.ds.Point(idx), s, idx)
}

// FullSpaceODs computes OD in the full space for every dataset point.
// It is the workhorse behind quantile-based threshold selection and
// the classical "space → outliers" baselines.
func (e *Evaluator) FullSpaceODs() []float64 {
	full := subspace.Full(e.ds.Dim())
	out := make([]float64, e.ds.N())
	for i := range out {
		out[i] = e.ODOfPoint(i, full)
	}
	return out
}

func normalizeSum(sum float64, m vector.Metric, s subspace.Mask) float64 {
	switch m {
	case vector.L2:
		return sum / math.Sqrt(float64(s.Card()))
	case vector.L1:
		return sum / float64(s.Card())
	default:
		return sum
	}
}

// Query is the OD oracle for one query point: a private copy of the
// point, its self-exclusion index and an exact count of the OD
// evaluations spent on it. It memoises nothing — HOS-Miner's dynamic
// search settles each lattice subspace exactly once, either by
// evaluating its OD or by pruning, so no subspace is probed twice.
type Query struct {
	eval    *Evaluator
	point   []float64
	exclude int
	evals   int64
}

// NewQuery prepares an OD oracle for one query point. exclude follows
// the OD convention (-1 for external points).
func (e *Evaluator) NewQuery(point []float64, exclude int) *Query {
	return &Query{
		eval:    e,
		point:   append([]float64(nil), point...),
		exclude: exclude,
	}
}

// BorrowQuery is the pooled counterpart of NewQuery: it reuses the
// evaluator's single resident Query — point buffer and counter — so a
// steady-state query performs no per-query allocation. The returned
// Query is owned by the evaluator and is valid only until the next
// BorrowQuery call on it; callers that need an independent lifetime
// use NewQuery instead.
func (e *Evaluator) BorrowQuery(point []float64, exclude int) *Query {
	q := &e.borrow
	q.eval = e
	q.point = append(q.point[:0], point...)
	q.exclude = exclude
	q.evals = 0
	return q
}

// NewQueryForPoint prepares an OD oracle for dataset point idx.
func (e *Evaluator) NewQueryForPoint(idx int) *Query {
	return e.NewQuery(e.ds.Point(idx), idx)
}

// OD returns the outlying degree of the query point in subspace s.
//
//hos:hotpath
func (q *Query) OD(s subspace.Mask) float64 {
	q.evals++
	return q.eval.OD(q.point, s, q.exclude)
}

// Evaluations returns how many OD values this Query has computed.
func (q *Query) Evaluations() int64 { return q.evals }
