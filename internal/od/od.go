// Package od computes the paper's Outlying Degree (§2):
//
//	OD(p, s) = Σ_{i=1..k} Dist_s(p, p_i),  p_i ∈ KNNSet(p, s)
//
// the sum of distances from p to its k nearest neighbours in subspace
// s. The Evaluator wraps a knn.Searcher; a Query binds it to one query
// point and counts the evaluations spent on it. OD is a raw distance
// sum, so it is monotone over the subspace lattice, the property
// HOS-Miner's pruning rests on. The dynamic search only compares OD
// with T, so a Query answers that comparison (AtLeast), through the
// searcher's knn.Decider when it has one.
package od

import (
	"fmt"

	"repro/internal/knn"
	"repro/internal/subspace"
	"repro/internal/vector"
)

// Normalization is NewEvaluator's OD normalization. It has one value,
// NormNone, and stays only because the bench/ module, which builds
// against this package, passes it.
type Normalization uint8

// NormNone is the paper's literal definition: raw distance sums
// compared against one global threshold T.
const NormNone Normalization = 0

// String names the normalization.
func (n Normalization) String() string {
	if n == NormNone {
		return "none"
	}
	return fmt.Sprintf("Normalization(%d)", uint8(n))
}

// Evaluator computes OD values for query points against a dataset.
// An Evaluator is single-goroutine (its searcher carries reusable
// scratch); give each worker its own.
type Evaluator struct {
	ds       *vector.Dataset
	searcher knn.Searcher
	decider  knn.Decider // searcher's decision, nil when it offers none
	metric   vector.Metric
	k        int

	evaluations int64

	// borrow is the reusable Query handed out by BorrowQuery.
	borrow Query
	// scratch is an opaque engine-owned working set (the core layer
	// attaches its per-evaluator search scratch here so pooled
	// evaluators carry it across queries).
	scratch any
}

// NewEvaluator builds an Evaluator. searcher must be constructed over
// the same dataset and metric. norm must be NormNone.
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
	if norm != NormNone {
		return nil, fmt.Errorf("od: invalid normalization %v", norm)
	}
	decider, _ := searcher.(knn.Decider)
	return &Evaluator{ds: ds, searcher: searcher, decider: decider, metric: metric, k: k}, nil
}

// K returns the neighbourhood size.
func (e *Evaluator) K() int { return e.k }

// Metric returns the distance metric in use.
func (e *Evaluator) Metric() vector.Metric { return e.metric }

// Dataset returns the underlying dataset.
func (e *Evaluator) Dataset() *vector.Dataset { return e.ds }

// Evaluations returns how many OD computations and decisions the
// evaluator has performed (the empty subspace costs none).
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
	return knn.SumDistances(e.searcher.KNN(p, s, e.k, exclude))
}

// FullSpaceRow runs one full-space k-NN search for dataset row idx
// (self-excluded), counting one evaluation, and returns the row's OD
// and the distance of its k-th neighbour, exactly as KNN returns them.
// These are the two values core.Miner keeps per row.
func (e *Evaluator) FullSpaceRow(idx int) (odv, kth float64) {
	e.evaluations++
	nb := e.searcher.KNN(e.ds.Point(idx), subspace.Full(e.ds.Dim()), e.k, idx)
	return knn.SumDistances(nb), nb[len(nb)-1].Dist
}

// FullSpaceODs computes OD in the full space for every dataset point:
// the distribution quantile-based threshold selection reads T from.
func (e *Evaluator) FullSpaceODs() []float64 {
	out := make([]float64, e.ds.N())
	for i := range out {
		out[i], _ = e.FullSpaceRow(i)
	}
	return out
}

// Query is the OD oracle for one query point: a private copy of the
// point, its self-exclusion index and an exact count of the OD
// evaluations spent on it. It memoises nothing — HOS-Miner's dynamic
// search settles each lattice subspace exactly once, either by
// evaluating OD ≥ T or by pruning, so no subspace is probed twice.
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

// AtLeast reports whether the query point's outlying degree in
// subspace s is at least T, counting one evaluation. It equals
// Evaluator.OD(…) >= T bit for bit; a searcher that is a knn.Decider
// answers it, and may stop its k-NN search once the answer is settled.
//
//hos:hotpath
func (q *Query) AtLeast(s subspace.Mask, T float64) bool {
	q.evals++
	e := q.eval
	if e.decider == nil || s.IsEmpty() {
		return e.OD(q.point, s, q.exclude) >= T
	}
	e.evaluations++
	return e.decider.AtLeast(q.point, s, e.k, q.exclude, T)
}

// Evaluations returns how many OD evaluations this Query has made.
func (q *Query) Evaluations() int64 { return q.evals }
