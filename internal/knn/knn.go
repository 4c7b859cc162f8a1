// Package knn provides k-nearest-neighbour search over a Dataset
// restricted to an arbitrary subspace, the primitive underlying the
// paper's Outlying Degree (§2). Three engines implement the Searcher
// interface: the exhaustive LinearSearcher here, the X-tree-backed
// searcher in internal/xtree and the scatter-gather searcher in
// internal/shard. The X-tree searcher also implements Decider.
package knn

import (
	"fmt"
	"math"
	"sync/atomic"

	"repro/internal/subspace"
	"repro/internal/vector"
)

// Neighbor is one k-NN result: a dataset point index with its distance
// to the query in the search subspace.
type Neighbor struct {
	Index int
	Dist  float64
}

// Searcher finds the k nearest dataset points to a query within a
// subspace. Implementations must:
//   - exclude the dataset point with index == exclude (pass -1 to keep
//     all points; used so a query that is itself a dataset point is not
//     its own neighbour);
//   - return results sorted by ascending distance, ties broken by
//     ascending index;
//   - return fewer than k neighbours only when the dataset (after
//     exclusion) has fewer than k points.
//
// Ownership and concurrency: the returned slice is backed by the
// searcher's reusable scratch — it stays valid only until the next
// KNN call on the same searcher; callers that retain results must
// copy them first. Consequently KNN itself is single-goroutine per
// searcher (give each worker its own searcher over the shared
// dataset/index), while Stats and ResetStats are safe to call
// concurrently with a querying goroutine.
type Searcher interface {
	KNN(query []float64, s subspace.Mask, k int, exclude int) []Neighbor
	// Stats returns cumulative work counters since construction (or
	// the last ResetStats).
	Stats() SearchStats
	// ResetStats zeroes the work counters.
	ResetStats()
}

// Decider is the optional decision a Searcher may offer beside KNN:
// whether the k nearest distances sum to at least T. A Decider may
// stop searching as soon as the comparison is settled, but its answer
// must equal SumDistances(KNN(query, s, k, exclude)) >= T bit for bit.
// The same single-goroutine and Stats contract as Searcher applies.
type Decider interface {
	AtLeast(query []float64, s subspace.Mask, k int, exclude int, T float64) bool
}

// SearchStats counts the work a Searcher has performed. PointsExamined
// is the number of point-to-query distance computations;
// NodesVisited is index-structure specific (0 for a linear scan).
type SearchStats struct {
	Queries        int64
	PointsExamined int64
	NodesVisited   int64
}

// Add accumulates other into s.
func (s *SearchStats) Add(other SearchStats) {
	s.Queries += other.Queries
	s.PointsExamined += other.PointsExamined
	s.NodesVisited += other.NodesVisited
}

// AtomicStats is the concurrency-safe counter set behind a Searcher's
// Stats: querying goroutines Add while monitoring goroutines Snapshot,
// without a data race (matching internal/shard's per-shard atomics).
type AtomicStats struct {
	Queries        atomic.Int64
	PointsExamined atomic.Int64
	NodesVisited   atomic.Int64
}

// Snapshot reads the counters into a plain SearchStats. Each counter
// is read atomically; the triple is not a single consistent cut, which
// is fine for monotonic work counters.
func (a *AtomicStats) Snapshot() SearchStats {
	return SearchStats{
		Queries:        a.Queries.Load(),
		PointsExamined: a.PointsExamined.Load(),
		NodesVisited:   a.NodesVisited.Load(),
	}
}

// Reset zeroes the counters.
func (a *AtomicStats) Reset() {
	a.Queries.Store(0)
	a.PointsExamined.Store(0)
	a.NodesVisited.Store(0)
}

// Scratch is the reusable working set a searcher threads through every
// KNN call: the decoded dimension indices of the query subspace and
// the bounded result heap whose backing array carries the returned
// neighbour slice. After the first few queries warm its buffers, a
// searcher's steady state allocates nothing.
type Scratch struct {
	Dims []int
	Heap BoundedHeap
}

// Begin prepares the scratch for one query: decodes s into Dims
// (reusing its backing array) and resets the heap to capacity k. It
// returns the decoded dimension indices.
//
//hos:hotpath
func (sc *Scratch) Begin(s subspace.Mask, k int) []int {
	sc.Dims = s.AppendDims(sc.Dims[:0])
	sc.Heap.Reset(k)
	return sc.Dims
}

// LinearSearcher scans the entire dataset for every query. It is the
// correctness oracle for index-backed searchers and the fastest choice
// for small datasets. See Searcher for the scratch-ownership and
// concurrency contract.
type LinearSearcher struct {
	ds      *vector.Dataset
	metric  vector.Metric
	stats   AtomicStats
	scratch Scratch
}

// NewLinear creates a LinearSearcher over ds using the given metric.
func NewLinear(ds *vector.Dataset, metric vector.Metric) (*LinearSearcher, error) {
	if ds == nil {
		return nil, fmt.Errorf("knn: nil dataset")
	}
	if !metric.Valid() {
		return nil, fmt.Errorf("knn: invalid metric %v", metric)
	}
	return &LinearSearcher{ds: ds, metric: metric}, nil
}

// KNN implements Searcher by exhaustive scan with a bounded max-heap.
//
//hos:hotpath
func (l *LinearSearcher) KNN(query []float64, s subspace.Mask, k int, exclude int) []Neighbor {
	l.stats.Queries.Add(1)
	if k <= 0 || s.IsEmpty() {
		return nil
	}
	dims := l.scratch.Begin(s, k)
	h := &l.scratch.Heap
	n := l.ds.N()
	d := l.ds.Dim()
	slab := l.ds.Slab()
	useSq := l.metric == vector.L2
	examined := 0
	for i, off := 0, 0; i < n; i, off = i+1, off+d {
		if i == exclude {
			continue
		}
		examined++
		row := slab[off : off+d]
		var dist float64
		if useSq {
			dist = vector.SqDistL2Dims(dims, query, row)
		} else {
			dist = vector.DistDims(l.metric, dims, query, row)
		}
		h.Push(i, dist)
	}
	l.stats.PointsExamined.Add(int64(examined))
	res := h.Sorted()
	if useSq {
		for i := range res {
			res[i].Dist = math.Sqrt(res[i].Dist)
		}
	}
	return res
}

// Stats implements Searcher.
func (l *LinearSearcher) Stats() SearchStats { return l.stats.Snapshot() }

// ResetStats implements Searcher.
func (l *LinearSearcher) ResetStats() { l.stats.Reset() }

// SumDistances returns Σ Dist over the neighbours — the Outlying
// Degree aggregation from §2.
func SumDistances(neighbors []Neighbor) float64 {
	var sum float64
	for _, nb := range neighbors {
		sum += nb.Dist
	}
	return sum
}
