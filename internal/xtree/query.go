package xtree

import (
	"math"

	"repro/internal/knn"
	"repro/internal/subspace"
	"repro/internal/vector"
)

// Searcher adapts a Tree to the knn.Searcher interface with best-first
// (Hjaltason–Samet) traversal: nodes are expanded in order of MINDIST
// to the query within the search subspace, and traversal stops as soon
// as the k-th nearest candidate is closer than the nearest unexpanded
// node. It is also a knn.Decider: AtLeast runs the same traversal and
// stops earlier, once the comparison with T is settled. See
// knn.Searcher for the scratch-ownership and concurrency contract: one
// goroutine per Searcher, results valid until the next KNN call,
// Stats/ResetStats safe concurrently.
type Searcher struct {
	tree    *Tree
	stats   knn.AtomicStats
	scratch knn.Scratch
	pq      []queueItem // frontier heap storage, reused across queries
	cands   []float64   // settle's sorted candidate distances, reused
}

// NewSearcher wraps t in a knn.Searcher.
func NewSearcher(t *Tree) *Searcher { return &Searcher{tree: t} }

// queueItem is a pending tree node in the best-first frontier.
type queueItem struct {
	id      int32
	minDist float64
}

// pqPush adds an item to the min-heap in pq.
func pqPush(pq []queueItem, it queueItem) []queueItem {
	pq = append(pq, it)
	i := len(pq) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if pq[parent].minDist <= pq[i].minDist {
			break
		}
		pq[parent], pq[i] = pq[i], pq[parent]
		i = parent
	}
	return pq
}

// pqPop removes and returns the minimum item.
func pqPop(pq []queueItem) (queueItem, []queueItem) {
	top := pq[0]
	last := len(pq) - 1
	pq[0] = pq[last]
	pq = pq[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(pq) && pq[l].minDist < pq[small].minDist {
			small = l
		}
		if r < len(pq) && pq[r].minDist < pq[small].minDist {
			small = r
		}
		if small == i {
			break
		}
		pq[i], pq[small] = pq[small], pq[i]
		i = small
	}
	return top, pq
}

// minDistSqL2Dims is minDistDims for L2 without the final square root
// (order-equivalent, cheaper). One accumulator, ascending dimension
// order.
func minDistSqL2Dims(dims []int, q, lo, hi []float64) float64 {
	var sum float64
	for _, d := range dims {
		diff := axisGap(q[d], lo[d], hi[d])
		sum += diff * diff
	}
	return sum
}

// minDistDims is the classical MINDIST lower bound that orders the
// best-first traversal: the least metric-m distance from q to the box
// [lo, hi] over the dimension indices dims.
func minDistDims(m vector.Metric, dims []int, q, lo, hi []float64) float64 {
	switch m {
	case vector.L2:
		return math.Sqrt(minDistSqL2Dims(dims, q, lo, hi))
	case vector.L1:
		var sum float64
		for _, d := range dims {
			sum += axisGap(q[d], lo[d], hi[d])
		}
		return sum
	case vector.LInf:
		var max float64
		for _, d := range dims {
			if diff := axisGap(q[d], lo[d], hi[d]); diff > max {
				max = diff
			}
		}
		return max
	default:
		panic("xtree: unknown metric")
	}
}

// KNN implements knn.Searcher.
//
//hos:hotpath
func (s *Searcher) KNN(query []float64, sub subspace.Mask, k int, exclude int) []knn.Neighbor {
	s.stats.Queries.Add(1)
	if k <= 0 || sub.IsEmpty() || s.tree.size == 0 {
		return nil
	}
	s.search(query, sub, k, exclude, false, 0)
	return s.nearest()
}

// AtLeast implements knn.Decider: it runs KNN's traversal, stops at
// the first leaf after which settle decides the comparison, and
// otherwise sums the exact k nearest as KNN's callers do.
//
//hos:hotpath
func (s *Searcher) AtLeast(query []float64, sub subspace.Mask, k int, exclude int, T float64) bool {
	s.stats.Queries.Add(1)
	if k <= 0 || sub.IsEmpty() || s.tree.size == 0 {
		return 0 >= T
	}
	if settled, atLeast := s.search(query, sub, k, exclude, true, T); settled {
		return atLeast
	}
	return knn.SumDistances(s.nearest()) >= T
}

// search is the one best-first traversal behind KNN and AtLeast: it
// fills the scratch heap with the k rows nearest to query in sub (L2
// distances squared). With decide set it calls settle after every
// leaf that leaves the frontier non-empty, and returns as soon as
// settle decides Σ k-NN distances ≥ T; the heap then holds candidates,
// not the answer.
//
//hos:hotpath
func (s *Searcher) search(query []float64, sub subspace.Mask, k, exclude int, decide bool, T float64) (settled, atLeast bool) {
	t := s.tree
	dims := s.scratch.Begin(sub, k)
	best := &s.scratch.Heap
	a := &t.ar
	d := a.dim
	slab := t.ds.Slab()
	useSq := t.metric == vector.L2
	avail := t.size
	if exclude >= 0 && exclude < avail {
		avail--
	}
	decide = decide && avail >= k // the lower bound assumes the answer holds k rows

	nodeDist := func(id int32) float64 {
		base := int(id) * d
		lo := a.mbrMin[base : base+d]
		hi := a.mbrMax[base : base+d]
		if useSq {
			return minDistSqL2Dims(dims, query, lo, hi)
		}
		return minDistDims(t.metric, dims, query, lo, hi)
	}

	var nodesVisited, pointsExamined int64
	pq := s.pq[:0]
	pq = pqPush(pq, queueItem{id: 0, minDist: nodeDist(0)})
	for len(pq) > 0 {
		var item queueItem
		item, pq = pqPop(pq)
		if w, full := best.WorstDist(); full && item.minDist > w {
			break // nothing closer remains
		}
		nodesVisited++
		n := &a.nodes[item.id]
		if n.isLeaf() {
			for _, idx := range a.rows(item.id) {
				i := int(idx)
				if i == exclude {
					continue
				}
				pointsExamined++
				row := slab[i*d : i*d+d]
				var dist float64
				if useSq {
					dist = vector.SqDistL2Dims(dims, query, row)
				} else {
					dist = vector.DistDims(t.metric, dims, query, row)
				}
				best.Push(i, dist)
			}
			if decide && len(pq) > 0 {
				if settled, atLeast = s.settle(pq[0].minDist, k, T, useSq); settled {
					break
				}
			}
			continue
		}
		for _, c := range a.kids(item.id) {
			md := nodeDist(c)
			if w, full := best.WorstDist(); full && md > w {
				continue
			}
			pq = pqPush(pq, queueItem{id: c, minDist: md})
		}
	}
	s.pq = pq[:0]
	s.stats.NodesVisited.Add(nodesVisited)
	s.stats.PointsExamined.Add(pointsExamined)
	return settled, atLeast
}

// nearest drains the scratch heap into the sorted k nearest, taking
// the square root of L2 distances.
//
//hos:hotpath
func (s *Searcher) nearest() []knn.Neighbor {
	res := s.scratch.Heap.Sorted()
	if s.tree.metric == vector.L2 {
		for i := range res {
			res[i].Dist = math.Sqrt(res[i].Dist)
		}
	}
	return res
}

// settle tries to decide Σ k-NN distances ≥ T mid-traversal from the
// heap's candidates and head, the least MINDIST on the frontier (L2
// values squared). Every row still to examine lies at or above head,
// and any k examined distances, sorted, lie elementwise at or above
// the final sorted k nearest. So:
//   - upper bound: once the heap holds k candidates, their sum is at
//     least the exact sum; below T, the answer is false;
//   - lower bound: the k smallest of the candidates and k copies of
//     head sum to at most the exact sum; at or above T, it is true.
//
// boundSum adds the terms in ascending order exactly as the exact sum
// is taken, and rounding is monotone, so both bounds hold bit for bit
// (DESIGN §2.5).
//
//hos:hotpath
func (s *Searcher) settle(head float64, k int, T float64, useSq bool) (settled, atLeast bool) {
	if cap(s.cands) < k {
		s.cands = make([]float64, 0, k)
	}
	c := s.scratch.Heap.AppendDists(s.cands[:0])
	for i := 1; i < len(c); i++ { // insertion sort: c holds at most k
		for j := i; j > 0 && c[j] < c[j-1]; j-- {
			c[j], c[j-1] = c[j-1], c[j]
		}
	}
	if len(c) == k && boundSum(c, k, math.Inf(1), useSq) < T {
		return true, false
	}
	if boundSum(c, k, head, useSq) >= T {
		return true, true
	}
	return false, false
}

// boundSum sums, in ascending order, the k smallest of the sorted c
// and k copies of floor, from 0 and term by term as knn.SumDistances
// does, square-rooting each term first when useSq. A NaN distance (a
// NaN query coordinate) makes the sum NaN, so no bound settles and the
// exact sum decides.
//
//hos:hotpath
func boundSum(c []float64, k int, floor float64, useSq bool) float64 {
	var sum float64
	for i := 0; i < k; i++ {
		v := floor
		if i < len(c) {
			v = min(c[i], floor)
		}
		if useSq {
			v = math.Sqrt(v)
		}
		sum += v
	}
	return sum
}

// Stats implements knn.Searcher.
func (s *Searcher) Stats() knn.SearchStats { return s.stats.Snapshot() }

// ResetStats implements knn.Searcher.
func (s *Searcher) ResetStats() { s.stats.Reset() }
