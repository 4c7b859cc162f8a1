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
// node. See knn.Searcher for the scratch-ownership and concurrency
// contract: one goroutine per Searcher, results valid until the next
// KNN call, Stats/ResetStats safe concurrently.
type Searcher struct {
	tree    *Tree
	stats   knn.AtomicStats
	scratch knn.Scratch
	pq      []queueItem // frontier heap storage, reused across queries
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
	t := s.tree
	if k <= 0 || sub.IsEmpty() || t.size == 0 {
		return nil
	}
	dims := s.scratch.Begin(sub, k)
	best := &s.scratch.Heap
	a := &t.ar
	d := a.dim
	slab := t.ds.Slab()
	useSq := t.metric == vector.L2

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

	res := best.Sorted()
	if useSq {
		for i := range res {
			res[i].Dist = math.Sqrt(res[i].Dist)
		}
	}
	return res
}

// Stats implements knn.Searcher.
func (s *Searcher) Stats() knn.SearchStats { return s.stats.Snapshot() }

// ResetStats implements knn.Searcher.
func (s *Searcher) ResetStats() { s.stats.Reset() }
