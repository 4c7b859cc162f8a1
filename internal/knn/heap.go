package knn

// BoundedHeap keeps the k smallest (distance, index) pairs seen so
// far. It is a hand-rolled binary max-heap on distance (ties: larger
// index nearer the top, so the kept set is deterministic), avoiding
// container/heap's interface overhead in the innermost loop of every
// OD evaluation.
//
// Sorted drains the heap in place; afterwards the heap is in the
// drained state and Push panics until Reset restores it. Reset keeps
// the backing array, so a pooled heap reaches a steady state where
// neither filling nor draining allocates.
type BoundedHeap struct {
	k       int
	items   []Neighbor // max-heap by (Dist, Index); sorted ascending once drained
	drained bool
}

// NewBoundedHeap creates a heap retaining the k nearest items.
func NewBoundedHeap(k int) *BoundedHeap {
	return &BoundedHeap{k: k, items: make([]Neighbor, 0, max(k, 0))}
}

// Reset returns the heap to the empty, undrained state with capacity
// k, reusing the existing backing array. Results previously obtained
// from Sorted are invalidated by the next Push.
//
//hos:hotpath
func (h *BoundedHeap) Reset(k int) {
	h.k = k
	h.items = h.items[:0]
	h.drained = false
}

// worse orders the heap: a dominates b (sits closer to the top) when a
// is farther, or equally far with a larger index.
func worse(a, b Neighbor) bool {
	if a.Dist != b.Dist {
		return a.Dist > b.Dist
	}
	return a.Index > b.Index
}

// Push offers a candidate. It is kept only if the heap is not yet full
// or the candidate beats the current worst. Push panics after Sorted:
// a drained heap silently dropping candidates was a real bug source,
// so reuse requires an explicit Reset.
//
//hos:hotpath
func (h *BoundedHeap) Push(index int, dist float64) {
	if h.drained {
		panic("knn: BoundedHeap.Push after Sorted drained the heap; call Reset(k) before reuse")
	}
	nb := Neighbor{Index: index, Dist: dist}
	if len(h.items) < h.k {
		h.items = append(h.items, nb)
		h.siftUp(len(h.items) - 1)
		return
	}
	if !worse(h.items[0], nb) {
		return // candidate is no better than the current worst
	}
	h.items[0] = nb
	h.siftDown(0, len(h.items))
}

// Full reports whether k items are held.
func (h *BoundedHeap) Full() bool { return len(h.items) >= h.k }

// Len returns the number of items currently held.
func (h *BoundedHeap) Len() int { return len(h.items) }

// WorstDist returns the largest retained distance, or +Inf semantics
// via ok=false when the heap is not yet full (any candidate would be
// accepted).
func (h *BoundedHeap) WorstDist() (float64, bool) {
	if len(h.items) < h.k {
		return 0, false
	}
	return h.items[0].Dist, true
}

// AppendDists appends the retained distances, in heap order, to dst.
//
//hos:hotpath
func (h *BoundedHeap) AppendDists(dst []float64) []float64 {
	for _, nb := range h.items {
		dst = append(dst, nb.Dist)
	}
	return dst
}

// Sorted drains the heap in place into a slice sorted by ascending
// distance, ties by ascending index. The returned slice aliases the
// heap's backing array: it stays valid until the next Reset/Push, and
// the heap must be Reset before it accepts candidates again.
//
//hos:hotpath
func (h *BoundedHeap) Sorted() []Neighbor {
	h.drained = true
	items := h.items
	// In-place heapsort: repeatedly move the max (farthest) to the end.
	// The comparator is a total order (indices are unique), so the
	// result is deterministic and matches the sort.Slice ordering the
	// drain previously used — without its closure allocation.
	for n := len(items); n > 1; n-- {
		items[0], items[n-1] = items[n-1], items[0]
		h.siftDown(0, n-1)
	}
	return items
}

func (h *BoundedHeap) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !worse(h.items[i], h.items[parent]) {
			return
		}
		h.items[i], h.items[parent] = h.items[parent], h.items[i]
		i = parent
	}
}

// siftDown restores the heap property at i within the first n items
// (the bound lets the in-place heapsort shrink the heap as it drains).
func (h *BoundedHeap) siftDown(i, n int) {
	for {
		l, r := 2*i+1, 2*i+2
		largest := i
		if l < n && worse(h.items[l], h.items[largest]) {
			largest = l
		}
		if r < n && worse(h.items[r], h.items[largest]) {
			largest = r
		}
		if largest == i {
			return
		}
		h.items[i], h.items[largest] = h.items[largest], h.items[i]
		i = largest
	}
}
