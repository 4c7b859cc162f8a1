package knn

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/subspace"
	"repro/internal/vector"
)

// TestBoundedHeapAppendDists: AppendDists appends exactly the
// retained distances after dst's contents, whatever their heap order.
func TestBoundedHeapAppendDists(t *testing.T) {
	h := NewBoundedHeap(3)
	for i, d := range []float64{5, 1, 4, 2, 3} {
		h.Push(i, d)
	}
	got := h.AppendDists([]float64{-1})
	if len(got) != 4 || got[0] != -1 {
		t.Fatalf("AppendDists = %v, want -1 then the three kept distances", got)
	}
	kept := map[float64]bool{1: true, 2: true, 3: true}
	for _, d := range got[1:] {
		if !kept[d] {
			t.Fatalf("AppendDists = %v, want 1, 2 and 3 after -1", got)
		}
		delete(kept, d)
	}
}

// TestBoundedHeapResetReuses: Reset returns a drained heap to service,
// retaining its backing storage, and the results after reuse are
// exactly what a fresh heap would produce.
func TestBoundedHeapResetReuses(t *testing.T) {
	h := NewBoundedHeap(3)
	for i, d := range []float64{5, 1, 4, 2, 3} {
		h.Push(i, d)
	}
	first := h.Sorted()
	if len(first) != 3 || first[0].Dist != 1 || first[2].Dist != 3 {
		t.Fatalf("first drain = %+v", first)
	}

	h.Reset(2)
	for i, d := range []float64{9, 7, 8} {
		h.Push(i, d)
	}
	second := h.Sorted()
	if len(second) != 2 || second[0].Dist != 7 || second[1].Dist != 8 {
		t.Fatalf("after Reset: %+v", second)
	}
	// Reset may also change k.
	h.Reset(1)
	h.Push(0, 42)
	if got := h.Sorted(); len(got) != 1 || got[0].Dist != 42 {
		t.Fatalf("after second Reset: %+v", got)
	}
}

// TestBoundedHeapPushAfterDrainPanics: Sorted hands out the heap's
// backing array, so a Push without an intervening Reset would corrupt
// a result the caller may still hold — it must panic, loudly and
// specifically.
func TestBoundedHeapPushAfterDrainPanics(t *testing.T) {
	h := NewBoundedHeap(2)
	h.Push(0, 1)
	_ = h.Sorted()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Push after Sorted did not panic")
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, "Reset") {
			t.Fatalf("panic = %v, want a message pointing at Reset", r)
		}
	}()
	h.Push(1, 2)
}

// TestBoundedHeapSortedIdempotentSafety: a second Sorted without Push
// in between is harmless (it re-sorts the same storage).
func TestBoundedHeapSortedTwice(t *testing.T) {
	h := NewBoundedHeap(3)
	for i, d := range []float64{3, 1, 2} {
		h.Push(i, d)
	}
	a := h.Sorted()
	b := h.Sorted()
	if len(a) != len(b) {
		t.Fatalf("second Sorted changed length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("second Sorted changed order at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// TestSearcherStatsConcurrentWithQueries is the regression test for
// the Stats data race: one goroutine queries (KNN is single-goroutine
// per searcher), while many goroutines hammer Stats and ResetStats.
// Run under -race this fails deterministically with the old plain
// int64 counters.
func TestSearcherStatsConcurrentWithQueries(t *testing.T) {
	ds, err := vector.FromRows([][]float64{
		{0, 0}, {1, 0}, {0, 1}, {2, 2}, {3, 1}, {5, 5}, {1, 4}, {2, 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	ls, err := NewLinear(ds, vector.L2)
	if err != nil {
		t.Fatal(err)
	}

	const readers = 8
	const iters = 200
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				st := ls.Stats()
				if st.Queries < 0 || st.PointsExamined < 0 {
					t.Error("counter went negative")
					return
				}
				if r == 0 {
					ls.ResetStats()
				}
			}
		}(r)
	}
	for i := 0; i < iters; i++ {
		nbs := ls.KNN(ds.Point(i%ds.N()), subspace.Full(2), 3, i%ds.N())
		if len(nbs) != 3 {
			t.Errorf("iter %d: got %d neighbours", i, len(nbs))
			break
		}
	}
	close(stop)
	wg.Wait()
}
