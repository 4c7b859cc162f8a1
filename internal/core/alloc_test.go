package core

import (
	"context"
	"testing"

	"repro/internal/datagen"
)

// These tests pin the zero-allocation contract of the query hot path.
// They are budgets, not benchmarks: a regression that re-introduces
// per-query garbage (a closure, a sort.Slice, a fresh tracker) fails
// here deterministically, long before it shows up as GC pressure in
// production profiles.

func allocTestMiner(t *testing.T) *Miner {
	t.Helper()
	ds, _, err := datagen.GenerateSynthetic(datagen.SyntheticConfig{
		N: 300, D: 5, NumOutliers: 3, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMiner(ds, Config{K: 5, TQuantile: 0.95, Seed: 1, Backend: BackendLinear})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Preprocess(); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestQueryWithZeroAlloc: a steady-state QueryWith on a warm evaluator
// allocates nothing — results live in the evaluator's scratch.
func TestQueryWithZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the budget holds only uninstrumented")
	}
	m := allocTestMiner(t)
	eval, err := m.NewWorkerEvaluator()
	if err != nil {
		t.Fatal(err)
	}
	// Warm the scratch (tracker, heaps, buffers) across a spread of
	// points so every buffer reaches its steady-state capacity.
	for i := 0; i < 20; i++ {
		if _, err := m.QueryPointWith(eval, i%m.Dataset().N()); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	n := testing.AllocsPerRun(50, func() {
		if _, err := m.QueryPointWith(eval, i%m.Dataset().N()); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if n != 0 {
		t.Fatalf("steady-state QueryWith allocates %v objects per call, want 0", n)
	}
}

// TestQueryBatchSteadyStateZeroAlloc: a single-worker batch that
// recycles its BatchResult (BatchOptions.Reuse) allocates nothing once
// warm — per item and per batch, for row and external-point items
// alike, including the grouping of repeats.
func TestQueryBatchSteadyStateZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the budget holds only uninstrumented")
	}
	m := allocTestMiner(t)
	queries := make([]BatchQuery, 24)
	for i := 0; i < 16; i++ {
		queries[i] = BatchIndex(i % 8) // repeated rows
	}
	points := make([][]float64, 4)
	for i := range points {
		points[i] = append([]float64(nil), m.Dataset().Point(i)...)
		points[i][0] += 0.5
	}
	for i := 16; i < len(queries); i++ {
		queries[i] = BatchPoint(points[i%len(points)]) // repeated external points
	}
	opts := BatchOptions{Workers: 1}
	for i := 0; i < 5; i++ {
		res, err := m.QueryBatch(context.Background(), queries, opts)
		if err != nil {
			t.Fatal(err)
		}
		opts.Reuse = res
	}
	n := testing.AllocsPerRun(30, func() {
		res, err := m.QueryBatch(context.Background(), queries, opts)
		if err != nil {
			t.Fatal(err)
		}
		if res.Failed != 0 {
			t.Fatal("batch items failed")
		}
		opts.Reuse = res
	})
	if n != 0 {
		t.Fatalf("steady-state QueryBatch allocates %v objects per batch, want 0", n)
	}
}

// TestQueryBatchParallelZeroAlloc: the multi-worker fan-out path,
// recycling its BatchResult, allocates nothing once warm either — the
// coordination machinery (cursor, WaitGroup, first-error slot, the
// goroutine entry func value) lives in the worker loop the BatchResult
// recycles, and goroutine descriptors come from the runtime's free
// list. This was ~23 allocs/op before the fan-out state moved into
// BatchResult.
func TestQueryBatchParallelZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the budget holds only uninstrumented")
	}
	m := allocTestMiner(t)
	queries := make([]BatchQuery, 32)
	for i := range queries {
		queries[i] = BatchIndex(i % 16) // repeats are evaluated once
	}
	opts := BatchOptions{Workers: 4}
	for i := 0; i < 10; i++ {
		res, err := m.QueryBatch(context.Background(), queries, opts)
		if err != nil {
			t.Fatal(err)
		}
		opts.Reuse = res
	}
	n := testing.AllocsPerRun(50, func() {
		res, err := m.QueryBatch(context.Background(), queries, opts)
		if err != nil {
			t.Fatal(err)
		}
		if res.Failed != 0 {
			t.Fatal("batch items failed")
		}
		opts.Reuse = res
	})
	if n != 0 {
		t.Fatalf("steady-state parallel QueryBatch allocates %v objects per batch, want 0", n)
	}
}

// TestQueryBatchReuseInvalidatesPreviousResults documents the Reuse
// contract: recycling a BatchResult overwrites the storage the
// previous round's items pointed into, so retained slices must be
// cloned before the next batch.
func TestQueryBatchReuseInvalidatesPreviousResults(t *testing.T) {
	m := allocTestMiner(t)
	queries := []BatchQuery{BatchIndex(0), BatchIndex(1)}
	res1, err := m.QueryBatch(context.Background(), queries, BatchOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	kept := res1.Items[0].Result
	cloned := kept.Clone()
	res2, err := m.QueryBatch(context.Background(), queries, BatchOptions{Workers: 1, Reuse: res1})
	if err != nil {
		t.Fatal(err)
	}
	if res2 != res1 {
		t.Fatal("Reuse did not recycle the BatchResult")
	}
	// The clone still matches the fresh computation of the same item;
	// the retained pointer may have been overwritten (same inputs here,
	// so only identity, not values, can be asserted).
	fresh := res2.Items[0].Result
	if cloned.IsOutlierAnywhere != fresh.IsOutlierAnywhere ||
		len(cloned.Outlying) != len(fresh.Outlying) {
		t.Fatal("cloned result diverged from recomputation of the same item")
	}
}

// TestScanAllAllocatesPerHit: a whole-dataset scan allocates per hit,
// not per row. Every row's search runs on the worker's evaluator and
// its resident scratch, so a row that is outlying nowhere leaves
// nothing behind, and a hit keeps only its own ScanHit and a copy of
// its minimal set.
func TestScanAllAllocatesPerHit(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the budget holds only uninstrumented")
	}
	m := allocTestMiner(t)
	opts := ScanOptions{Workers: 1}
	hits, err := m.ScanAll(context.Background(), opts) // warms the pooled evaluator
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) == 0 {
		t.Fatal("scan found no hits; the per-hit term is untested")
	}
	n := testing.AllocsPerRun(10, func() {
		if _, err := m.ScanAll(context.Background(), opts); err != nil {
			t.Fatal(err)
		}
	})
	// perScan is the scan's run state (its body and worker loop), the
	// per-row hit table and the returned hit slice, plus one spare so
	// the budget pins the per-row term, not the exact constant. perHit
	// is each hit's ScanHit and its copied minimal set. A scan that
	// allocated even once per row would need 300 more.
	const perScan, perHit = 4, 2
	if bound := perScan + perHit*len(hits); n > float64(bound) {
		t.Fatalf("ScanAll allocates %v objects for %d rows and %d hits, want ≤ %d",
			n, m.Dataset().N(), len(hits), bound)
	}
	t.Logf("%v allocs per scan of %d rows with %d hits", n, m.Dataset().N(), len(hits))
}
