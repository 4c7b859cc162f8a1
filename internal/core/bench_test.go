package core

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/datagen"
	"repro/internal/vector"
)

// benchMiner builds one preprocessed miner for the query benchmarks.
func benchMiner(b *testing.B, shards int) *Miner {
	b.Helper()
	ds, _, err := datagen.GenerateSynthetic(datagen.SyntheticConfig{
		N: 2000, D: 6, NumOutliers: 5, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	m, err := NewMiner(ds, Config{
		K: 5, TQuantile: 0.95, Seed: 1, Backend: BackendLinear, Shards: shards,
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := m.Preprocess(); err != nil {
		b.Fatal(err)
	}
	return m
}

// BenchmarkQueryWith is the single-query hot path on a caller-owned
// evaluator — the unit the server's /query handler pays per miss.
func BenchmarkQueryWith(b *testing.B) {
	for _, shards := range []int{0, 4} { // 0 = single unsharded index
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			m := benchMiner(b, shards)
			eval, err := m.NewWorkerEvaluator()
			if err != nil {
				b.Fatal(err)
			}
			ds := m.Dataset()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := m.QueryWith(eval, ds.Point(i%ds.N()), i%ds.N()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkQueryWithXTree is the single-query hot path on the X-tree
// engine, which serves every dataset of 512 rows or more under
// BackendAuto: N=4000, d=10, queried alternately with a member row
// and a fresh point from the rows that follow in the same synthetic
// stream.
func BenchmarkQueryWithXTree(b *testing.B) {
	const n, d, fresh = 4000, 10, 256
	all, _, err := datagen.GenerateSynthetic(datagen.SyntheticConfig{N: n + fresh, D: d, NumOutliers: 5, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	ds, err := vector.NewDataset(all.Slab()[:n*d], n, d)
	if err != nil {
		b.Fatal(err)
	}
	m, err := NewMiner(ds, Config{K: 5, TQuantile: 0.95, Seed: 1, Backend: BackendXTree})
	if err != nil {
		b.Fatal(err)
	}
	if err := m.Preprocess(); err != nil {
		b.Fatal(err)
	}
	eval, err := m.NewWorkerEvaluator()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % (2 * fresh)
		point, exclude := all.Point(n+j/2), -1
		if j%2 == 0 {
			exclude = j / 2 * (n / fresh)
			point = ds.Point(exclude)
		}
		if _, err := m.QueryWith(eval, point, exclude); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQueryBatchCore is the batch engine over the same miner —
// per-item cost with each repeated item evaluated once. Pinned
// to one worker with result reuse so the figure is deterministic
// across GOMAXPROCS and reflects the engine's zero-allocation steady
// state; BenchmarkQueryBatchParallel below measures the default
// fan-out configuration.
func BenchmarkQueryBatchCore(b *testing.B) {
	m := benchMiner(b, 0)
	queries := make([]BatchQuery, 64)
	for i := range queries {
		queries[i] = BatchIndex(i % 32) // half duplicates
	}
	opts := BatchOptions{Workers: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := m.QueryBatch(context.Background(), queries, opts)
		if err != nil {
			b.Fatal(err)
		}
		if res.Failed != 0 {
			b.Fatal("batch items failed")
		}
		opts.Reuse = res
	}
}

// BenchmarkQueryBatchParallel is the batch engine as the server runs
// it: default worker fan-out, fresh result per batch.
func BenchmarkQueryBatchParallel(b *testing.B) {
	m := benchMiner(b, 0)
	queries := make([]BatchQuery, 64)
	for i := range queries {
		queries[i] = BatchIndex(i % 32) // half duplicates
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := m.QueryBatch(context.Background(), queries, BatchOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if res.Failed != 0 {
			b.Fatal("batch items failed")
		}
	}
}

// BenchmarkQueryBatchParallelReuse is the fan-out path in its
// zero-allocation steady state: explicit multi-worker spread with
// BatchOptions.Reuse recycling the result and the coordination
// machinery (see workerLoop). The allocs/op figure is gated at 0 by
// benchjson and TestQueryBatchParallelZeroAlloc.
func BenchmarkQueryBatchParallelReuse(b *testing.B) {
	m := benchMiner(b, 0)
	queries := make([]BatchQuery, 64)
	for i := range queries {
		queries[i] = BatchIndex(i % 32) // half duplicates
	}
	opts := BatchOptions{Workers: 4}
	// Warm the pool, arenas and goroutine free list so the figure is
	// the steady state, not amortized startup cost.
	for i := 0; i < 5; i++ {
		res, err := m.QueryBatch(context.Background(), queries, opts)
		if err != nil {
			b.Fatal(err)
		}
		opts.Reuse = res
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := m.QueryBatch(context.Background(), queries, opts)
		if err != nil {
			b.Fatal(err)
		}
		if res.Failed != 0 {
			b.Fatal("batch items failed")
		}
		opts.Reuse = res
	}
}

// BenchmarkMutationCycle is live_ingest's write cycle in process: on
// an N=3000, d=8 miner (k 5, TQuantile 0.95, the X-tree backend), four
// 64-row WithAppendedBatch calls, then a WithoutRows that drops the
// appended rows again. The rows cycle through a pool of 16 batches
// drawn from the same synthetic stream, and every iteration ends on
// the base dataset, so the per-op figures do not depend on
// -benchtime. column-rows/op counts the full-space column rows the
// five mutations recomputed.
func BenchmarkMutationCycle(b *testing.B) {
	const n, d, batch, appends, pool = 3000, 8, 64, 4, 16
	all, _, err := datagen.GenerateSynthetic(datagen.SyntheticConfig{N: n + pool*batch, D: d, NumOutliers: 5, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	ds, err := vector.NewDataset(all.Slab()[:n*d], n, d)
	if err != nil {
		b.Fatal(err)
	}
	base, err := NewMiner(ds, Config{K: 5, TQuantile: 0.95, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	if err := base.Preprocess(); err != nil {
		b.Fatal(err)
	}
	rows := all.Rows()[n:]
	keep := make([]int, n)
	for i := range keep {
		keep[i] = i
	}
	var columnRows int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := base
		for a := range appends {
			at := (i*appends + a) % pool * batch
			if m, err = m.WithAppendedBatch(rows[at : at+batch]); err != nil {
				b.Fatal(err)
			}
			columnRows += m.ColumnRowsComputed()
		}
		if m, err = m.WithoutRows(keep); err != nil {
			b.Fatal(err)
		}
		columnRows += m.ColumnRowsComputed()
	}
	b.ReportMetric(float64(columnRows)/float64(b.N), "column-rows/op")
}
