package core

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/datagen"
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
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := m.QueryPointWith(eval, i%m.Dataset().N()); err != nil {
					b.Fatal(err)
				}
			}
		})
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
