// Benchmarks for every experiment in DESIGN.md §3 plus micro-benches
// of the performance-critical primitives. Each BenchmarkT*/F* bench
// regenerates the corresponding experiment table (Quick scale by
// default; set HOSBENCH_SCALE=full for DESIGN.md parameters) — run
// with -v to see the tables. cmd/hosbench produces the same tables
// standalone.
package hosminer_test

import (
	"bytes"
	"context"
	"math/rand"
	"os"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/experiments"
	"repro/internal/knn"
	"repro/internal/od"
	"repro/internal/subspace"
	"repro/internal/vector"
	"repro/internal/xtree"
)

func benchScale() experiments.Scale {
	if os.Getenv("HOSBENCH_SCALE") == "full" {
		return experiments.Full
	}
	return experiments.Quick
}

// benchExperiment regenerates one experiment table per iteration.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	runner := experiments.NewRunner(benchScale(), 1)
	var rendered string
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab, err := runner.ByID(id)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			var buf bytes.Buffer
			if err := tab.Render(&buf); err != nil {
				b.Fatal(err)
			}
			rendered = buf.String()
		}
	}
	b.StopTimer()
	b.Log("\n" + rendered)
}

// One bench per table/figure (DESIGN.md §3 experiment index).

func BenchmarkT1SavingFactors(b *testing.B)      { benchExperiment(b, "T1") }
func BenchmarkF1RuntimeVsDim(b *testing.B)       { benchExperiment(b, "F1") }
func BenchmarkF2RuntimeVsN(b *testing.B)         { benchExperiment(b, "F2") }
func BenchmarkF3PruningPower(b *testing.B)       { benchExperiment(b, "F3") }
func BenchmarkF4SampleSize(b *testing.B)         { benchExperiment(b, "F4") }
func BenchmarkF5Threshold(b *testing.B)          { benchExperiment(b, "F5") }
func BenchmarkF6K(b *testing.B)                  { benchExperiment(b, "F6") }
func BenchmarkT2Effectiveness(b *testing.B)      { benchExperiment(b, "T2") }
func BenchmarkF7VsEvolutionary(b *testing.B)     { benchExperiment(b, "F7") }
func BenchmarkT3XTreeKNN(b *testing.B)           { benchExperiment(b, "T3") }
func BenchmarkT4FilterReduction(b *testing.B)    { benchExperiment(b, "T4") }
func BenchmarkF8OrderingAblation(b *testing.B)   { benchExperiment(b, "F8") }
func BenchmarkT5XTreeSplitAblation(b *testing.B) { benchExperiment(b, "T5") }
func BenchmarkF9MetricSweep(b *testing.B)        { benchExperiment(b, "F9") }

// --- micro-benches ---------------------------------------------------

func benchDataset(b *testing.B, n, d int) *vector.Dataset {
	b.Helper()
	ds, _, err := datagen.GenerateSynthetic(datagen.SyntheticConfig{
		N: n, D: d, NumOutliers: 3, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	return ds
}

func BenchmarkLinearKNN(b *testing.B) {
	ds := benchDataset(b, 4000, 10)
	ls, err := knn.NewLinear(ds, vector.L2)
	if err != nil {
		b.Fatal(err)
	}
	s := subspace.Full(10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ls.KNN(ds.Point(i%ds.N()), s, 5, i%ds.N())
	}
}

func BenchmarkXTreeKNN(b *testing.B) {
	ds := benchDataset(b, 4000, 10)
	tree, err := xtree.Build(ds, vector.L2, xtree.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	xs := xtree.NewSearcher(tree)
	s := subspace.Full(10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		xs.KNN(ds.Point(i%ds.N()), s, 5, i%ds.N())
	}
}

func BenchmarkXTreeSubspaceKNN(b *testing.B) {
	ds := benchDataset(b, 4000, 10)
	tree, err := xtree.Build(ds, vector.L2, xtree.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	xs := xtree.NewSearcher(tree)
	s := subspace.New(1, 4, 7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		xs.KNN(ds.Point(i%ds.N()), s, 5, i%ds.N())
	}
}

func BenchmarkXTreeBuild(b *testing.B) {
	ds := benchDataset(b, 2000, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := xtree.Build(ds, vector.L2, xtree.DefaultConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkODEvaluation(b *testing.B) {
	ds := benchDataset(b, 2000, 10)
	ls, _ := knn.NewLinear(ds, vector.L2)
	eval, err := od.NewEvaluator(ds, ls, vector.L2, 5, od.NormNone)
	if err != nil {
		b.Fatal(err)
	}
	s := subspace.New(0, 3, 6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eval.ODOfPoint(i%ds.N(), s)
	}
}

func benchSearchPolicy(b *testing.B, policy core.Policy) {
	ds := benchDataset(b, 800, 10)
	ls, _ := knn.NewLinear(ds, vector.L2)
	eval, err := od.NewEvaluator(ds, ls, vector.L2, 5, od.NormNone)
	if err != nil {
		b.Fatal(err)
	}
	ods := eval.FullSpaceODs()
	T, err := vector.Quantile(ods, 0.95)
	if err != nil {
		b.Fatal(err)
	}
	priors := core.UniformPriors(10)
	rng := experimentsRng()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := eval.NewQueryForPoint(i % ds.N())
		if _, err := core.Search(q, 10, T, priors, policy, rng); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSearchTSF(b *testing.B)      { benchSearchPolicy(b, core.PolicyTSF) }
func BenchmarkSearchBottomUp(b *testing.B) { benchSearchPolicy(b, core.PolicyBottomUp) }
func BenchmarkSearchTopDown(b *testing.B)  { benchSearchPolicy(b, core.PolicyTopDown) }

// --- batch engine ----------------------------------------------------
//
// BenchmarkQueryBatch vs BenchmarkQueryBatchSequentialBaseline run the
// SAME 64-query workload (hot-key traffic: 64 queries over 16 distinct
// rows of the default synthetic dataset, the shape multi-user serving
// produces) through the batch engine and through N sequential single
// queries. The batch engine evaluates each distinct row once and
// copies its answer to the repeats, which is where the speedup comes
// from even on one core; on multi-core machines the worker fan-out
// multiplies it. Measured numbers live in DESIGN.md §4.5.

func batchBenchMiner(b *testing.B) *core.Miner {
	b.Helper()
	ds := benchDataset(b, 1000, 8)
	m, err := core.NewMiner(ds, core.Config{K: 5, TQuantile: 0.95, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	if err := m.Preprocess(); err != nil {
		b.Fatal(err)
	}
	return m
}

// batchBenchQueries is the shared 64-item hot-key workload.
func batchBenchQueries() []core.BatchQuery {
	rng := rand.New(rand.NewSource(7))
	qs := make([]core.BatchQuery, 64)
	for i := range qs {
		qs[i] = core.BatchIndex(rng.Intn(16))
	}
	return qs
}

func BenchmarkQueryBatch(b *testing.B) {
	m := batchBenchMiner(b)
	qs := batchBenchQueries()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := m.QueryBatch(context.Background(), qs, core.BatchOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if res.Failed != 0 {
			b.Fatalf("%d items failed", res.Failed)
		}
	}
}

func BenchmarkQueryBatchSequentialBaseline(b *testing.B) {
	m := batchBenchMiner(b)
	qs := batchBenchQueries()
	eval, err := m.NewWorkerEvaluator()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, q := range qs {
			row, _ := q.Row()
			if _, err := m.QueryPointWith(eval, row); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkMinimalFilter(b *testing.B) {
	// A realistic post-search outlying set: all supersets of two
	// planted 2-dim subspaces in d=14.
	d := 14
	outlying := core.ExpandMinimal([]subspace.Mask{
		subspace.New(1, 4), subspace.New(7, 9),
	}, d)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.MinimalSubspaces(outlying)
	}
}

func BenchmarkLatticePropagation(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr, err := latticeFresh(16)
		if err != nil {
			b.Fatal(err)
		}
		tr.MarkOutlier(subspace.New(2), true)
		tr.MarkNonOutlier(subspace.Full(16).Drop(2), true)
	}
}
