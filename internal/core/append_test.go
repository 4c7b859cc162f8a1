package core

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/datagen"
	"repro/internal/vector"
)

func appendTestRows(rng *rand.Rand, n, d int) [][]float64 {
	rows := make([][]float64, n)
	for i := range rows {
		row := make([]float64, d)
		for j := range row {
			row[j] = rng.NormFloat64() * 3
		}
		rows[i] = row
	}
	return rows
}

// minersEqual asserts two preprocessed miners are indistinguishable:
// threshold bits, priors, encoded index, and per-point answers.
func minersEqual(t *testing.T, got, want *Miner) {
	t.Helper()
	if math.Float64bits(got.Threshold()) != math.Float64bits(want.Threshold()) {
		t.Fatalf("thresholds differ: %v vs %v", got.Threshold(), want.Threshold())
	}
	if !reflect.DeepEqual(got.Priors(), want.Priors()) {
		t.Fatalf("priors differ:\n%v\n%v", got.Priors(), want.Priors())
	}
	gi, err := got.ExportIndex()
	if err != nil {
		t.Fatal(err)
	}
	wi, err := want.ExportIndex()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gi.Tree, wi.Tree) {
		t.Fatal("encoded single-index trees differ")
	}
	if len(gi.ShardTrees) != len(wi.ShardTrees) {
		t.Fatalf("shard tree counts differ: %d vs %d", len(gi.ShardTrees), len(wi.ShardTrees))
	}
	for s := range gi.ShardTrees {
		if !bytes.Equal(gi.ShardTrees[s], wi.ShardTrees[s]) {
			t.Fatalf("shard %d encoded trees differ", s)
		}
	}
	ge, err := got.NewWorkerEvaluator()
	if err != nil {
		t.Fatal(err)
	}
	we, err := want.NewWorkerEvaluator()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < got.Dataset().N(); i += 13 {
		gr, err := got.QueryPointWith(ge, i)
		if err != nil {
			t.Fatal(err)
		}
		gc := gr.Clone()
		wr, err := want.QueryPointWith(we, i)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gc.SearchResult.Outlying, wr.SearchResult.Outlying) ||
			!reflect.DeepEqual(gc.SearchResult.Minimal, wr.SearchResult.Minimal) ||
			gc.IsOutlierAnywhere != wr.IsOutlierAnywhere {
			t.Fatalf("point %d: appended and rebuilt miners disagree", i)
		}
	}
}

// TestWithAppendedEqualsRebuild: the COW append path is byte-identical
// to a from-scratch NewMiner+Preprocess over the final dataset, across
// backends, shard widths and threshold modes.
func TestWithAppendedEqualsRebuild(t *testing.T) {
	ds, _, err := datagen.GenerateSynthetic(datagen.SyntheticConfig{
		N: 300, D: 5, NumOutliers: 4, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(77))
	extra := appendTestRows(rng, 40, 5)
	for _, cfg := range []Config{
		{K: 5, T: 4, Seed: 1, Backend: BackendLinear},
		{K: 5, TQuantile: 0.9, Seed: 1, Backend: BackendXTree},
		{K: 4, TQuantile: 0.95, SampleSize: 20, Seed: 3, Backend: BackendLinear},
		{K: 5, T: 4, Seed: 1, Backend: BackendXTree, Shards: 2, Partitioner: 1},
		{K: 5, TQuantile: 0.9, SampleSize: 10, Seed: 2, Backend: BackendLinear, Shards: 7},
	} {
		m, err := NewMiner(ds, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Preprocess(); err != nil {
			t.Fatal(err)
		}
		// Append in two batches to exercise chained COW derivation.
		m1, err := m.WithAppended(extra[:15])
		if err != nil {
			t.Fatal(err)
		}
		m2, err := m1.WithAppended(extra[15:])
		if err != nil {
			t.Fatal(err)
		}
		full, err := ds.Append(extra...)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := NewMiner(full, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := fresh.Preprocess(); err != nil {
			t.Fatal(err)
		}
		minersEqual(t, m2, fresh)
		// The source miner still answers (COW left it intact).
		if _, err := m.OutlyingSubspacesOfPoint(0); err != nil {
			t.Fatalf("source miner broken after WithAppended: %v", err)
		}
	}
}

// TestWithAppendedCrossesAutoThreshold: a BackendAuto linear miner
// that grows past shard.AutoXTreeThreshold picks up an X-tree,
// matching the from-scratch build.
func TestWithAppendedCrossesAutoThreshold(t *testing.T) {
	ds, _, err := datagen.GenerateSynthetic(datagen.SyntheticConfig{
		N: 500, D: 4, NumOutliers: 3, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{K: 5, T: 4, Seed: 1, Backend: BackendAuto}
	m, err := NewMiner(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Preprocess(); err != nil {
		t.Fatal(err)
	}
	if tree, err := m.index.Encode(); err != nil || tree != nil {
		t.Fatal("500-point auto miner unexpectedly tree-backed")
	}
	rng := rand.New(rand.NewSource(6))
	m1, err := m.WithAppended(appendTestRows(rng, 30, 4))
	if err != nil {
		t.Fatal(err)
	}
	if tree, err := m1.index.Encode(); err != nil || tree == nil {
		t.Fatal("530-point auto miner missing its X-tree")
	}
	fresh, err := NewMiner(m1.Dataset(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.Preprocess(); err != nil {
		t.Fatal(err)
	}
	minersEqual(t, m1, fresh)
}

// TestWithAppendedRejectsBadRows pins input validation: empty batch,
// wrong width, non-finite values.
func TestWithAppendedRejectsBadRows(t *testing.T) {
	m := allocTestMiner(t)
	if _, err := m.WithAppended(nil); err == nil {
		t.Fatal("empty batch accepted")
	}
	if _, err := m.WithAppended([][]float64{{1, 2}}); err == nil {
		t.Fatal("wrong-width row accepted")
	}
	if _, err := m.WithAppended([][]float64{{1, 2, 3, 4, math.NaN()}}); err == nil {
		t.Fatal("NaN accepted")
	}
	if _, err := m.WithAppended([][]float64{{1, 2, 3, 4, math.Inf(1)}}); err == nil {
		t.Fatal("+Inf accepted")
	}
}

// TestWithoutRowsEqualsRebuild: deletion rebuilds, and the result
// matches NewMiner over the surviving rows.
func TestWithoutRowsEqualsRebuild(t *testing.T) {
	ds, _, err := datagen.GenerateSynthetic(datagen.SyntheticConfig{
		N: 200, D: 4, NumOutliers: 3, Seed: 21,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{K: 4, TQuantile: 0.9, Seed: 2, Backend: BackendLinear, Shards: 2}
	m, err := NewMiner(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Preprocess(); err != nil {
		t.Fatal(err)
	}
	keep := make([]int, 0, 150)
	for i := 0; i < 200; i++ {
		if i%4 != 1 {
			keep = append(keep, i)
		}
	}
	m1, err := m.WithoutRows(keep)
	if err != nil {
		t.Fatal(err)
	}
	rows := make([][]float64, len(keep))
	for i, g := range keep {
		rows[i] = ds.Point(g)
	}
	kept, err := vector.FromRows(rows)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := NewMiner(kept, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.Preprocess(); err != nil {
		t.Fatal(err)
	}
	minersEqual(t, m1, fresh)
}

// TestWithoutRowsRejectsInvalid pins delete validation: empty keep,
// unsorted keep, no-op keep, and a keep too small for K.
func TestWithoutRowsRejectsInvalid(t *testing.T) {
	m := allocTestMiner(t) // N=300, K=5
	if _, err := m.WithoutRows(nil); err == nil {
		t.Fatal("empty keep accepted")
	}
	if _, err := m.WithoutRows([]int{5, 3}); err == nil {
		t.Fatal("unsorted keep accepted")
	}
	if _, err := m.WithoutRows([]int{1, 1}); err == nil {
		t.Fatal("duplicate keep accepted")
	}
	all := make([]int, 300)
	for i := range all {
		all[i] = i
	}
	if _, err := m.WithoutRows(all); err == nil {
		t.Fatal("no-op delete accepted")
	}
	if _, err := m.WithoutRows([]int{0, 1, 2}); err == nil {
		t.Fatal("keep smaller than K accepted")
	}
}
