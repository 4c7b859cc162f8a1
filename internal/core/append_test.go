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
	_, gi, err := got.Export()
	if err != nil {
		t.Fatal(err)
	}
	_, wi, err := want.Export()
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
		gr, err := got.QueryWith(ge, got.Dataset().Point(i), i)
		if err != nil {
			t.Fatal(err)
		}
		gc := gr.Clone()
		wr, err := want.QueryWith(we, want.Dataset().Point(i), i)
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
		m1, err := m.WithAppendedBatch(extra[:15])
		if err != nil {
			t.Fatal(err)
		}
		m2, err := m1.WithAppendedBatch(extra[15:])
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
			t.Fatalf("source miner broken after WithAppendedBatch: %v", err)
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
	m1, err := m.WithAppendedBatch(appendTestRows(rng, 30, 4))
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
	if _, err := m.WithAppendedBatch(nil); err == nil {
		t.Fatal("empty batch accepted")
	}
	if _, err := m.WithAppendedBatch([][]float64{{1, 2}}); err == nil {
		t.Fatal("wrong-width row accepted")
	}
	if _, err := m.WithAppendedBatch([][]float64{{1, 2, 3, 4, math.NaN()}}); err == nil {
		t.Fatal("NaN accepted")
	}
	if _, err := m.WithAppendedBatch([][]float64{{1, 2, 3, 4, math.Inf(1)}}); err == nil {
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

// columnsEqual asserts that got's columns and threshold equal want's
// bit for bit.
func columnsEqual(t *testing.T, what string, got, want *Miner) {
	t.Helper()
	if math.Float64bits(got.Threshold()) != math.Float64bits(want.Threshold()) {
		t.Fatalf("%s: thresholds differ: %v vs %v", what, got.Threshold(), want.Threshold())
	}
	if len(got.fullOD) != len(want.fullOD) || len(got.kthDist) != len(want.kthDist) {
		t.Fatalf("%s: column lengths differ", what)
	}
	for i := range want.fullOD {
		if math.Float64bits(got.fullOD[i]) != math.Float64bits(want.fullOD[i]) ||
			math.Float64bits(got.kthDist[i]) != math.Float64bits(want.kthDist[i]) {
			t.Fatalf("%s: row %d: derived (%v, %v), fresh (%v, %v)", what, i,
				got.fullOD[i], got.kthDist[i], want.fullOD[i], want.kthDist[i])
		}
	}
}

// freshMiner builds and preprocesses a miner over rows, or returns the
// Preprocess refusal.
func freshMiner(t *testing.T, rows [][]float64, cfg Config) (*Miner, error) {
	t.Helper()
	ds, err := vector.FromRows(rows)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMiner(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m, m.Preprocess()
}

// TestDerivedColumnsMatchFresh: on grid data built to tie — few
// levels, the last quarter of the rows copies of the first, an append
// that repeats existing rows — the columns a chain of appends and a
// scattered delete derive equal a fresh build's bit for bit, under
// every metric, on the linear, X-tree and sharded engines. A derivation
// recomputes fewer rows than the dataset holds.
func TestDerivedColumnsMatchFresh(t *testing.T) {
	compared := 0
	for seed := int64(1); seed <= 24; seed++ {
		rng := rand.New(rand.NewSource(seed))
		d, levels, n := 2+rng.Intn(4), 3+rng.Intn(8), 80+rng.Intn(120)
		rows := make([][]float64, n)
		copies := n - n/4
		for i := range rows {
			if i >= copies {
				rows[i] = rows[i-copies]
				continue
			}
			rows[i] = make([]float64, d)
			for j := range rows[i] {
				rows[i][j] = float64(rng.Intn(levels))
			}
		}
		cfg := Config{
			K: 1 + rng.Intn(5), TQuantile: 0.9, Seed: 1,
			Metric:  vector.Metric(seed % 3),
			Backend: []Backend{BackendLinear, BackendXTree}[seed%2],
		}
		if seed%4 == 3 {
			cfg.Shards = 2
		}
		prefix, mid := n*2/3, n*5/6
		base, err := freshMiner(t, rows[:prefix], cfg)
		if err != nil {
			continue // refused alike below: the chain needs a base
		}
		m1, err1 := base.WithAppendedBatch(rows[prefix:mid])
		want1, errW := freshMiner(t, rows[:mid], cfg)
		if (err1 == nil) != (errW == nil) {
			t.Fatalf("seed %d: first append %v, fresh %v", seed, err1, errW)
		}
		if err1 != nil {
			continue
		}
		columnsEqual(t, "first append", m1, want1)
		// The second append repeats rows the dataset already holds.
		again := append(append([][]float64{}, rows[mid:]...), rows[:3]...)
		m2, err2 := m1.WithAppendedBatch(again)
		all := append(append([][]float64{}, rows...), rows[:3]...)
		want2, errW := freshMiner(t, all, cfg)
		if (err2 == nil) != (errW == nil) {
			t.Fatalf("seed %d: second append %v, fresh %v", seed, err2, errW)
		}
		if err2 != nil {
			continue
		}
		columnsEqual(t, "second append", m2, want2)
		if got := m2.ColumnRowsComputed(); got < len(again) || got > len(all) {
			t.Fatalf("seed %d: second append computed %d rows, want %d..%d", seed, got, len(again), len(all))
		}
		var keep []int
		var kept [][]float64
		for i := range all {
			if rng.Intn(5) != 0 {
				keep = append(keep, i)
				kept = append(kept, all[i])
			}
		}
		m3, err3 := m2.WithoutRows(keep)
		want3, errW := freshMiner(t, kept, cfg)
		if (err3 == nil) != (errW == nil) {
			t.Fatalf("seed %d: delete %v, fresh %v", seed, err3, errW)
		}
		if err3 != nil {
			continue
		}
		columnsEqual(t, "delete", m3, want3)
		if want3.ColumnRowsComputed() != len(keep) {
			t.Fatalf("seed %d: a fresh build computed %d rows, want %d", seed, want3.ColumnRowsComputed(), len(keep))
		}
		compared++
	}
	if compared < 8 {
		t.Fatalf("only %d seeds reached the delete; the data refuses too often to test anything", compared)
	}
}

// TestColumnsOnlyForQuantileThresholds: a fixed-T Miner keeps no
// column and computes none, and neither does a Miner built by Restore
// — whose first derivation then fills every row, as a fresh build
// does.
func TestColumnsOnlyForQuantileThresholds(t *testing.T) {
	ds, _, err := datagen.GenerateSynthetic(datagen.SyntheticConfig{N: 200, D: 4, NumOutliers: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	extra := appendTestRows(rand.New(rand.NewSource(6)), 10, 4)
	fixed, err := NewMiner(ds, Config{K: 4, T: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := fixed.Preprocess(); err != nil {
		t.Fatal(err)
	}
	grown, err := fixed.WithAppendedBatch(extra)
	if err != nil {
		t.Fatal(err)
	}
	if fixed.fullOD != nil || grown.fullOD != nil || fixed.ColumnRowsComputed() != 0 || grown.ColumnRowsComputed() != 0 {
		t.Fatalf("fixed-T miners computed %d and %d column rows", fixed.ColumnRowsComputed(), grown.ColumnRowsComputed())
	}

	cfg := Config{K: 4, TQuantile: 0.95, Seed: 1}
	m, err := NewMiner(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Preprocess(); err != nil {
		t.Fatal(err)
	}
	if m.ColumnRowsComputed() != ds.N() {
		t.Fatalf("full pass computed %d rows, want %d", m.ColumnRowsComputed(), ds.N())
	}
	st, idx, err := m.Export()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := Restore(ds, cfg, st, idx)
	if err != nil {
		t.Fatal(err)
	}
	if restored.fullOD != nil || restored.ColumnRowsComputed() != 0 {
		t.Fatal("a restored miner has a column")
	}
	child, err := restored.WithAppendedBatch(extra)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := child.ColumnRowsComputed(), ds.N()+len(extra); got != want {
		t.Fatalf("first derivation of a restored miner computed %d rows, want %d", got, want)
	}
	derived, err := m.WithAppendedBatch(extra)
	if err != nil {
		t.Fatal(err)
	}
	columnsEqual(t, "restored then appended", child, derived)
	if derived.ColumnRowsComputed() >= child.ColumnRowsComputed() {
		t.Fatalf("an append recomputed %d rows, no fewer than a full pass", derived.ColumnRowsComputed())
	}
}
