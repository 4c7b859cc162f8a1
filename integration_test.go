package hosminer_test

import (
	"testing"

	hosminer "repro"
	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/knn"
	"repro/internal/od"
)

// TestEndToEndAgainstNaiveOracle is the heaviest integration check:
// across datasets, dimensionalities, metrics and backends, the full
// Miner pipeline must produce exactly the same outlying set as the
// naive exhaustive oracle built from independent components.
func TestEndToEndAgainstNaiveOracle(t *testing.T) {
	type cfg struct {
		d       int
		metric  hosminer.Metric
		backend hosminer.Backend
	}
	for _, c := range []cfg{
		{4, hosminer.L2, hosminer.BackendLinear},
		{6, hosminer.L1, hosminer.BackendLinear},
		{5, hosminer.LInf, hosminer.BackendXTree},
		{7, hosminer.L2, hosminer.BackendXTree},
	} {
		ds, truth, err := hosminer.GenerateSynthetic(hosminer.SyntheticConfig{
			N: 150, D: c.d, NumOutliers: 2, Seed: int64(c.d) * 3,
		})
		if err != nil {
			t.Fatal(err)
		}
		m, err := hosminer.New(ds, hosminer.Config{
			K: 4, TQuantile: 0.9, SampleSize: 5, Seed: 1,
			Metric: c.metric, Backend: c.backend,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Preprocess(); err != nil {
			t.Fatal(err)
		}
		// Independent oracle (always linear scan).
		ls, err := knn.NewLinear(ds, c.metric)
		if err != nil {
			t.Fatal(err)
		}
		eval, err := od.NewEvaluator(ds, ls, c.metric, 4, od.NormNone)
		if err != nil {
			t.Fatal(err)
		}
		var queries []int
		for _, o := range truth.Outliers {
			queries = append(queries, o.Index)
		}
		for _, idx := range append(queries, 50, 99) {
			res, err := m.OutlyingSubspacesOfPoint(idx)
			if err != nil {
				t.Fatal(err)
			}
			oracle, err := baseline.NaiveSearch(eval, ds.Point(idx), idx, m.Threshold())
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Outlying) != len(oracle.Outlying) {
				t.Fatalf("%+v idx=%d: miner %d outlying, oracle %d",
					c, idx, len(res.Outlying), len(oracle.Outlying))
			}
			for i := range res.Outlying {
				if res.Outlying[i] != oracle.Outlying[i] {
					t.Fatalf("%+v idx=%d: sets differ at %d", c, idx, i)
				}
			}
		}
	}
}

// TestSingleDimensionDataset: the degenerate d = 1 lattice (one
// subspace) must work end to end.
func TestSingleDimensionDataset(t *testing.T) {
	rows := make([][]float64, 60)
	for i := range rows {
		rows[i] = []float64{float64(i) * 0.1}
	}
	rows[59] = []float64{500}
	ds, err := hosminer.FromRows(rows)
	if err != nil {
		t.Fatal(err)
	}
	m, err := hosminer.New(ds, hosminer.Config{K: 3, TQuantile: 0.95, SampleSize: 4, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.OutlyingSubspacesOfPoint(59)
	if err != nil {
		t.Fatal(err)
	}
	if !res.IsOutlierAnywhere || len(res.Minimal) != 1 || res.Minimal[0] != hosminer.NewSubspace(0) {
		t.Fatalf("d=1 outlier: %+v", res)
	}
	in, err := m.OutlyingSubspacesOfPoint(5)
	if err != nil {
		t.Fatal(err)
	}
	if in.IsOutlierAnywhere {
		t.Fatalf("d=1 inlier flagged: %v", in.Minimal)
	}
}

// TestDuplicateHeavyDataset: massive ties (categorical-like values)
// must not break any layer of the stack.
func TestDuplicateHeavyDataset(t *testing.T) {
	rows := make([][]float64, 120)
	for i := range rows {
		rows[i] = []float64{float64(i % 3), float64(i % 2), 1}
	}
	rows[0] = []float64{50, 0, 1} // single deviant in dim 0
	ds, err := hosminer.FromRows(rows)
	if err != nil {
		t.Fatal(err)
	}
	for _, backend := range []hosminer.Backend{hosminer.BackendLinear, hosminer.BackendXTree} {
		m, err := hosminer.New(ds, hosminer.Config{K: 4, T: 20, Backend: backend})
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.OutlyingSubspacesOfPoint(0)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Minimal) != 1 || !res.Minimal[0].Contains(0) {
			t.Fatalf("backend %v: minimal = %v", backend, res.Minimal)
		}
		// Constant dim 2 must never appear in a minimal subspace.
		for _, s := range res.Minimal {
			if s.Contains(2) && s.Card() == 1 {
				t.Fatalf("constant dim flagged: %v", s)
			}
		}
	}
}

// TestLearningOnDegenerateThreshold: TQuantile on a dataset whose ODs
// are all identical-ish must either resolve to a positive T or fail
// loudly, never divide by zero downstream.
func TestLearningOnDegenerateThreshold(t *testing.T) {
	rows := make([][]float64, 40)
	for i := range rows {
		rows[i] = []float64{0, 0} // all identical → all ODs zero
	}
	ds, _ := hosminer.FromRows(rows)
	m, err := hosminer.New(ds, hosminer.Config{K: 3, TQuantile: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Preprocess(); err == nil {
		t.Fatalf("degenerate dataset resolved T = %v; want error", m.Threshold())
	}
}

// TestQueryResultInternalConsistency: counters, sets and flags of a
// QueryResult must be mutually consistent.
func TestQueryResultInternalConsistency(t *testing.T) {
	ds, truth, _ := hosminer.GenerateSynthetic(hosminer.SyntheticConfig{
		N: 200, D: 6, NumOutliers: 2, Seed: 9,
	})
	m, _ := hosminer.New(ds, hosminer.Config{K: 4, TQuantile: 0.95, SampleSize: 8, Seed: 9})
	for _, idx := range []int{truth.Outliers[0].Index, 100} {
		res, err := m.OutlyingSubspacesOfPoint(idx)
		if err != nil {
			t.Fatal(err)
		}
		c := res.Counters
		if c.Unknown != 0 {
			t.Fatalf("search ended with %d unknown", c.Unknown)
		}
		if c.Evaluations+c.ImpliedUp+c.ImpliedDown != c.Total {
			t.Fatalf("counters inconsistent: %+v", c)
		}
		if int64(len(res.Outlying)) != c.Outliers {
			t.Fatalf("outlying len %d vs counter %d", len(res.Outlying), c.Outliers)
		}
		if res.IsOutlierAnywhere != (len(res.Outlying) > 0) {
			t.Fatal("IsOutlierAnywhere inconsistent")
		}
		if res.ODEvaluations > c.Evaluations {
			t.Fatalf("query reported %d OD evals, tracker %d", res.ODEvaluations, c.Evaluations)
		}
		expanded := core.ExpandMinimal(res.Minimal, ds.Dim())
		if len(expanded) != len(res.Outlying) {
			t.Fatal("minimal set does not generate the outlying set")
		}
	}
}
