package baseline

import (
	"math/rand"
	"testing"

	"repro/internal/knn"
	"repro/internal/od"
	"repro/internal/subspace"
	"repro/internal/vector"
)

// clusterWithOutlier builds a tight cluster plus one far point at
// index n-1.
func clusterWithOutlier(t testing.TB, seed int64, n, d int) *vector.Dataset {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = make([]float64, d)
		for j := range rows[i] {
			rows[i][j] = rng.NormFloat64() * 0.3
		}
	}
	for j := range rows[n-1] {
		rows[n-1][j] = 50
	}
	ds, err := vector.FromRows(rows)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func newSearcher(t testing.TB, ds *vector.Dataset) knn.Searcher {
	t.Helper()
	ls, err := knn.NewLinear(ds, vector.L2)
	if err != nil {
		t.Fatal(err)
	}
	return ls
}

func TestNaiveSearchCountsAndFindsOutlier(t *testing.T) {
	d := 4
	ds := clusterWithOutlier(t, 1, 60, d)
	ls := newSearcher(t, ds)
	eval, err := od.NewEvaluator(ds, ls, vector.L2, 3, od.NormNone)
	if err != nil {
		t.Fatal(err)
	}
	res, err := NaiveSearch(eval, ds.Point(59), 59, 10)
	if err != nil {
		t.Fatal(err)
	}
	if res.Evaluations != subspace.TotalSubspaces(d) {
		t.Fatalf("evaluations = %d, want %d", res.Evaluations, subspace.TotalSubspaces(d))
	}
	// The planted global outlier deviates in every dim, so every
	// subspace is outlying at this threshold.
	if int64(len(res.Outlying)) != subspace.TotalSubspaces(d) {
		t.Fatalf("outlying = %d subspaces", len(res.Outlying))
	}
	// Inlier query: no subspace should fire.
	res2, _ := NaiveSearch(eval, ds.Point(0), 0, 10)
	if len(res2.Outlying) != 0 {
		t.Fatalf("inlier outlying in %d subspaces", len(res2.Outlying))
	}
	if _, err := NaiveSearch(nil, ds.Point(0), 0, 1); err == nil {
		t.Fatal("nil evaluator accepted")
	}
}

func TestTopNKNNOutliers(t *testing.T) {
	ds := clusterWithOutlier(t, 2, 50, 3)
	ls := newSearcher(t, ds)
	top, err := TopNKNNOutliers(ds, ls, subspace.Full(3), 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(top) != 3 {
		t.Fatalf("len = %d", len(top))
	}
	if top[0].Index != 49 {
		t.Fatalf("top outlier = %d, want 49", top[0].Index)
	}
	if top[0].Score <= top[1].Score {
		t.Fatal("scores not descending")
	}
}

func TestDetectorValidation(t *testing.T) {
	ds := clusterWithOutlier(t, 4, 20, 2)
	ls := newSearcher(t, ds)
	if _, err := TopNKNNOutliers(nil, ls, subspace.Full(2), 2, 1); err == nil {
		t.Fatal("nil ds accepted")
	}
	if _, err := TopNKNNOutliers(ds, nil, subspace.Full(2), 2, 1); err == nil {
		t.Fatal("nil searcher accepted")
	}
	if _, err := TopNKNNOutliers(ds, ls, subspace.Empty, 2, 1); err == nil {
		t.Fatal("empty subspace accepted")
	}
	if _, err := TopNKNNOutliers(ds, ls, subspace.Full(2), 0, 1); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := TopNKNNOutliers(ds, ls, subspace.Full(2), 2, 0); err == nil {
		t.Fatal("n=0 accepted")
	}
}
