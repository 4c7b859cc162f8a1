package xtree

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/datagen"
	"repro/internal/knn"
	"repro/internal/subspace"
	"repro/internal/vector"
)

// randomDataset builds n points in d dims: a mix of Gaussian clusters
// (which exercise splits) and uniform noise.
func randomDataset(t testing.TB, seed int64, n, d int) *vector.Dataset {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	rows := make([][]float64, n)
	centers := [][]float64{}
	for c := 0; c < 4; c++ {
		ctr := make([]float64, d)
		for j := range ctr {
			ctr[j] = rng.Float64() * 10
		}
		centers = append(centers, ctr)
	}
	for i := range rows {
		rows[i] = make([]float64, d)
		if rng.Float64() < 0.8 {
			ctr := centers[rng.Intn(len(centers))]
			for j := range rows[i] {
				rows[i][j] = ctr[j] + rng.NormFloat64()*0.5
			}
		} else {
			for j := range rows[i] {
				rows[i][j] = rng.Float64() * 10
			}
		}
	}
	ds, err := vector.FromRows(rows)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestBuildValidation(t *testing.T) {
	if _, err := Build(nil, vector.L2, DefaultConfig()); err == nil {
		t.Fatal("nil dataset accepted")
	}
	ds := randomDataset(t, 1, 10, 2)
	if _, err := Build(ds, vector.Metric(99), DefaultConfig()); err == nil {
		t.Fatal("bad metric accepted")
	}
	if _, err := Build(ds, vector.L2, Config{MaxEntries: 2}); err == nil {
		t.Fatal("tiny capacity accepted")
	}
	if _, err := Build(ds, vector.L2, Config{MinFillFraction: 0.9}); err == nil {
		t.Fatal("over-half fill accepted")
	}
	if _, err := Build(ds, vector.L2, Config{MaxOverlapFraction: 2}); err == nil {
		t.Fatal("overlap > 1 accepted")
	}
}

func TestBuildSmallAndEmpty(t *testing.T) {
	ds, _ := vector.FromRows([][]float64{{1, 2}})
	tr, err := Build(ds, vector.L2, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if tr.Size() != 1 || height(tr) != 1 {
		t.Fatalf("size=%d height=%d", tr.Size(), height(tr))
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBuildInvariantsAcrossShapes(t *testing.T) {
	for _, tc := range []struct{ n, d int }{
		{10, 2}, {100, 2}, {300, 4}, {500, 8}, {1000, 12}, {64, 16},
	} {
		ds := randomDataset(t, int64(tc.n+tc.d), tc.n, tc.d)
		tr, err := Build(ds, vector.L2, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		if tr.Size() != tc.n {
			t.Fatalf("n=%d d=%d: size = %d", tc.n, tc.d, tr.Size())
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("n=%d d=%d: %v", tc.n, tc.d, err)
		}
		if tc.n > 100 && height(tr) < 2 {
			t.Fatalf("n=%d: tree did not grow (height %d)", tc.n, height(tr))
		}
	}
}

func TestDuplicatePointsSupported(t *testing.T) {
	rows := make([][]float64, 200)
	for i := range rows {
		rows[i] = []float64{1, 2, 3} // all identical
	}
	ds, _ := vector.FromRows(rows)
	tr, err := Build(ds, vector.L2, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if tr.Size() != 200 {
		t.Fatalf("size = %d", tr.Size())
	}
	s := NewSearcher(tr)
	nbs := s.KNN([]float64{1, 2, 3}, subspace.Full(3), 5, -1)
	if len(nbs) != 5 {
		t.Fatalf("got %d neighbours", len(nbs))
	}
	for _, nb := range nbs {
		if nb.Dist != 0 {
			t.Fatalf("distance to duplicate = %v", nb.Dist)
		}
	}
}

// TestBuildHugeCoordinates: once box volumes overflow float64, every
// candidate child, axis and split scores +Inf or NaN and none wins the
// comparison; construction must still settle each choice and build a
// valid tree whose k-NN answers match the linear scan.
func TestBuildHugeCoordinates(t *testing.T) {
	uniform := func(n, d int, scale float64, seed int64) [][]float64 {
		rng := rand.New(rand.NewSource(seed))
		rows := make([][]float64, n)
		for i := range rows {
			rows[i] = make([]float64, d)
			for j := range rows[i] {
				rows[i][j] = (rng.Float64()*2 - 1) * scale
			}
		}
		return rows
	}
	synthetic, _, err := datagen.GenerateSynthetic(datagen.SyntheticConfig{N: 3000, D: 8, NumOutliers: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		base [][]float64 // built first
		more [][]float64 // then appended, when set
	}{
		{"build_d8_1e100", uniform(300, 8, 1e100, 1), nil},
		{"build_d3_1e160", uniform(300, 3, 1e160, 2), nil},
		{"build_d1_1e308", uniform(300, 1, 1e308, 3), nil},
		{"append_d8_1e40", synthetic.Rows(), uniform(64, 8, 1e40, 4)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			all := append(append([][]float64(nil), tc.base...), tc.more...)
			d := len(all[0])
			for _, metric := range []vector.Metric{vector.L2, vector.L1, vector.LInf} {
				tr, err := Build(datasetOf(t, tc.base, d), metric, DefaultConfig())
				if err != nil {
					t.Fatal(err)
				}
				if tc.more != nil {
					if tr, err = tr.Append(datasetOf(t, all, d)); err != nil {
						t.Fatal(err)
					}
				}
				if err := tr.Validate(); err != nil {
					t.Fatal(err)
				}
				if tr.Size() != len(all) {
					t.Fatalf("size %d, want %d", tr.Size(), len(all))
				}
				ds := tr.ds
				xs := NewSearcher(tr)
				ls, err := knn.NewLinear(ds, metric)
				if err != nil {
					t.Fatal(err)
				}
				rng := rand.New(rand.NewSource(5))
				for trial := 0; trial < 40; trial++ {
					s := subspace.Mask(rng.Uint32()) & subspace.Full(d)
					if s.IsEmpty() {
						s = subspace.Full(d)
					}
					k := 1 + rng.Intn(6)
					qi := len(all) - 1 - rng.Intn(min(64, len(all)))
					got := xs.KNN(ds.Point(qi), s, k, qi)
					want := ls.KNN(ds.Point(qi), s, k, qi)
					if !knnEqual(got, want) {
						t.Fatalf("%v s=%v k=%d q=%d:\n got %+v\nwant %+v", metric, s, k, qi, got, want)
					}
				}
			}
		})
	}
}

func TestHighDimBuildsSupernodes(t *testing.T) {
	// Uniform high-dim data is the X-tree's supernode-inducing case;
	// we only require validity, and record that the mechanism engages
	// for at least one of the tested shapes.
	engaged := false
	for _, d := range []int{12, 16, 20} {
		rng := rand.New(rand.NewSource(int64(d)))
		rows := make([][]float64, 400)
		for i := range rows {
			rows[i] = make([]float64, d)
			for j := range rows[i] {
				rows[i][j] = rng.Float64()
			}
		}
		ds, _ := vector.FromRows(rows)
		tr, err := Build(ds, vector.L2, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("d=%d: %v", d, err)
		}
		if tr.SupernodeCount() > 0 {
			engaged = true
		}
	}
	_ = engaged // supernodes are workload-dependent; validity is the hard requirement
}

func knnEqual(a, b []knn.Neighbor) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Index != b[i].Index || math.Abs(a[i].Dist-b[i].Dist) > 1e-9 {
			return false
		}
	}
	return true
}

// TestKNNMatchesLinear is the central correctness test: X-tree k-NN
// must agree exactly with the linear-scan oracle on random data, for
// random subspaces, all metrics, with and without self-exclusion.
func TestKNNMatchesLinear(t *testing.T) {
	for _, metric := range []vector.Metric{vector.L2, vector.L1, vector.LInf} {
		for _, shape := range []struct{ n, d int }{{50, 3}, {300, 6}, {500, 10}} {
			ds := randomDataset(t, int64(shape.n)*7+int64(metric), shape.n, shape.d)
			tr, err := Build(ds, metric, DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			xs := NewSearcher(tr)
			ls, _ := knn.NewLinear(ds, metric)
			rng := rand.New(rand.NewSource(99))
			for trial := 0; trial < 30; trial++ {
				s := subspace.Mask(rng.Uint32()) & subspace.Full(shape.d)
				if s.IsEmpty() {
					s = subspace.Full(shape.d)
				}
				k := 1 + rng.Intn(10)
				qi := rng.Intn(shape.n)
				exclude := -1
				if trial%2 == 0 {
					exclude = qi
				}
				got := xs.KNN(ds.Point(qi), s, k, exclude)
				want := ls.KNN(ds.Point(qi), s, k, exclude)
				if !knnEqual(got, want) {
					t.Fatalf("metric=%v shape=%+v s=%v k=%d exclude=%d:\n got %+v\nwant %+v",
						metric, shape, s, k, exclude, got, want)
				}
			}
		}
	}
}

func TestKNNExternalQueryPoint(t *testing.T) {
	ds := randomDataset(t, 5, 200, 4)
	tr, _ := Build(ds, vector.L2, DefaultConfig())
	xs := NewSearcher(tr)
	ls, _ := knn.NewLinear(ds, vector.L2)
	q := []float64{100, -50, 3, 0} // far outside the data
	got := xs.KNN(q, subspace.Full(4), 3, -1)
	want := ls.KNN(q, subspace.Full(4), 3, -1)
	if !knnEqual(got, want) {
		t.Fatalf("got %+v want %+v", got, want)
	}
}

func TestKNNDegenerate(t *testing.T) {
	ds := randomDataset(t, 5, 50, 3)
	tr, _ := Build(ds, vector.L2, DefaultConfig())
	xs := NewSearcher(tr)
	if xs.KNN(ds.Point(0), subspace.Full(3), 0, -1) != nil {
		t.Fatal("k=0 should return nil")
	}
	if xs.KNN(ds.Point(0), subspace.Empty, 3, -1) != nil {
		t.Fatal("empty subspace should return nil")
	}
	// k larger than dataset
	nbs := xs.KNN(ds.Point(0), subspace.Full(3), 500, 0)
	if len(nbs) != 49 {
		t.Fatalf("len = %d, want 49", len(nbs))
	}
}

func TestKNNPrunesWork(t *testing.T) {
	// On clustered data the X-tree should examine fewer points than a
	// full scan for small k.
	ds := randomDataset(t, 42, 2000, 4)
	tr, _ := Build(ds, vector.L2, DefaultConfig())
	xs := NewSearcher(tr)
	xs.ResetStats()
	const queries = 20
	for i := 0; i < queries; i++ {
		xs.KNN(ds.Point(i), subspace.Full(4), 5, i)
	}
	st := xs.Stats()
	if st.Queries != queries {
		t.Fatalf("queries = %d", st.Queries)
	}
	scanned := float64(st.PointsExamined) / queries
	if scanned >= 2000 {
		t.Fatalf("X-tree examined %.0f points per query on average; no pruning at all", scanned)
	}
	t.Logf("avg points examined per query: %.0f / 2000", scanned)
}

func TestNodeCountAndStats(t *testing.T) {
	ds := randomDataset(t, 13, 800, 4)
	tr, _ := Build(ds, vector.L2, DefaultConfig())
	if tr.NodeCount() < 2 {
		t.Fatalf("node count = %d", tr.NodeCount())
	}
	xs := NewSearcher(tr)
	xs.KNN(ds.Point(0), subspace.Full(4), 3, 0)
	if xs.Stats().NodesVisited == 0 {
		t.Fatal("no nodes visited?")
	}
	xs.ResetStats()
	if xs.Stats() != (knn.SearchStats{}) {
		t.Fatal("reset failed")
	}
}

func TestSearcherImplementsInterface(t *testing.T) {
	var _ knn.Searcher = (*Searcher)(nil)
	var _ knn.Searcher = (*knn.LinearSearcher)(nil)
}
