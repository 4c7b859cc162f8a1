package evolutionary

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/datagen"
	"repro/internal/subspace"
	"repro/internal/vector"
)

func uniformDS(t testing.TB, seed int64, n, d int) *vector.Dataset {
	t.Helper()
	ds, err := datagen.GenerateUniform(n, d, seed)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestNewGridValidation(t *testing.T) {
	ds := uniformDS(t, 1, 100, 3)
	if _, err := NewGrid(nil, 10); err == nil {
		t.Fatal("nil ds accepted")
	}
	if _, err := NewGrid(ds, 1); err == nil {
		t.Fatal("phi=1 accepted")
	}
	if _, err := NewGrid(ds, 256); err == nil {
		t.Fatal("phi=256 accepted")
	}
	small := uniformDS(t, 1, 5, 2)
	if _, err := NewGrid(small, 10); err == nil {
		t.Fatal("n < phi accepted")
	}
}

func TestGridEquiDepth(t *testing.T) {
	// With n divisible by phi, each 1-dim range holds exactly n/phi
	// points (distinct values almost surely under uniform draws).
	ds := uniformDS(t, 7, 500, 2)
	g, err := NewGrid(ds, 10)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < 2; j++ {
		counts := make([]int, 10)
		for i := 0; i < 500; i++ {
			counts[g.cellOf[i*2+j]]++
		}
		for r, c := range counts {
			if c < 40 || c > 60 {
				t.Fatalf("dim %d range %d holds %d points, want ≈50", j, r, c)
			}
		}
	}
}

func TestGridRangeOfValueConsistent(t *testing.T) {
	ds := uniformDS(t, 3, 200, 3)
	g, _ := NewGrid(ds, 8)
	for i := 0; i < 200; i++ {
		for j := 0; j < 3; j++ {
			if g.rangeOf(j, ds.Point(i)[j]) != g.cellOf[i*3+j] {
				t.Fatalf("point %d dim %d: value/point range mismatch", i, j)
			}
		}
	}
}

func TestGridCountMatchesPointsIn(t *testing.T) {
	ds := uniformDS(t, 5, 300, 4)
	g, _ := NewGrid(ds, 5)
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 20; trial++ {
		ind := make(Individual, 4)
		for c := 0; c < 2; c++ {
			ind[rng.Intn(4)] = uint8(1 + rng.Intn(5))
		}
		pts := g.PointsIn(ind)
		if len(pts) != g.Count(ind) {
			t.Fatalf("Count %d != len(PointsIn) %d", g.Count(ind), len(pts))
		}
		for _, p := range pts {
			if !g.ContainsPoint(ind, p) {
				t.Fatalf("PointsIn returned non-member %d", p)
			}
		}
	}
}

func TestSparsityUniformNearZero(t *testing.T) {
	// Under uniform data, 1-dim equi-depth cells hold ≈ expected
	// count, so sparsity ≈ 0.
	ds := uniformDS(t, 11, 1000, 2)
	g, _ := NewGrid(ds, 10)
	ind := Individual{3, Wildcard}
	s := g.Sparsity(ind)
	if math.Abs(s) > 1.5 {
		t.Fatalf("uniform 1-dim sparsity = %v, want ≈ 0", s)
	}
	// Wildcard-only individual is defined as 0.
	if g.Sparsity(Individual{Wildcard, Wildcard}) != 0 {
		t.Fatal("all-wildcard sparsity must be 0")
	}
}

func TestSparsityEmptyCellNegative(t *testing.T) {
	// Clustered data leaves most of the grid empty: an empty 2-dim
	// cell must have negative sparsity.
	ds, _, err := datagen.GenerateSynthetic(datagen.SyntheticConfig{N: 400, D: 3, Clusters: 2, NumOutliers: 0, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	g, _ := NewGrid(ds, 10)
	// find an empty cell
	found := false
	for a := uint8(1); a <= 10 && !found; a++ {
		for b := uint8(1); b <= 10 && !found; b++ {
			ind := Individual{a, b, Wildcard}
			if g.Count(ind) == 0 {
				if s := g.Sparsity(ind); s >= 0 {
					t.Fatalf("empty cell sparsity = %v", s)
				}
				found = true
			}
		}
	}
	if !found {
		t.Skip("no empty 2-dim cell in this draw")
	}
}

func TestIndividualHelpers(t *testing.T) {
	ind := Individual{Wildcard, 3, Wildcard, 7}
	if ind.Constrained() != 2 {
		t.Fatalf("constrained = %d", ind.Constrained())
	}
	if ind.Mask() != subspace.New(1, 3) {
		t.Fatalf("mask = %v", ind.Mask())
	}
	c := ind.Clone()
	c[1] = 9
	if ind[1] != 3 {
		t.Fatal("clone aliases")
	}
}

func TestNewSearcherValidation(t *testing.T) {
	ds := uniformDS(t, 1, 100, 4)
	g, _ := NewGrid(ds, 10)
	if _, err := NewSearcher(nil, Config{}); err == nil {
		t.Fatal("nil grid accepted")
	}
	if _, err := NewSearcher(g, Config{Phi: 5}); err == nil {
		t.Fatal("phi mismatch accepted")
	}
	if _, err := NewSearcher(g, Config{Phi: 10, Population: 2}); err == nil {
		t.Fatal("tiny population accepted")
	}
	if _, err := NewSearcher(g, Config{Phi: 10, MutationRate: 1.5}); err == nil {
		t.Fatal("mutation > 1 accepted")
	}
	if _, err := NewSearcher(g, Config{Phi: 10}); err != nil {
		t.Fatalf("default config rejected: %v", err)
	}
}

func TestSearchFindsSparseCellsWithPlantedOutlier(t *testing.T) {
	// Planted outliers sit in grid cells of their own; the GA should
	// surface cells that contain them.
	ds, truth, err := datagen.GenerateSynthetic(datagen.SyntheticConfig{
		N: 300, D: 5, NumOutliers: 3, OutlierSubspaceDim: 2, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGrid(ds, 8)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSearcher(g, Config{Phi: 8, TargetDim: 2, Population: 40, Generations: 60, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	res := s.Search()
	if len(res.Cells) == 0 || res.Evaluations == 0 {
		t.Fatalf("empty result: %+v", res)
	}
	// Cells sorted ascending by sparsity.
	for i := 1; i < len(res.Cells); i++ {
		if res.Cells[i-1].Sparsity > res.Cells[i].Sparsity {
			t.Fatal("cells not sorted by sparsity")
		}
	}
	// The sparsest cells must be genuinely sparse.
	if res.Cells[0].Sparsity >= 0 {
		t.Fatalf("best sparsity = %v, want < 0", res.Cells[0].Sparsity)
	}
	// At least one planted outlier should lie in a sparse cell, the
	// path experiment T2 scores (the GA is heuristic; full recall is
	// not guaranteed, but on this easy instance complete misses
	// indicate breakage).
	found := false
	for _, o := range truth.Outliers {
		if len(res.OutlyingSubspacesOf(g, o.Index)) > 0 {
			found = true
		}
	}
	if !found {
		t.Fatalf("no planted outlier in a sparse cell among %d cells", len(res.Cells))
	}
}

func TestSearchDeterminism(t *testing.T) {
	ds := uniformDS(t, 17, 200, 4)
	g, _ := NewGrid(ds, 6)
	run := func() []Cell {
		s, err := NewSearcher(g, Config{Phi: 6, TargetDim: 2, Population: 20, Generations: 20, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		return s.Search().Cells
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Sparsity != b[i].Sparsity || a[i].Individual.key() != b[i].Individual.key() {
			t.Fatalf("cell %d differs", i)
		}
	}
}

func TestSearchRespectsTargetDim(t *testing.T) {
	ds := uniformDS(t, 19, 150, 6)
	g, _ := NewGrid(ds, 5)
	s, _ := NewSearcher(g, Config{Phi: 5, TargetDim: 3, Population: 16, Generations: 15, Seed: 3})
	res := s.Search()
	for _, c := range res.Cells {
		if c.Individual.Constrained() != 3 {
			t.Fatalf("cell with %d constrained dims, want 3", c.Individual.Constrained())
		}
	}
}

func TestOutlyingSubspacesOfAdapter(t *testing.T) {
	ds, truth, _ := datagen.GenerateSynthetic(datagen.SyntheticConfig{
		N: 300, D: 4, NumOutliers: 1, OutlierSubspaceDim: 2, Seed: 23,
	})
	g, _ := NewGrid(ds, 8)
	s, _ := NewSearcher(g, Config{Phi: 8, TargetDim: 2, Population: 40, Generations: 60, Seed: 5})
	res := s.Search()
	subs := res.OutlyingSubspacesOf(g, truth.Outliers[0].Index)
	for i := 1; i < len(subs); i++ {
		prev, cur := subs[i-1], subs[i]
		if prev.Card() > cur.Card() || (prev.Card() == cur.Card() && prev >= cur) {
			t.Fatal("adapter output not canonically sorted")
		}
	}
	// Subspaces must all have the GA's target cardinality.
	for _, m := range subs {
		if m.Card() != 2 {
			t.Fatalf("subspace %v has card %d", m, m.Card())
		}
	}
}
