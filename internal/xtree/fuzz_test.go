package xtree

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/knn"
	"repro/internal/subspace"
	"repro/internal/vector"
)

// TestBuildConfigFuzz (property): for random shapes, capacities, fill
// fractions and overlap thresholds, the built tree always validates
// and its k-NN answers always match the linear oracle. This is the
// broad-spectrum safety net over the split machinery.
func TestBuildConfigFuzz(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 30 + rng.Intn(400)
		d := 1 + rng.Intn(10)
		cfg := Config{
			MaxEntries:         4 + rng.Intn(36),
			MinFillFraction:    0.1 + rng.Float64()*0.4,
			MaxOverlapFraction: 0.05 + rng.Float64()*0.95,
		}
		metric := []vector.Metric{vector.L2, vector.L1, vector.LInf}[rng.Intn(3)]

		rows := make([][]float64, n)
		for i := range rows {
			rows[i] = make([]float64, d)
			for j := range rows[i] {
				switch rng.Intn(3) {
				case 0:
					rows[i][j] = rng.NormFloat64()
				case 1:
					rows[i][j] = math.Floor(rng.Float64() * 4) // heavy ties
				default:
					rows[i][j] = rng.Float64() * 100
				}
			}
		}
		ds, err := vector.FromRows(rows)
		if err != nil {
			return false
		}
		tree, err := Build(ds, metric, cfg)
		if err != nil {
			return false
		}
		if err := tree.Validate(); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		xs := NewSearcher(tree)
		ls, err := knn.NewLinear(ds, metric)
		if err != nil {
			return false
		}
		for trial := 0; trial < 5; trial++ {
			s := subspace.Mask(rng.Uint32()) & subspace.Full(d)
			if s.IsEmpty() {
				s = subspace.Full(d)
			}
			k := 1 + rng.Intn(7)
			qi := rng.Intn(n)
			got := xs.KNN(ds.Point(qi), s, k, qi)
			want := ls.KNN(ds.Point(qi), s, k, qi)
			if len(got) != len(want) {
				return false
			}
			for i := range got {
				if got[i].Index != want[i].Index || math.Abs(got[i].Dist-want[i].Dist) > 1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestIncrementalValidity: the tree stays valid after every single
// insert on an adversarial (sorted) insertion order, which stresses
// unbalanced splits.
func TestIncrementalValidity(t *testing.T) {
	n, d := 300, 6
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = make([]float64, d)
		for j := range rows[i] {
			rows[i][j] = float64(i) + float64(j)*0.1 // monotone: worst case for splits
		}
	}
	ds, err := vector.FromRows(rows)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := Build(ds, vector.L2, Config{MaxEntries: 6})
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}
	if height(tree) < 3 {
		t.Fatalf("sorted insert should deepen the tree, height = %d", height(tree))
	}
}
