package od

import (
	"math/rand"
	"testing"

	"repro/internal/knn"
	"repro/internal/subspace"
	"repro/internal/vector"
)

// randomRows draws n standard-normal rows of dimension d.
func randomRows(seed int64, n, d int) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = make([]float64, d)
		for j := range rows[i] {
			rows[i][j] = rng.NormFloat64()
		}
	}
	return rows
}

// fuzzDim and the fixed dataset keep every fuzz execution cheap; the
// fuzzer's freedom is in the subspace pair and the query point.
const fuzzDim = 8

func fuzzEvaluator(t testing.TB) *Evaluator {
	t.Helper()
	ds, err := vector.FromRows(randomRows(42, 120, fuzzDim))
	if err != nil {
		t.Fatal(err)
	}
	ls, err := knn.NewLinear(ds, vector.L2)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEvaluator(ds, ls, vector.L2, 5, NormNone)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// FuzzODMonotonicity fuzzes the paper's Theorem 1 — the property the
// whole pruning lattice rests on: for any point p and subspaces
// s1 ⊆ s2, OD(p, s1) ≤ OD(p, s2) under un-normalized L2. The fuzzer
// picks two arbitrary masks (intersection/union give the ⊆ pair) and
// a query point, either a dataset row or a synthesised external one.
func FuzzODMonotonicity(f *testing.F) {
	f.Add(uint32(0b0011), uint32(0b0110), int64(1), true)
	f.Add(uint32(0b1), uint32(0xff), int64(7), false)
	f.Add(uint32(0b10100), uint32(0b00111), int64(99), true)
	e := fuzzEvaluator(f)
	full := subspace.Full(fuzzDim)
	f.Fuzz(func(t *testing.T, a, b uint32, pointSeed int64, member bool) {
		ma := subspace.Mask(a) & full
		mb := subspace.Mask(b) & full
		sub := ma & mb // ⊆ both
		sup := ma | mb // ⊇ both
		if sup.IsEmpty() {
			t.Skip("empty pair")
		}
		var point []float64
		exclude := -1
		if member {
			idx := int(uint64(pointSeed) % uint64(e.Dataset().N()))
			point = e.Dataset().Point(idx)
			exclude = idx
		} else {
			rng := rand.New(rand.NewSource(pointSeed))
			point = make([]float64, fuzzDim)
			for j := range point {
				point[j] = rng.NormFloat64() * 3
			}
		}
		odSup := e.OD(point, sup, exclude)
		for _, lower := range []subspace.Mask{sub, ma, mb} {
			if lower.IsEmpty() {
				continue
			}
			// Same 1e-9 floating-point slack as TestODMonotonicity.
			if odLow := e.OD(point, lower, exclude); odLow > odSup+1e-9 {
				t.Fatalf("monotonicity violated: OD(%v) = %v > OD(%v) = %v",
					lower, odLow, sup, odSup)
			}
		}
	})
}
