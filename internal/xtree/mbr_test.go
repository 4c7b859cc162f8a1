package xtree

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/subspace"
	"repro/internal/vector"
)

func TestNewMBRAndContains(t *testing.T) {
	p := []float64{1, 2, 3}
	m := NewMBR(p)
	if !m.ContainsPoint(p) {
		t.Fatal("degenerate MBR must contain its point")
	}
	if m.Area() != 0 || m.Margin() != 0 {
		t.Fatal("degenerate MBR area/margin must be 0")
	}
	if m.Dim() != 3 {
		t.Fatalf("dim = %d", m.Dim())
	}
}

func TestEmptyMBR(t *testing.T) {
	e := EmptyMBR(2)
	if !e.IsEmpty() {
		t.Fatal("EmptyMBR not empty")
	}
	e.ExtendPoint([]float64{1, 1})
	if e.IsEmpty() || !e.ContainsPoint([]float64{1, 1}) {
		t.Fatal("extend of empty MBR")
	}
}

func TestExtendAndUnion(t *testing.T) {
	a := NewMBR([]float64{0, 0})
	a.ExtendPoint([]float64{2, 3})
	if !a.ContainsPoint([]float64{1, 1.5}) {
		t.Fatal("extended MBR should contain interior point")
	}
	b := NewMBR([]float64{-1, 5})
	u := Union(a, b)
	if !u.Contains(a) || !u.Contains(b) {
		t.Fatal("union must contain both")
	}
	// Union must not mutate inputs.
	if a.ContainsPoint([]float64{-1, 5}) {
		t.Fatal("Union mutated input")
	}
}

func TestAreaMarginOverlap(t *testing.T) {
	a := MBR{Min: []float64{0, 0}, Max: []float64{2, 3}}
	if a.Area() != 6 || a.Margin() != 5 {
		t.Fatalf("area=%v margin=%v", a.Area(), a.Margin())
	}
	b := MBR{Min: []float64{1, 1}, Max: []float64{3, 2}}
	if got := Overlap(a, b); got != 1 {
		t.Fatalf("overlap = %v, want 1", got)
	}
	c := MBR{Min: []float64{5, 5}, Max: []float64{6, 6}}
	if Overlap(a, c) != 0 {
		t.Fatal("disjoint overlap must be 0")
	}
	// Touching rectangles: zero overlap.
	d := MBR{Min: []float64{2, 0}, Max: []float64{4, 3}}
	if Overlap(a, d) != 0 {
		t.Fatal("touching overlap must be 0")
	}
}

func TestEnlargement(t *testing.T) {
	a := MBR{Min: []float64{0, 0}, Max: []float64{1, 1}}
	b := MBR{Min: []float64{2, 0}, Max: []float64{3, 1}}
	// Union is [0,3]x[0,1], area 3, so enlargement is 2.
	if got := Enlargement(a, b); got != 2 {
		t.Fatalf("enlargement = %v", got)
	}
	if Enlargement(a, a) != 0 {
		t.Fatal("self enlargement must be 0")
	}
}

func TestMinDistInsideIsZero(t *testing.T) {
	r := MBR{Min: []float64{0, 0, 0}, Max: []float64{1, 1, 1}}
	q := []float64{0.5, 0.5, 0.5}
	for _, m := range []vector.Metric{vector.L2, vector.L1, vector.LInf} {
		if d := minDistDims(m, subspace.Full(3).AppendDims(nil), q, r.Min, r.Max); d != 0 {
			t.Fatalf("%v: inside mindist = %v", m, d)
		}
	}
}

func TestMinDistKnown(t *testing.T) {
	r := MBR{Min: []float64{0, 0}, Max: []float64{1, 1}}
	q := []float64{4, 5}
	if d := minDistDims(vector.L2, subspace.Full(2).AppendDims(nil), q, r.Min, r.Max); math.Abs(d-5) > 1e-12 {
		t.Fatalf("L2 mindist = %v, want 5", d)
	}
	if d := minDistDims(vector.L1, subspace.Full(2).AppendDims(nil), q, r.Min, r.Max); math.Abs(d-7) > 1e-12 {
		t.Fatalf("L1 mindist = %v, want 7", d)
	}
	if d := minDistDims(vector.LInf, subspace.Full(2).AppendDims(nil), q, r.Min, r.Max); math.Abs(d-4) > 1e-12 {
		t.Fatalf("LInf mindist = %v, want 4", d)
	}
	// Restricted to dim 0 only.
	if d := minDistDims(vector.L2, subspace.New(0).AppendDims(nil), q, r.Min, r.Max); math.Abs(d-3) > 1e-12 {
		t.Fatalf("subspace mindist = %v, want 3", d)
	}
}

// TestMinDistLowerBound (property): for any point p inside the MBR,
// minDistDims(q, MBR) ≤ Dist(q, p) in every subspace and metric. This is
// the contract the best-first search relies on.
func TestMinDistLowerBound(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := 1 + rng.Intn(6)
		lo := make([]float64, d)
		hi := make([]float64, d)
		for i := 0; i < d; i++ {
			a, b := rng.NormFloat64(), rng.NormFloat64()
			lo[i], hi[i] = math.Min(a, b), math.Max(a, b)
		}
		r := MBR{Min: lo, Max: hi}
		// p inside the box
		p := make([]float64, d)
		for i := 0; i < d; i++ {
			p[i] = lo[i] + rng.Float64()*(hi[i]-lo[i])
		}
		q := make([]float64, d)
		for i := 0; i < d; i++ {
			q[i] = rng.NormFloat64() * 3
		}
		s := subspace.Mask(rng.Uint32()) & subspace.Full(d)
		if s.IsEmpty() {
			s = subspace.Full(d)
		}
		for _, m := range []vector.Metric{vector.L2, vector.L1, vector.LInf} {
			if minDistDims(m, s.AppendDims(nil), q, r.Min, r.Max) > vector.Dist(m, s, q, p)+1e-9 {
				return false
			}
		}
		// Squared variant consistent.
		md := minDistDims(vector.L2, s.AppendDims(nil), q, r.Min, r.Max)
		if math.Abs(md*md-minDistSqL2Dims(s.AppendDims(nil), q, r.Min, r.Max)) > 1e-9*(1+md*md) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestOverlapCommutativeAndBounded(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		mk := func() MBR {
			lo := []float64{rng.NormFloat64(), rng.NormFloat64()}
			hi := []float64{lo[0] + rng.Float64(), lo[1] + rng.Float64()}
			return MBR{Min: lo, Max: hi}
		}
		a, b := mk(), mk()
		ov1, ov2 := Overlap(a, b), Overlap(b, a)
		if ov1 != ov2 {
			return false
		}
		return ov1 <= math.Min(a.Area(), b.Area())+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
