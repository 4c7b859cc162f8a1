package xtree

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/subspace"
	"repro/internal/vector"
)

// boxIs fails the test unless r spans exactly [lo, hi].
func boxIs(t *testing.T, what string, r MBR, lo, hi []float64) {
	t.Helper()
	if !slices.Equal(r.Min, lo) || !slices.Equal(r.Max, hi) {
		t.Fatalf("%s = [%v, %v], want [%v, %v]", what, r.Min, r.Max, lo, hi)
	}
}

// TestNewMBRAndContains: the box a leaf starts with when its first
// point arrives is degenerate at that point. (Validate checks that
// every node's box is the tight bound of its entries, so every built
// tree's boxes contain their points.)
func TestNewMBRAndContains(t *testing.T) {
	p := []float64{1, 2, 3}
	ds, err := vector.FromRows([][]float64{p})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := Build(ds, vector.L2, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	m := tr.ar.nodeMBR(0)
	boxIs(t, "first box", m, p, p)
	if m.Area() != 0 || boxMargin(m.Min, m.Max) != 0 {
		t.Fatal("degenerate MBR area/margin must be 0")
	}
}

func TestEmptyMBR(t *testing.T) {
	e := EmptyMBR(2)
	if !e.IsEmpty() {
		t.Fatal("EmptyMBR not empty")
	}
	e.ExtendPoint([]float64{1, 1})
	if e.IsEmpty() {
		t.Fatal("extended EmptyMBR still empty")
	}
	boxIs(t, "extended EmptyMBR", e, []float64{1, 1}, []float64{1, 1})
}

func TestExtendAndUnion(t *testing.T) {
	a := EmptyMBR(2)
	a.ExtendPoint([]float64{0, 0})
	a.ExtendPoint([]float64{2, 3})
	boxIs(t, "extended box", a, []float64{0, 0}, []float64{2, 3})
	b := MBR{Min: []float64{-1, 5}, Max: []float64{-1, 5}}
	u := EmptyMBR(2)
	u.Extend(a)
	u.Extend(b)
	boxIs(t, "union", u, []float64{-1, 0}, []float64{2, 5})
	// Extend must not touch its argument.
	boxIs(t, "a after Extend", a, []float64{0, 0}, []float64{2, 3})
	boxIs(t, "b after Extend", b, []float64{-1, 5}, []float64{-1, 5})
}

// overlap is boxOverlap over two MBRs.
func overlap(a, b MBR) float64 { return boxOverlap(a.Min, a.Max, b.Min, b.Max) }

func TestAreaMarginOverlap(t *testing.T) {
	a := MBR{Min: []float64{0, 0}, Max: []float64{2, 3}}
	if a.Area() != 6 || boxMargin(a.Min, a.Max) != 5 {
		t.Fatalf("area=%v margin=%v", a.Area(), boxMargin(a.Min, a.Max))
	}
	b := MBR{Min: []float64{1, 1}, Max: []float64{3, 2}}
	if got := overlap(a, b); got != 1 {
		t.Fatalf("overlap = %v, want 1", got)
	}
	c := MBR{Min: []float64{5, 5}, Max: []float64{6, 6}}
	if overlap(a, c) != 0 {
		t.Fatal("disjoint overlap must be 0")
	}
	// Touching rectangles: zero overlap.
	d := MBR{Min: []float64{2, 0}, Max: []float64{4, 3}}
	if overlap(a, d) != 0 {
		t.Fatal("touching overlap must be 0")
	}
}

// TestEnlargement: with no overlap at stake, a new point joins the
// leaf whose box it enlarges least. Two leaves bound the clusters near
// (0,0) and (10,10); a point at (3, 0.5) grows the first by area 2 and
// the second by area 83, one at (8, 9) the reverse.
func TestEnlargement(t *testing.T) {
	rows := [][]float64{{0, 0}, {1, 1}, {0, 1}, {10, 10}, {11, 11}, {3, 0.5}, {8, 9}}
	base, err := Build(datasetOf(t, rows[:5], 2), vector.L2, Config{MaxEntries: 4})
	if err != nil {
		t.Fatal(err)
	}
	if base.NodeCount() != 3 {
		t.Fatalf("base tree has %d nodes, want a root over two leaves", base.NodeCount())
	}
	tr, err := base.Append(datasetOf(t, rows, 2))
	if err != nil {
		t.Fatal(err)
	}
	leafOf := func(row int32) int32 {
		for id := range tr.ar.nodes {
			if tr.ar.nodes[id].isLeaf() && slices.Contains(tr.ar.rows(int32(id)), row) {
				return int32(id)
			}
		}
		t.Fatalf("row %d is in no leaf", row)
		return -1
	}
	if leafOf(5) != leafOf(0) || leafOf(6) != leafOf(3) || leafOf(0) == leafOf(3) {
		t.Fatalf("points joined the wrong leaves: rows 0,3,5,6 in leaves %d,%d,%d,%d",
			leafOf(0), leafOf(3), leafOf(5), leafOf(6))
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
		ov1, ov2 := overlap(a, b), overlap(b, a)
		if ov1 != ov2 {
			return false
		}
		return ov1 <= math.Min(a.Area(), b.Area())+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
