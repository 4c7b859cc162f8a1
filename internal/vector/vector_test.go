package vector

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/subspace"
)

func mustDataset(t *testing.T, rows [][]float64) *Dataset {
	t.Helper()
	ds, err := FromRows(rows)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestNewDatasetValidation(t *testing.T) {
	if _, err := NewDataset(make([]float64, 6), 2, 3); err != nil {
		t.Fatalf("valid shape rejected: %v", err)
	}
	if _, err := NewDataset(make([]float64, 5), 2, 3); err == nil {
		t.Fatal("mismatched length accepted")
	}
	if _, err := NewDataset(nil, 0, 0); err == nil {
		t.Fatal("d=0 accepted")
	}
	if _, err := NewDataset(make([]float64, subspace.MaxDim+1), 1, subspace.MaxDim+1); err == nil {
		t.Fatal("over-MaxDim accepted")
	}
}

func TestFromRowsAndPoint(t *testing.T) {
	ds := mustDataset(t, [][]float64{{1, 2}, {3, 4}, {5, 6}})
	if ds.N() != 3 || ds.Dim() != 2 {
		t.Fatalf("shape = (%d,%d)", ds.N(), ds.Dim())
	}
	p := ds.Point(1)
	if p[0] != 3 || p[1] != 4 {
		t.Fatalf("Point(1) = %v", p)
	}
	rows := ds.Rows()
	rows[0][0] = 99 // must be a copy
	if ds.Point(0)[0] == 99 {
		t.Fatal("Rows leaked internal storage")
	}
}

func TestFromRowsRagged(t *testing.T) {
	if _, err := FromRows([][]float64{{1, 2}, {3}}); err == nil {
		t.Fatal("ragged rows accepted")
	}
	if _, err := FromRows(nil); err == nil {
		t.Fatal("empty accepted")
	}
}

func TestColumns(t *testing.T) {
	ds := mustDataset(t, [][]float64{{1, 2}})
	if got := ds.ColumnName(1); got != "dim1" {
		t.Fatalf("default name = %q", got)
	}
	if err := ds.SetColumns([]string{"speed", "power"}); err != nil {
		t.Fatal(err)
	}
	if got := ds.ColumnName(1); got != "power" {
		t.Fatalf("named = %q", got)
	}
	if err := ds.SetColumns([]string{"only-one"}); err == nil {
		t.Fatal("wrong arity accepted")
	}
}

func TestAppend(t *testing.T) {
	ds := mustDataset(t, [][]float64{{1, 2}})
	ds2, err := ds.Append([]float64{3, 4}, []float64{5, 6})
	if err != nil {
		t.Fatal(err)
	}
	if ds2.N() != 3 || ds.N() != 1 {
		t.Fatalf("append: got %d, original %d", ds2.N(), ds.N())
	}
	if _, err := ds.Append([]float64{1}); err == nil {
		t.Fatal("wrong width accepted")
	}
}

func TestDistKnownValues(t *testing.T) {
	a := []float64{0, 0, 0}
	b := []float64{3, 4, 10}
	s01 := subspace.New(0, 1)
	if got := Dist(L2, s01, a, b); math.Abs(got-5) > 1e-12 {
		t.Fatalf("L2 = %v, want 5", got)
	}
	if got := Dist(L1, s01, a, b); math.Abs(got-7) > 1e-12 {
		t.Fatalf("L1 = %v, want 7", got)
	}
	if got := Dist(LInf, s01, a, b); math.Abs(got-4) > 1e-12 {
		t.Fatalf("LInf = %v, want 4", got)
	}
	// Single-dimension projections agree across metrics.
	for _, m := range []Metric{L2, L1, LInf} {
		if got := Dist(m, subspace.New(2), a, b); math.Abs(got-10) > 1e-12 {
			t.Fatalf("%v single-dim = %v, want 10", m, got)
		}
	}
}

func TestSqDistL2ConsistentWithDist(t *testing.T) {
	f := func(a0, a1, a2, b0, b1, b2 float64) bool {
		if anyNonFinite(a0, a1, a2, b0, b1, b2) {
			return true
		}
		a := []float64{clamp(a0), clamp(a1), clamp(a2)}
		b := []float64{clamp(b0), clamp(b1), clamp(b2)}
		s := subspace.New(0, 2)
		d := Dist(L2, s, a, b)
		sq := SqDistL2(s, a, b)
		return math.Abs(d*d-sq) <= 1e-9*(1+sq)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestDistMonotoneInSubspace is the property HOS-Miner's pruning rests
// on (§2): for fixed points, distance can only grow as dimensions are
// added, for every supported metric.
func TestDistMonotoneInSubspace(t *testing.T) {
	f := func(a0, a1, a2, a3, b0, b1, b2, b3 float64, rawS, rawT uint8) bool {
		if anyNonFinite(a0, a1, a2, a3, b0, b1, b2, b3) {
			return true
		}
		a := []float64{clamp(a0), clamp(a1), clamp(a2), clamp(a3)}
		b := []float64{clamp(b0), clamp(b1), clamp(b2), clamp(b3)}
		sub := subspace.Mask(rawS) & subspace.Full(4)
		sup := sub | (subspace.Mask(rawT) & subspace.Full(4))
		if sub.IsEmpty() {
			return true
		}
		for _, m := range []Metric{L2, L1, LInf} {
			if Dist(m, sup, a, b) < Dist(m, sub, a, b)-1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestTriangleInequality(t *testing.T) {
	f := func(vals [9]float64) bool {
		pts := make([][]float64, 3)
		for i := range pts {
			pts[i] = []float64{clamp(vals[i*3]), clamp(vals[i*3+1]), clamp(vals[i*3+2])}
			for _, v := range pts[i] {
				if math.IsNaN(v) {
					return true
				}
			}
		}
		s := subspace.New(0, 1, 2)
		for _, m := range []Metric{L2, L1, LInf} {
			ab := Dist(m, s, pts[0], pts[1])
			bc := Dist(m, s, pts[1], pts[2])
			ac := Dist(m, s, pts[0], pts[2])
			if ac > ab+bc+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestMetricString(t *testing.T) {
	if L2.String() != "L2" || L1.String() != "L1" || LInf.String() != "LInf" {
		t.Fatal("metric names")
	}
	if !L2.Valid() || Metric(99).Valid() {
		t.Fatal("validity")
	}
}

func clamp(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	if v > 1e6 {
		return 1e6
	}
	if v < -1e6 {
		return -1e6
	}
	return v
}

func anyNonFinite(vs ...float64) bool {
	for _, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return true
		}
	}
	return false
}
