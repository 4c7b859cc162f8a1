package subspace

import (
	"math/bits"
	"testing"
	"testing/quick"
)

func TestNewAndDims(t *testing.T) {
	m := New(0, 2, 5)
	if got := m.Card(); got != 3 {
		t.Fatalf("Card() = %d, want 3", got)
	}
	want := []int{0, 2, 5}
	got := m.Dims()
	if len(got) != len(want) {
		t.Fatalf("Dims() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Dims() = %v, want %v", got, want)
		}
	}
}

func TestNewDuplicatesTolerated(t *testing.T) {
	if New(1, 1, 1) != New(1) {
		t.Fatal("duplicate dims should collapse")
	}
}

func TestNewPanicsOutOfRange(t *testing.T) {
	for _, dim := range []int{-1, MaxDim, MaxDim + 5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d) did not panic", dim)
				}
			}()
			New(dim)
		}()
	}
}

func TestFull(t *testing.T) {
	for d := 0; d <= MaxDim; d++ {
		f := Full(d)
		if f.Card() != d {
			t.Fatalf("Full(%d).Card() = %d", d, f.Card())
		}
	}
	if Full(4) != Mask(0b1111) {
		t.Fatalf("Full(4) = %b", Full(4))
	}
}

func TestContains(t *testing.T) {
	m := New(1, 3)
	if !m.Contains(1) || !m.Contains(3) {
		t.Fatal("missing expected dims")
	}
	if m.Contains(0) || m.Contains(2) || m.Contains(4) {
		t.Fatal("contains unexpected dims")
	}
}

func TestSubsetSuperset(t *testing.T) {
	a := New(1, 3)
	b := New(1, 2, 3)
	if !a.SubsetOf(b) || a == b {
		t.Fatal("a should be proper subset of b")
	}
	if !b.SupersetOf(a) || b == a {
		t.Fatal("b should be proper superset of a")
	}
	if !a.SubsetOf(a) || !a.SupersetOf(a) {
		t.Fatal("reflexivity: a ⊆ a and a ⊇ a")
	}
	c := New(0, 4)
	if a.SubsetOf(c) || c.SubsetOf(a) {
		t.Fatal("disjoint masks must not be subsets")
	}
}

func TestSetOperations(t *testing.T) {
	a, b := New(0, 1), New(1, 2)
	if a.Union(b) != New(0, 1, 2) {
		t.Fatal("union")
	}
	if a.Intersect(b) != New(1) {
		t.Fatal("intersect")
	}
	if a.Without(b) != New(0) {
		t.Fatal("without")
	}
	if a.With(5) != New(0, 1, 5) {
		t.Fatal("with")
	}
	if a.Drop(0) != New(1) {
		t.Fatal("drop")
	}
	if a.Drop(9) != a {
		t.Fatal("drop of absent dim must be identity")
	}
}

func TestStringAndParse(t *testing.T) {
	cases := []struct {
		m Mask
		s string
	}{
		{Empty, "[]"},
		{New(0), "[0]"},
		{New(0, 2), "[0,2]"},
		{New(1, 3, 7), "[1,3,7]"},
	}
	for _, c := range cases {
		if got := c.m.String(); got != c.s {
			t.Errorf("String(%v) = %q, want %q", uint32(c.m), got, c.s)
		}
		back, err := Parse(c.s)
		if err != nil {
			t.Fatalf("Parse(%q): %v", c.s, err)
		}
		if back != c.m {
			t.Errorf("Parse(%q) = %v, want %v", c.s, back, c.m)
		}
	}
}

func TestParseErrors(t *testing.T) {
	for _, s := range []string{"[x]", "[1,]", "[99]", "[-1]"} {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) should fail", s)
		}
	}
	if m, err := Parse("  [1, 3] "); err != nil || m != New(1, 3) {
		t.Errorf("Parse with spaces = %v, %v", m, err)
	}
}

func TestEachDimMatchesDims(t *testing.T) {
	f := func(raw uint32) bool {
		m := Mask(raw) & Full(MaxDim)
		var viaEach []int
		m.EachDim(func(d int) { viaEach = append(viaEach, d) })
		dims := m.Dims()
		if len(viaEach) != len(dims) {
			return false
		}
		for i := range dims {
			if dims[i] != viaEach[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropertySubsetImpliesCardinality(t *testing.T) {
	f := func(ra, rb uint32) bool {
		a := Mask(ra) & Full(MaxDim)
		b := Mask(rb) & Full(MaxDim)
		inter := a.Intersect(b)
		// Intersection is a subset of both.
		if !inter.SubsetOf(a) || !inter.SubsetOf(b) {
			return false
		}
		// Union is a superset of both.
		u := a.Union(b)
		if !u.SupersetOf(a) || !u.SupersetOf(b) {
			return false
		}
		// |a ∪ b| + |a ∩ b| == |a| + |b|.
		return u.Card()+inter.Card() == a.Card()+b.Card()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSortMasks(t *testing.T) {
	masks := []Mask{New(0, 1, 2), New(3), New(0, 2), New(1), New(0, 1, 2, 3)}
	SortMasks(masks)
	for i := 1; i < len(masks); i++ {
		ci, cj := masks[i-1].Card(), masks[i].Card()
		if ci > cj || (ci == cj && masks[i-1] >= masks[i]) {
			t.Fatalf("not sorted at %d: %v", i, masks)
		}
	}
}

func TestCardMatchesOnesCount(t *testing.T) {
	f := func(raw uint32) bool {
		m := Mask(raw)
		return m.Card() == bits.OnesCount32(raw)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
