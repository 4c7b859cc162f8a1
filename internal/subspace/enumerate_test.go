package subspace

import (
	"testing"
)

func TestAllCountAndOrder(t *testing.T) {
	for d := 1; d <= 8; d++ {
		all := All(d)
		if int64(len(all)) != TotalSubspaces(d) {
			t.Fatalf("d=%d: len(All) = %d, want %d", d, len(all), TotalSubspaces(d))
		}
		for i := 1; i < len(all); i++ {
			if all[i-1] >= all[i] {
				t.Fatalf("d=%d: not ascending at %d", d, i)
			}
		}
		for _, s := range all {
			if s.IsEmpty() || !s.SubsetOf(Full(d)) {
				t.Fatalf("d=%d: invalid subspace %v", d, s)
			}
		}
	}
}

func TestEachAllEarlyStop(t *testing.T) {
	count := 0
	EachAll(5, func(Mask) bool {
		count++
		return count < 7
	})
	if count != 7 {
		t.Fatalf("early stop visited %d, want 7", count)
	}
}

func TestOfDimCounts(t *testing.T) {
	for d := 1; d <= 10; d++ {
		total := 0
		for m := 1; m <= d; m++ {
			layer := OfDim(d, m)
			if int64(len(layer)) != Binomial(d, m) {
				t.Fatalf("d=%d m=%d: len = %d, want %d", d, m, len(layer), Binomial(d, m))
			}
			for _, s := range layer {
				if s.Card() != m {
					t.Fatalf("d=%d m=%d: subspace %v has card %d", d, m, s, s.Card())
				}
				if !s.SubsetOf(Full(d)) {
					t.Fatalf("d=%d m=%d: subspace %v out of range", d, m, s)
				}
			}
			total += len(layer)
		}
		if int64(total) != TotalSubspaces(d) {
			t.Fatalf("d=%d: layers sum to %d, want %d", d, total, TotalSubspaces(d))
		}
	}
}

func TestOfDimOutOfRange(t *testing.T) {
	if OfDim(4, 0) != nil || OfDim(4, 5) != nil {
		t.Fatal("out-of-range m must return nil")
	}
}

func TestOfDimAscending(t *testing.T) {
	layer := OfDim(8, 3)
	for i := 1; i < len(layer); i++ {
		if layer[i-1] >= layer[i] {
			t.Fatalf("not ascending at %d", i)
		}
	}
}

func TestEachOfDimEarlyStop(t *testing.T) {
	n := 0
	EachOfDim(10, 4, func(Mask) bool {
		n++
		return n < 3
	})
	if n != 3 {
		t.Fatalf("visited %d, want 3", n)
	}
}

func TestSubsetsEnumeration(t *testing.T) {
	s := New(0, 2, 3)
	seen := map[Mask]bool{}
	Subsets(s, func(sub Mask) bool {
		if sub.IsEmpty() || sub == s {
			t.Fatalf("Subsets yielded non-proper subset %v", sub)
		}
		if sub == s || !sub.SubsetOf(s) {
			t.Fatalf("%v is not a proper subset of %v", sub, s)
		}
		if seen[sub] {
			t.Fatalf("duplicate subset %v", sub)
		}
		seen[sub] = true
		return true
	})
	// A card-3 set has 2^3 - 2 = 6 proper non-empty subsets.
	if len(seen) != 6 {
		t.Fatalf("got %d subsets, want 6", len(seen))
	}
}

func TestSubsetsOfEmptyAndSingleton(t *testing.T) {
	calls := 0
	Subsets(Empty, func(Mask) bool { calls++; return true })
	Subsets(New(3), func(Mask) bool { calls++; return true })
	if calls != 0 {
		t.Fatalf("empty/singleton should yield no proper non-empty subsets, got %d", calls)
	}
}

func TestSupersetsEnumeration(t *testing.T) {
	d := 5
	s := New(1, 3)
	seen := map[Mask]bool{}
	Supersets(d, s, func(sup Mask) bool {
		if sup == s || !sup.SupersetOf(s) {
			t.Fatalf("%v is not a proper superset of %v", sup, s)
		}
		if !sup.SubsetOf(Full(d)) {
			t.Fatalf("superset %v escapes Full(%d)", sup, d)
		}
		if seen[sup] {
			t.Fatalf("duplicate superset %v", sup)
		}
		seen[sup] = true
		return true
	})
	// d-|s| = 3 free dims → 2^3 - 1 = 7 proper supersets.
	if len(seen) != 7 {
		t.Fatalf("got %d supersets, want 7", len(seen))
	}
}

func TestSupersetsOfFull(t *testing.T) {
	calls := 0
	Supersets(4, Full(4), func(Mask) bool { calls++; return true })
	if calls != 0 {
		t.Fatalf("Full has no proper supersets, got %d", calls)
	}
}

func TestSubsetsSupersetsDuality(t *testing.T) {
	// For every pair (a, b): b appears in Subsets(a) iff a appears in
	// Supersets(d, b).
	d := 6
	for _, a := range All(d) {
		subs := map[Mask]bool{}
		Subsets(a, func(s Mask) bool { subs[s] = true; return true })
		for _, b := range All(d) {
			inSubs := subs[b]
			want := b != a && b.SubsetOf(a) && !b.IsEmpty()
			if inSubs != want {
				t.Fatalf("Subsets(%v) contains %v = %v, want %v", a, b, inSubs, want)
			}
		}
	}
}

func TestEarlyStopSupersetsSubsets(t *testing.T) {
	n := 0
	Supersets(8, New(0), func(Mask) bool { n++; return n < 5 })
	if n != 5 {
		t.Fatalf("supersets early stop: %d", n)
	}
	n = 0
	Subsets(Full(8), func(Mask) bool { n++; return n < 5 })
	if n != 5 {
		t.Fatalf("subsets early stop: %d", n)
	}
}
