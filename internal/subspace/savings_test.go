package subspace

import "testing"

func TestBinomial(t *testing.T) {
	cases := []struct {
		n, k int
		want int64
	}{
		{0, 0, 1}, {1, 0, 1}, {1, 1, 1}, {4, 2, 6}, {5, 3, 10},
		{10, 5, 252}, {24, 12, 2704156}, {3, 5, 0},
	}
	for _, c := range cases {
		if got := Binomial(c.n, c.k); got != c.want {
			t.Errorf("Binomial(%d,%d) = %d, want %d", c.n, c.k, got, c.want)
		}
	}
}

func TestBinomialSymmetry(t *testing.T) {
	for n := 0; n <= MaxDim; n++ {
		for k := 0; k <= n; k++ {
			if Binomial(n, k) != Binomial(n, n-k) {
				t.Fatalf("C(%d,%d) != C(%d,%d)", n, k, n, n-k)
			}
		}
	}
}

func TestBinomialPascal(t *testing.T) {
	for n := 1; n <= MaxDim; n++ {
		for k := 1; k <= n; k++ {
			if Binomial(n, k) != Binomial(n-1, k-1)+Binomial(n-1, k) {
				t.Fatalf("Pascal fails at C(%d,%d)", n, k)
			}
		}
	}
}

func TestBinomialPanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	Binomial(-1, 2)
}

// TestDSFPaperExample checks the worked example from §3.1:
// DSF([1,2,3]) = C(3,1)·1 + C(3,2)·2 = 9.
func TestDSFPaperExample(t *testing.T) {
	if got := DSF(3); got != 9 {
		t.Fatalf("DSF(3) = %d, want 9", got)
	}
}

// TestUSFPaperExample checks the worked example from §3.1 (d = 4):
// USF([1,4]) = C(2,1)·3 + C(2,2)·4 = 10.
func TestUSFPaperExample(t *testing.T) {
	if got := USF(2, 4); got != 10 {
		t.Fatalf("USF(2,4) = %d, want 10", got)
	}
}

func TestDSFEdges(t *testing.T) {
	if DSF(1) != 0 {
		t.Fatalf("DSF(1) = %d, want 0 (singletons have no non-empty proper subsets)", DSF(1))
	}
	if DSF(2) != 2 {
		t.Fatalf("DSF(2) = %d, want 2", DSF(2))
	}
}

func TestUSFEdges(t *testing.T) {
	if USF(4, 4) != 0 {
		t.Fatalf("USF(d,d) = %d, want 0 (full space has no supersets)", USF(4, 4))
	}
	// m=1, d=2: supersets of a singleton are just the full space, work 2.
	if USF(1, 2) != 2 {
		t.Fatalf("USF(1,2) = %d, want 2", USF(1, 2))
	}
}

// TestDSFBruteForce cross-checks DSF against direct lattice
// enumeration: total work of all proper non-empty subsets.
func TestDSFBruteForce(t *testing.T) {
	for m := 1; m <= 12; m++ {
		s := Full(m)
		var want int64
		Subsets(s, func(sub Mask) bool {
			want += int64(sub.Card())
			return true
		})
		if got := DSF(m); got != want {
			t.Fatalf("DSF(%d) = %d, brute force %d", m, got, want)
		}
	}
}

// TestUSFBruteForce cross-checks USF against direct lattice
// enumeration: total work of all proper supersets within d dims.
func TestUSFBruteForce(t *testing.T) {
	for d := 1; d <= 10; d++ {
		for m := 1; m <= d; m++ {
			s := Full(m) // any m-dim subspace; USF depends only on m and d
			var want int64
			Supersets(d, s, func(sup Mask) bool {
				want += int64(sup.Card())
				return true
			})
			if got := USF(m, d); got != want {
				t.Fatalf("USF(%d,%d) = %d, brute force %d", m, d, got, want)
			}
		}
	}
}

func TestWorkloadsBruteForce(t *testing.T) {
	for d := 1; d <= 10; d++ {
		for m := 1; m <= d; m++ {
			var below, above int64
			EachAll(d, func(s Mask) bool {
				c := int64(s.Card())
				if int(c) < m {
					below += c
				} else if int(c) > m {
					above += c
				}
				return true
			})
			if got := WorkloadBelow(m, d); got != below {
				t.Fatalf("WorkloadBelow(%d,%d) = %d, want %d", m, d, got, below)
			}
			if got := WorkloadAbove(m, d); got != above {
				t.Fatalf("WorkloadAbove(%d,%d) = %d, want %d", m, d, got, above)
			}
		}
	}
}

func TestTotalWorkloadIdentity(t *testing.T) {
	// Σ_{i=1}^{d} C(d,i)·i = d·2^(d-1); also equals
	// WorkloadBelow(m) + C(d,m)·m + WorkloadAbove(m) for any m.
	for d := 1; d <= 16; d++ {
		total := int64(d) << (d - 1)
		var sum int64
		for i := 1; i <= d; i++ {
			sum += Binomial(d, i) * int64(i)
		}
		if total != sum {
			t.Fatalf("d·2^(d-1) at d=%d is %d, sum %d", d, total, sum)
		}
		for m := 1; m <= d; m++ {
			parts := WorkloadBelow(m, d) + Binomial(d, m)*int64(m) + WorkloadAbove(m, d)
			if parts != total {
				t.Fatalf("d=%d m=%d: partition %d != total %d", d, m, parts, total)
			}
		}
	}
}

// TestSavingsPartition verifies that for an m-dim subspace, DSF(m) +
// m + USF(m,d) accounts for the full work of the chain containing it:
// subsets + itself + supersets.
func TestSavingsPartition(t *testing.T) {
	d := 8
	for m := 1; m <= d; m++ {
		s := OfDim(d, m)[0]
		var work int64 = int64(m)
		Subsets(s, func(sub Mask) bool { work += int64(sub.Card()); return true })
		Supersets(d, s, func(sup Mask) bool { work += int64(sup.Card()); return true })
		if want := DSF(m) + int64(m) + USF(m, d); work != want {
			t.Fatalf("m=%d: chain work %d, want %d", m, work, want)
		}
	}
}
