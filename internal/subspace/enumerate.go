package subspace

// Enumeration over the subspace lattice of a d-dimensional space.
// The lattice has 2^d - 1 non-empty subspaces arranged in d layers;
// layer m holds the C(d, m) subspaces of cardinality m.

// All returns every non-empty subspace of a d-dimensional space in
// ascending mask order. The result has 2^d - 1 entries. Only tests
// call it: TestPropagationMatchesBruteForce checks the tracker against it.
func All(d int) []Mask {
	checkDim(d)
	n := (1 << uint(d)) - 1
	out := make([]Mask, 0, n)
	for v := Mask(1); v <= Mask(n); v++ {
		out = append(out, v)
	}
	return out
}

// EachAll calls fn for every non-empty subspace of a d-dimensional
// space in ascending mask order, stopping early if fn returns false.
func EachAll(d int, fn func(Mask) bool) {
	checkDim(d)
	last := Full(d)
	for v := Mask(1); ; v++ {
		if !fn(v) {
			return
		}
		if v == last {
			return
		}
	}
}

// OfDim returns every subspace of cardinality m within a d-dimensional
// space, in ascending mask order. It returns nil when m is out of
// [1, d]. Only tests call it: TestSavingsPartition draws its chain
// from it.
func OfDim(d, m int) []Mask {
	checkDim(d)
	if m < 1 || m > d {
		return nil
	}
	out := make([]Mask, 0, Binomial(d, m))
	EachOfDim(d, m, func(s Mask) bool {
		out = append(out, s)
		return true
	})
	return out
}

// EachOfDim calls fn for every cardinality-m subspace of a
// d-dimensional space in ascending mask order (Gosper's hack),
// stopping early if fn returns false.
func EachOfDim(d, m int, fn func(Mask) bool) {
	checkDim(d)
	if m < 1 || m > d {
		return
	}
	limit := uint32(1) << uint(d)
	v := uint32(1)<<uint(m) - 1
	for v < limit {
		if !fn(Mask(v)) {
			return
		}
		// Gosper's hack: next higher integer with the same popcount.
		c := v & -v
		r := v + c
		v = (((r ^ v) >> 2) / c) | r
	}
}

// Subsets calls fn for every non-empty proper subset of s, stopping
// early if fn returns false. The subsets are visited in descending mask
// order via the standard submask-enumeration loop. Only tests call it:
// TestMarkNonOutlierPropagatesDown checks downward pruning against it.
func Subsets(s Mask, fn func(Mask) bool) {
	if s == 0 {
		return
	}
	for sub := (s - 1) & s; sub != 0; sub = (sub - 1) & s {
		if !fn(sub) {
			return
		}
	}
}

// Supersets calls fn for every proper superset of s within a
// d-dimensional space, stopping early if fn returns false.
func Supersets(d int, s Mask, fn func(Mask) bool) {
	checkDim(d)
	complement := Full(d).Without(s)
	if complement == 0 {
		return
	}
	// Enumerate non-empty submasks of the complement and union each
	// with s.
	for add := complement; add != 0; add = (add - 1) & complement {
		if !fn(s | add) {
			return
		}
	}
}

// TotalSubspaces returns 2^d - 1.
func TotalSubspaces(d int) int64 {
	checkDim(d)
	return int64(1)<<uint(d) - 1
}

func checkDim(d int) {
	if d < 0 || d > MaxDim {
		panic("subspace: dimensionality out of range")
	}
}
