package subspace

// Saving factors from §3.1 of the paper. These quantify the lattice
// exploration work avoided when a subspace of a given cardinality is
// pruned downward (Definition 1) or upward (Definition 2). The unit of
// "work" is the paper's: evaluating an i-dimensional subspace costs i.

// Binomial returns C(n, k) as an int64. It panics on negative inputs
// and returns 0 when k > n. All inputs encountered in this library
// (n ≤ MaxDim) fit comfortably in int64.
func Binomial(n, k int) int64 {
	if n < 0 || k < 0 {
		panic("subspace: negative binomial argument")
	}
	if k > n {
		return 0
	}
	if k > n-k {
		k = n - k
	}
	res := int64(1)
	for i := 1; i <= k; i++ {
		res = res * int64(n-k+i) / int64(i)
	}
	return res
}

// DSF returns the Downward Saving Factor of an m-dimensional subspace
// (Definition 1):
//
//	DSF(m) = Σ_{i=1}^{m-1} C(m, i) · i
//
// i.e. the total evaluation work of all proper non-empty subsets.
// Worked example from the paper: DSF for [1,2,3] (m = 3) is
// C(3,1)·1 + C(3,2)·2 = 9.
func DSF(m int) int64 {
	var sum int64
	for i := 1; i < m; i++ {
		sum += Binomial(m, i) * int64(i)
	}
	return sum
}

// USF returns the Upward Saving Factor of an m-dimensional subspace in
// a d-dimensional space (Definition 2):
//
//	USF(m) = Σ_{i=1}^{d-m} C(d-m, i) · (m + i)
//
// i.e. the total evaluation work of all proper supersets. Worked
// example from the paper (d = 4): USF for [1,4] (m = 2) is
// C(2,1)·3 + C(2,2)·4 = 10.
func USF(m, d int) int64 {
	var sum int64
	for i := 1; i <= d-m; i++ {
		sum += Binomial(d-m, i) * int64(m+i)
	}
	return sum
}

// WorkloadBelow returns Cdown(m): the total evaluation work of all
// subspaces with cardinality strictly below m in a d-dimensional
// space, Σ_{i=1}^{m-1} C(d, i) · i. It is the denominator of the
// paper's f_down(m).
func WorkloadBelow(m, d int) int64 {
	var sum int64
	for i := 1; i < m; i++ {
		sum += Binomial(d, i) * int64(i)
	}
	return sum
}

// WorkloadAbove returns Cup(m): the total evaluation work of all
// subspaces with cardinality strictly above m in a d-dimensional
// space, Σ_{i=m+1}^{d} C(d, i) · i. It is the denominator of the
// paper's f_up(m).
func WorkloadAbove(m, d int) int64 {
	var sum int64
	for i := m + 1; i <= d; i++ {
		sum += Binomial(d, i) * int64(i)
	}
	return sum
}
