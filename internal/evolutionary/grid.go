// Package evolutionary implements the high-dimensional outlier
// detection method of Aggarwal & Yu (SIGMOD 2001), reference [1] of
// the HOS-Miner paper and its comparison baseline: each dimension is
// discretised into φ equi-depth ranges, a k-dimensional grid cell's
// abnormality is its sparsity coefficient, and a genetic algorithm
// searches the space of k-dimensional cells for the most negative
// coefficients. Points inside the discovered sparse cells are
// reported as outliers; for the "outlier → spaces" comparison, the
// dimension sets of sparse cells containing a query point act as its
// predicted outlying subspaces.
package evolutionary

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/vector"
)

// Grid is the equi-depth discretisation of a dataset: per dimension,
// φ ranges each holding ≈ N/φ points.
type Grid struct {
	ds  *vector.Dataset
	phi int
	// boundaries[j] holds φ-1 ascending cut points for dimension j;
	// range r (0-based) is (boundaries[r-1], boundaries[r]].
	boundaries [][]float64
	// cellOf[i*d+j] is the precomputed range index of point i in dim
	// j.
	cellOf []uint8
}

// NewGrid builds the equi-depth grid with phi ranges per dimension
// (2 ≤ phi ≤ 255).
func NewGrid(ds *vector.Dataset, phi int) (*Grid, error) {
	if ds == nil {
		return nil, fmt.Errorf("evolutionary: nil dataset")
	}
	if phi < 2 || phi > 255 {
		return nil, fmt.Errorf("evolutionary: phi = %d out of [2,255]", phi)
	}
	n, d := ds.N(), ds.Dim()
	if n < phi {
		return nil, fmt.Errorf("evolutionary: dataset size %d below phi %d", n, phi)
	}
	g := &Grid{ds: ds, phi: phi, boundaries: make([][]float64, d), cellOf: make([]uint8, n*d)}
	col := make([]float64, n)
	for j := 0; j < d; j++ {
		for i := 0; i < n; i++ {
			col[i] = ds.Point(i)[j]
		}
		sorted := append([]float64(nil), col...)
		sort.Float64s(sorted)
		cuts := make([]float64, phi-1)
		for r := 1; r < phi; r++ {
			idx := r * n / phi
			if idx >= n {
				idx = n - 1
			}
			cuts[r-1] = sorted[idx]
		}
		g.boundaries[j] = cuts
		for i := 0; i < n; i++ {
			g.cellOf[i*d+j] = g.rangeOf(j, col[i])
		}
	}
	return g, nil
}

// Phi returns the number of ranges per dimension.
func (g *Grid) Phi() int { return g.phi }

// Dim returns the dimensionality.
func (g *Grid) Dim() int { return g.ds.Dim() }

// N returns the dataset size.
func (g *Grid) N() int { return g.ds.N() }

// rangeOf maps a value to its 0-based range index in dimension j.
func (g *Grid) rangeOf(j int, v float64) uint8 {
	cuts := g.boundaries[j]
	// first cut > v ⇒ that range; binary search.
	lo, hi := 0, len(cuts)
	for lo < hi {
		mid := (lo + hi) / 2
		if v <= cuts[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return uint8(lo)
}

// Count returns n(C): the number of dataset points inside the cell
// described by the individual (see Individual); unconstrained
// dimensions match everything.
func (g *Grid) Count(ind Individual) int {
	n, d := g.ds.N(), g.ds.Dim()
	count := 0
	for i := 0; i < n; i++ {
		match := true
		base := i * d
		for j := 0; j < d && match; j++ {
			if ind[j] != Wildcard && g.cellOf[base+j] != ind[j]-1 {
				match = false
			}
		}
		if match {
			count++
		}
	}
	return count
}

// Sparsity returns the sparsity coefficient of the cell (Aggarwal &
// Yu):
//
//	S(C) = (n(C) − N·f^m) / sqrt(N·f^m·(1 − f^m)),  f = 1/φ
//
// where m is the number of constrained dimensions. Strongly negative
// values mark cells far emptier than independence predicts.
func (g *Grid) Sparsity(ind Individual) float64 {
	return g.SparsityFromCount(g.Count(ind), ind.Constrained())
}

// SparsityFromCount computes the coefficient from a known cell count
// and constrained-dimension count, avoiding a second dataset scan
// when the count is already cached.
func (g *Grid) SparsityFromCount(count, m int) float64 {
	if m == 0 {
		return 0
	}
	n := float64(g.ds.N())
	fk := math.Pow(1/float64(g.phi), float64(m))
	expected := n * fk
	denom := math.Sqrt(n * fk * (1 - fk))
	if denom == 0 {
		return 0
	}
	return (float64(count) - expected) / denom
}

// PointsIn returns the indices of dataset points inside the cell,
// ascending.
func (g *Grid) PointsIn(ind Individual) []int {
	n, d := g.ds.N(), g.ds.Dim()
	var out []int
	for i := 0; i < n; i++ {
		match := true
		base := i * d
		for j := 0; j < d && match; j++ {
			if ind[j] != Wildcard && g.cellOf[base+j] != ind[j]-1 {
				match = false
			}
		}
		if match {
			out = append(out, i)
		}
	}
	return out
}

// ContainsPoint reports whether dataset point i lies in the cell.
func (g *Grid) ContainsPoint(ind Individual, i int) bool {
	d := g.ds.Dim()
	base := i * d
	for j := 0; j < d; j++ {
		if ind[j] != Wildcard && g.cellOf[base+j] != ind[j]-1 {
			return false
		}
	}
	return true
}
