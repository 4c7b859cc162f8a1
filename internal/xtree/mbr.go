// Package xtree implements the X-tree of Berchtold, Keim and Kriegel
// (VLDB 1996), the index HOS-Miner uses to "facilitate k-NN search in
// every subspace" (§3). The X-tree extends the R*-tree with an
// overlap-minimal split derived from the split history and with
// supernodes — directory nodes of unbounded capacity created when no
// good split exists — which keeps the directory overlap low in high
// dimensions.
//
// Subspace queries need no per-subspace index: the minimum distance
// between a query and a bounding rectangle restricted to a dimension
// subset is still a lower bound of the true point distance in that
// subset, so one full-dimensional X-tree serves best-first k-NN in
// every subspace.
package xtree

import "math"

// MBR is a minimum bounding rectangle in d dimensions.
type MBR struct {
	Min []float64
	Max []float64
}

// EmptyMBR returns an inverted MBR that acts as the identity for
// Extend and ExtendPoint.
func EmptyMBR(d int) MBR {
	lo := make([]float64, d)
	hi := make([]float64, d)
	for i := 0; i < d; i++ {
		lo[i] = math.Inf(1)
		hi[i] = math.Inf(-1)
	}
	return MBR{Min: lo, Max: hi}
}

// IsEmpty reports whether the MBR is inverted (covers nothing).
func (r MBR) IsEmpty() bool { return len(r.Min) == 0 || r.Min[0] > r.Max[0] }

// ExtendPoint grows the MBR in place to cover p.
func (r *MBR) ExtendPoint(p []float64) {
	for i, v := range p {
		if v < r.Min[i] {
			r.Min[i] = v
		}
		if v > r.Max[i] {
			r.Max[i] = v
		}
	}
}

// Extend grows the MBR in place to cover other.
func (r *MBR) Extend(other MBR) {
	for i := range r.Min {
		if other.Min[i] < r.Min[i] {
			r.Min[i] = other.Min[i]
		}
		if other.Max[i] > r.Max[i] {
			r.Max[i] = other.Max[i]
		}
	}
}

// Area returns the d-dimensional volume. Degenerate extents contribute
// factor 0.
func (r MBR) Area() float64 { return boxArea(r.Min, r.Max) }

// boxArea is Area over bare bound slices, so construction can score
// boxes that live in scratch.
func boxArea(lo, hi []float64) float64 {
	area := 1.0
	for i := range lo {
		area *= hi[i] - lo[i]
	}
	return area
}

// boxMargin returns the sum of edge lengths (the R*-tree margin
// criterion, up to the constant 2^(d-1) factor).
func boxMargin(lo, hi []float64) float64 {
	var m float64
	for i := range lo {
		m += hi[i] - lo[i]
	}
	return m
}

// boxOverlap returns the volume of the intersection of boxes a and b
// (0 when disjoint).
func boxOverlap(aLo, aHi, bLo, bHi []float64) float64 {
	v := 1.0
	for i := range aLo {
		lo := max(aLo[i], bLo[i])
		hi := min(aHi[i], bHi[i])
		if hi <= lo {
			return 0
		}
		v *= hi - lo
	}
	return v
}

func axisGap(v, lo, hi float64) float64 {
	if v < lo {
		return lo - v
	}
	if v > hi {
		return v - hi
	}
	return 0
}
