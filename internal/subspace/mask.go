// Package subspace provides the subspace algebra used throughout the
// HOS-Miner reproduction: compact bitmask subspace representation,
// lattice enumeration, binomial combinatorics and the paper's
// Downward/Upward Saving Factors (Definitions 1 and 2).
//
// A subspace of a d-dimensional attribute space is a non-empty subset of
// the d dimensions. Dimensions are 0-based throughout the library (the
// paper writes 1-based examples such as [1,3]; our String method renders
// 0-based indices).
package subspace

import (
	"fmt"
	"math/bits"
	"sort"
	"strconv"
	"strings"
)

// MaxDim is the largest supported dimensionality of the full attribute
// space. It is bounded so that dense per-subspace lattice bookkeeping
// (2^d entries) stays affordable: at d = 24 a byte-per-subspace status
// array occupies 16 MiB.
const MaxDim = 24

// Mask is a subspace encoded as a bitmask over dimensions: bit i is set
// iff dimension i belongs to the subspace. The zero Mask is the empty
// set, which is not a valid subspace but is useful as a sentinel.
type Mask uint32

// Empty is the empty dimension set (not a valid subspace).
const Empty Mask = 0

// Full returns the subspace containing all d dimensions.
func Full(d int) Mask {
	if d < 0 || d > MaxDim {
		panic(fmt.Sprintf("subspace: dimensionality %d out of range [0,%d]", d, MaxDim))
	}
	return Mask(uint32(1)<<uint(d)) - 1
}

// New builds a Mask from explicit 0-based dimension indices.
// It panics on out-of-range dimensions; duplicates are tolerated.
func New(dims ...int) Mask {
	var m Mask
	for _, dim := range dims {
		if dim < 0 || dim >= MaxDim {
			panic(fmt.Sprintf("subspace: dimension %d out of range [0,%d)", dim, MaxDim))
		}
		m |= 1 << uint(dim)
	}
	return m
}

// Card returns the number of dimensions in the subspace.
func (m Mask) Card() int { return bits.OnesCount32(uint32(m)) }

// IsEmpty reports whether the mask contains no dimensions.
func (m Mask) IsEmpty() bool { return m == 0 }

// Contains reports whether dimension dim belongs to the subspace.
func (m Mask) Contains(dim int) bool { return m&(1<<uint(dim)) != 0 }

// SubsetOf reports m ⊆ o.
func (m Mask) SubsetOf(o Mask) bool { return m&o == m }

// SupersetOf reports m ⊇ o.
func (m Mask) SupersetOf(o Mask) bool { return m&o == o }

// Union returns m ∪ o.
func (m Mask) Union(o Mask) Mask { return m | o }

// Intersect returns m ∩ o.
func (m Mask) Intersect(o Mask) Mask { return m & o }

// Without returns m \ o.
func (m Mask) Without(o Mask) Mask { return m &^ o }

// With returns the subspace extended by dimension dim.
func (m Mask) With(dim int) Mask { return m | 1<<uint(dim) }

// Drop returns the subspace with dimension dim removed.
func (m Mask) Drop(dim int) Mask { return m &^ (1 << uint(dim)) }

// Dims returns the sorted 0-based dimension indices of the subspace.
func (m Mask) Dims() []int {
	dims := make([]int, 0, m.Card())
	for v := uint32(m); v != 0; {
		dim := bits.TrailingZeros32(v)
		dims = append(dims, dim)
		v &= v - 1
	}
	return dims
}

// EachDim calls fn for every dimension of the subspace in ascending
// order. It avoids the allocation of Dims in hot paths.
func (m Mask) EachDim(fn func(dim int)) {
	for v := uint32(m); v != 0; {
		fn(bits.TrailingZeros32(v))
		v &= v - 1
	}
}

// AppendDims appends the sorted 0-based dimension indices of the
// subspace to dst and returns the extended slice. Passing dst[:0]
// reuses its backing array, so hot paths can decode a mask into a
// scratch slice without allocating.
//
//hos:hotpath
func (m Mask) AppendDims(dst []int) []int {
	for v := uint32(m); v != 0; {
		dst = append(dst, bits.TrailingZeros32(v))
		v &= v - 1
	}
	return dst
}

// String renders the subspace as the paper does, e.g. "[0,2]" for the
// subspace of dimensions {0, 2}.
func (m Mask) String() string {
	if m == 0 {
		return "[]"
	}
	var b strings.Builder
	b.WriteByte('[')
	first := true
	m.EachDim(func(dim int) {
		if !first {
			b.WriteByte(',')
		}
		first = false
		b.WriteString(strconv.Itoa(dim))
	})
	b.WriteByte(']')
	return b.String()
}

// Parse parses the String representation ("[0,2]" or "0,2") back into a
// Mask.
func Parse(s string) (Mask, error) {
	s = strings.TrimSpace(s)
	s = strings.TrimPrefix(s, "[")
	s = strings.TrimSuffix(s, "]")
	if s == "" {
		return Empty, nil
	}
	var m Mask
	for _, part := range strings.Split(s, ",") {
		dim, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return Empty, fmt.Errorf("subspace: parsing %q: %w", s, err)
		}
		if dim < 0 || dim >= MaxDim {
			return Empty, fmt.Errorf("subspace: dimension %d out of range [0,%d)", dim, MaxDim)
		}
		m = m.With(dim)
	}
	return m, nil
}

// SortMasks sorts masks by ascending cardinality, breaking ties by
// numeric mask value. This is the canonical order used by the result
// refinement filter (§3.4): supersets always follow their subsets.
func SortMasks(masks []Mask) {
	sort.Slice(masks, func(i, j int) bool {
		ci, cj := masks[i].Card(), masks[j].Card()
		if ci != cj {
			return ci < cj
		}
		return masks[i] < masks[j]
	})
}
