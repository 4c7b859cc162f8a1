// Package vector provides the numeric substrate of the HOS-Miner
// reproduction: dense datasets of d-dimensional points, subspace-
// projected L_p distances, normalization and summary statistics.
//
// Points are stored in a single flat float64 backing array for cache
// locality; Point(i) returns a zero-copy view.
package vector

import (
	"fmt"
	"math"

	"repro/internal/subspace"
)

// Metric identifies the distance used to compare points.
type Metric uint8

const (
	// L2 is the Euclidean metric (paper default).
	L2 Metric = iota
	// L1 is the Manhattan metric.
	L1
	// LInf is the Chebyshev metric.
	LInf
)

// String returns the conventional name of the metric.
func (m Metric) String() string {
	switch m {
	case L2:
		return "L2"
	case L1:
		return "L1"
	case LInf:
		return "LInf"
	default:
		return fmt.Sprintf("Metric(%d)", uint8(m))
	}
}

// Valid reports whether m is a defined metric.
func (m Metric) Valid() bool { return m <= LInf }

// Dataset is an immutable, flat-backed collection of n points in d
// dimensions.
type Dataset struct {
	data []float64 // len = n*d, row-major
	n    int
	d    int
	cols []string // optional column names, len d when present
}

// NewDataset wraps row-major data (len must be n*d) into a Dataset.
// The slice is taken over without copying.
func NewDataset(data []float64, n, d int) (*Dataset, error) {
	if n < 0 || d <= 0 {
		return nil, fmt.Errorf("vector: invalid shape n=%d d=%d", n, d)
	}
	if d > subspace.MaxDim {
		return nil, fmt.Errorf("vector: dimensionality %d exceeds supported maximum %d", d, subspace.MaxDim)
	}
	if len(data) != n*d {
		return nil, fmt.Errorf("vector: data length %d != n*d = %d", len(data), n*d)
	}
	return &Dataset{data: data, n: n, d: d}, nil
}

// FromRows builds a Dataset by copying a slice of equal-length rows.
func FromRows(rows [][]float64) (*Dataset, error) {
	if len(rows) == 0 {
		return nil, fmt.Errorf("vector: empty dataset")
	}
	d := len(rows[0])
	flat := make([]float64, 0, len(rows)*d)
	for i, r := range rows {
		if len(r) != d {
			return nil, fmt.Errorf("vector: row %d has %d values, want %d", i, len(r), d)
		}
		flat = append(flat, r...)
	}
	return NewDataset(flat, len(rows), d)
}

// N returns the number of points.
func (ds *Dataset) N() int { return ds.n }

// Dim returns the dimensionality.
func (ds *Dataset) Dim() int { return ds.d }

// Point returns a zero-copy view of point i. The caller must not
// mutate it.
func (ds *Dataset) Point(i int) []float64 {
	return ds.data[i*ds.d : (i+1)*ds.d : (i+1)*ds.d]
}

// Slab returns the flat row-major backing array (len N*Dim). It is
// shared, not a copy: callers must treat it as read-only. Hot loops
// use it to stride through rows without per-point slicing overhead.
func (ds *Dataset) Slab() []float64 { return ds.data }

// Rows materialises all points as a slice of copies.
func (ds *Dataset) Rows() [][]float64 {
	out := make([][]float64, ds.n)
	for i := range out {
		row := make([]float64, ds.d)
		copy(row, ds.Point(i))
		out[i] = row
	}
	return out
}

// SetColumns attaches column names (len must equal Dim).
func (ds *Dataset) SetColumns(cols []string) error {
	if len(cols) != ds.d {
		return fmt.Errorf("vector: %d column names for %d dims", len(cols), ds.d)
	}
	ds.cols = append([]string(nil), cols...)
	return nil
}

// Columns returns the column names, or nil if none were set.
func (ds *Dataset) Columns() []string { return ds.cols }

// ColumnName returns the name of dimension i, or "dim<i>" when
// unnamed.
func (ds *Dataset) ColumnName(i int) string {
	if ds.cols != nil && i >= 0 && i < len(ds.cols) {
		return ds.cols[i]
	}
	return fmt.Sprintf("dim%d", i)
}

// Clone returns a deep copy of the dataset.
func (ds *Dataset) Clone() *Dataset {
	data := make([]float64, len(ds.data))
	copy(data, ds.data)
	out := &Dataset{data: data, n: ds.n, d: ds.d}
	if ds.cols != nil {
		out.cols = append([]string(nil), ds.cols...)
	}
	return out
}

// Append returns a new Dataset with the given rows appended. The
// receiver is unchanged.
func (ds *Dataset) Append(rows ...[]float64) (*Dataset, error) {
	data := make([]float64, len(ds.data), len(ds.data)+len(rows)*ds.d)
	copy(data, ds.data)
	for i, r := range rows {
		if len(r) != ds.d {
			return nil, fmt.Errorf("vector: appended row %d has %d values, want %d", i, len(r), ds.d)
		}
		data = append(data, r...)
	}
	out := &Dataset{data: data, n: ds.n + len(rows), d: ds.d}
	if ds.cols != nil {
		out.cols = append([]string(nil), ds.cols...)
	}
	return out, nil
}

// Dist computes the distance between points a and b restricted to the
// dimensions of subspace s under metric m. It panics when s includes
// dimensions beyond len(a) or len(b) (programming error).
func Dist(m Metric, s subspace.Mask, a, b []float64) float64 {
	switch m {
	case L2:
		var sum float64
		s.EachDim(func(d int) {
			diff := a[d] - b[d]
			sum += diff * diff
		})
		return math.Sqrt(sum)
	case L1:
		var sum float64
		s.EachDim(func(d int) {
			sum += math.Abs(a[d] - b[d])
		})
		return sum
	case LInf:
		var max float64
		s.EachDim(func(d int) {
			if diff := math.Abs(a[d] - b[d]); diff > max {
				max = diff
			}
		})
		return max
	default:
		panic("vector: unknown metric")
	}
}

// SqDistL2 returns the squared Euclidean distance in subspace s; it is
// cheaper than Dist(L2, ...) and order-equivalent, which suffices for
// nearest-neighbour ranking. Only tests call it:
// TestKernelsBitIdenticalToEachDim compares SqDistL2Dims with it.
func SqDistL2(s subspace.Mask, a, b []float64) float64 {
	var sum float64
	s.EachDim(func(d int) {
		diff := a[d] - b[d]
		sum += diff * diff
	})
	return sum
}
