package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	sorted := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct {
		q    float64
		want float64
	}{
		{0.5, 5},   // rank ⌈5⌉ = 5
		{0.51, 6},  // rank ⌈5.1⌉ = 6: nearest rank never rounds down
		{0.9, 9},   // rank 9
		{0.99, 10}, // rank ⌈9.9⌉ = 10
		{1, 10},
		{0.01, 1},
	} {
		if got := percentile(sorted, c.q); got != c.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of an empty sample is not NaN")
	}
}

func TestTailReportable(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want bool
	}{
		{99, 0.9, false},   // rank 90, 9 beyond
		{100, 0.9, true},   // rank 90, 10 beyond
		{999, 0.99, false}, // rank 990, 9 beyond
		{1000, 0.99, true},
		{10, 0.5, false}, // 5 beyond
		{20, 0.5, true},
	} {
		if got := tailReportable(c.n, c.q); got != c.want {
			t.Errorf("tailReportable(%d, %v) = %v, want %v", c.n, c.q, got, c.want)
		}
	}
}

func TestSummarizeOmitsThinTails(t *testing.T) {
	samples := make([]float64, 150)
	for i := range samples {
		samples[i] = float64(150 - i)
	}
	s := summarize(samples)
	if s.N != 150 || s.P50 != 75 {
		t.Fatalf("summary %+v, want n=150 p50=75", s)
	}
	if s.P90 == nil || *s.P90 != 135 {
		t.Errorf("p90 = %v, want 135 (15 samples beyond)", s.P90)
	}
	if s.P99 != nil {
		t.Errorf("p99 = %v reported with 1 sample beyond", *s.P99)
	}
}

// TestQuartilesMatchPython pins quartiles to the values Python's
// statistics.quantiles(data, n=4) (method "exclusive") returns.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		data []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{10, 1, 7, 3}, [3]float64{1.5, 5, 9.25}},
		{[]float64{2, 4}, [3]float64{1.5, 3, 4.5}}, // extrapolates past the ends
		{[]float64{5, 1, 3}, [3]float64{1, 3, 5}},
	} {
		q1, q2, q3 := quartiles(c.data)
		got := [3]float64{q1, q2, q3}
		for i := range got {
			if math.Abs(got[i]-c.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v, want %v", c.data, got, c.want)
				break
			}
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
}
