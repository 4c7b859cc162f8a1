package main

import (
	"math"
	"slices"
)

// minBeyond is how many samples must lie beyond a percentile before it
// is reported: a tail read off fewer samples is one outlier's latency,
// not a property of the system.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile (0 < q ≤ 1) of an
// ascending sample: the value at rank ⌈q·n⌉. It returns NaN for an
// empty sample.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(rank, 0), len(sorted)-1)]
}

// tailReportable reports whether at least minBeyond of n samples lie
// strictly beyond the nearest-rank q-quantile.
func tailReportable(n int, q float64) bool {
	return n-int(math.Ceil(q*float64(n))) >= minBeyond
}

// quartiles returns Q1, median and Q3 exactly as Python's
// statistics.quantiles(values, n=4) computes them (the default
// "exclusive" method), so spreads read the same as the acceptance
// check that recomputes them. It needs at least two values.
func quartiles(values []float64) (q1, q2, q3 float64) {
	data := slices.Clone(values)
	slices.Sort(data)
	ld := len(data)
	if ld < 2 {
		v := math.NaN()
		if ld == 1 {
			v = data[0]
		}
		return v, v, v
	}
	const n = 4
	m := ld + 1
	var out [3]float64
	for i := 1; i < n; i++ {
		j := min(max(i*m/n, 1), ld-1)
		delta := i*m - j*n
		out[i-1] = (data[j-1]*float64(n-delta) + data[j]*float64(delta)) / n
	}
	return out[0], out[1], out[2]
}

// median is the middle value (mean of the middle two for even n).
func median(values []float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	data := slices.Clone(values)
	slices.Sort(data)
	h := len(data) / 2
	if len(data)%2 == 1 {
		return data[h]
	}
	return (data[h-1] + data[h]) / 2
}

// latencySummary is one operation kind's latency distribution in
// milliseconds. P90 and P99 are nil when fewer than minBeyond samples
// lie beyond them.
type latencySummary struct {
	N   int      `json:"n"`
	P50 float64  `json:"p50_ms"`
	P90 *float64 `json:"p90_ms,omitempty"`
	P99 *float64 `json:"p99_ms,omitempty"`
}

// summarize sorts samples (ms) in place and summarizes them.
func summarize(samples []float64) latencySummary {
	slices.Sort(samples)
	s := latencySummary{N: len(samples), P50: percentile(samples, 0.5)}
	for _, t := range []struct {
		q   float64
		dst **float64
	}{{0.90, &s.P90}, {0.99, &s.P99}} {
		if tailReportable(len(samples), t.q) {
			v := percentile(samples, t.q)
			*t.dst = &v
		}
	}
	return s
}

// p50 is the nearest-rank median of an unsorted sample.
func p50(v []float64) float64 { return pAt(v, 0.5) }

// pAt is the nearest-rank q-quantile of an unsorted sample of layer
// timings, 0 for an empty one: the layer did no work.
func pAt(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	return percentile(s, q)
}
