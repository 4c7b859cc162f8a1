package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Verdicts of a base-versus-head comparison of one metric on one
// workload (choosing-metrics guide §6.5 and §8).
const (
	improved   = "improved"
	unchanged  = "unchanged"
	regressed  = "regressed"
	unresolved = "unresolved"
)

// A gain needs at least minPairs paired runs, of which the head wins
// at least winShare (ties count for neither side).
const (
	minPairs = 10
	winShare = 0.9
)

// side is one set of runs of one metric.
type side struct {
	values     []float64
	q1, q2, q3 float64
}

func newSide(values []float64) side {
	s := side{values: values}
	s.q1, s.q2, s.q3 = quartiles(values)
	return s
}

// spread is the quartile distance as a share of the median.
func (s side) spread() float64 { return (s.q3 - s.q1) / s.q2 }

// verdict decides one metric. The head improved when, over at least
// ten pairs, it wins nine tenths of them and the medians differ by more
// than the base's quartile distance. Otherwise, a spread wider than the
// bound on either side leaves the metric unresolved — unless every head
// run beats every base run — and a median worse by more than the bound
// is a regression.
func verdict(base, head side, bound float64, higherBetter bool) string {
	better := func(h, b float64) bool {
		if higherBetter {
			return h > b
		}
		return h < b
	}
	pairs := min(len(base.values), len(head.values))
	wins := 0
	for i := range pairs {
		if better(head.values[i], base.values[i]) {
			wins++
		}
	}
	gap := head.q2 - base.q2
	if gap < 0 {
		gap = -gap
	}
	if pairs >= minPairs && float64(wins) >= winShare*float64(pairs) && better(head.q2, base.q2) && gap > base.q3-base.q1 {
		return improved
	}
	allBetter := true
	for _, h := range head.values {
		for _, b := range base.values {
			allBetter = allBetter && better(h, b)
		}
	}
	if max(base.spread(), head.spread()) > bound && !allBetter {
		return unresolved
	}
	worse := (head.q2 - base.q2) / base.q2
	if higherBetter {
		worse = -worse
	}
	if worse > bound {
		return regressed
	}
	return unchanged
}

// compareFiles prints, per workload and end-to-end metric, each side's
// median and quartiles and the verdict, with the bounds read from
// BENCHMARK.json.
func compareFiles(root, basePath, headPath string, out io.Writer) error {
	bf, err := readBenchmarkFile(root)
	if err != nil {
		return err
	}
	base, err := readResult(basePath)
	if err != nil {
		return err
	}
	head, err := readResult(headPath)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%-14s %-13s %-32s %-32s %8s %6s  %s\n", "workload", "metric", "base median [q1, q3]", "head median [q1, q3]", "change", "bound", "verdict")
	for _, w := range workloads {
		for _, d := range bf.EndToEnd {
			b, h := runValues(base, w.name, d.Name), runValues(head, w.name, d.Name)
			if len(b) == 0 || len(h) == 0 {
				continue
			}
			bs, hs := newSide(b), newSide(h)
			fmt.Fprintf(out, "%-14s %-13s %-32s %-32s %+7.1f%% %5.0f%%  %s\n", w.name, d.Name,
				fmt.Sprintf("%.4g [%.4g, %.4g]", bs.q2, bs.q1, bs.q3),
				fmt.Sprintf("%.4g [%.4g, %.4g]", hs.q2, hs.q1, hs.q3),
				100*(hs.q2-bs.q2)/bs.q2, 100*d.Bound, verdict(bs, hs, d.Bound, d.Better == "higher"))
		}
	}
	return nil
}

func readResult(path string) (*resultDoc, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc resultDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &doc, nil
}

// runValues lists one metric's value in every recorded run.
func runValues(doc *resultDoc, workload, metric string) []float64 {
	var out []float64
	for _, r := range doc.Runs {
		if res, ok := r[workload]; ok {
			if v, ok := res.Metrics[metric]; ok {
				out = append(out, v)
			}
		}
	}
	return out
}
