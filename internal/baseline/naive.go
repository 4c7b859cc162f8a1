// Package baseline implements the comparison methods of the
// reproduction's experiments: the naive exhaustive subspace search
// (cost yardstick and correctness oracle for HOS-Miner) and classical
// "space → outliers" detectors the paper cites — the
// intentional-knowledge extension of Knorr & Ng's distance-based
// outliers (strongest outlying spaces) [6] and the top-n k-NN
// distance outliers of Ramaswamy et al. [8]. The search-ordering
// ablations (bottom-up, top-down, random) live in internal/core as
// Policy values since they share the pruning machinery.
package baseline

import (
	"fmt"

	"repro/internal/od"
	"repro/internal/subspace"
)

// NaiveResult is the outcome of an exhaustive subspace sweep.
type NaiveResult struct {
	// Outlying is every subspace with OD ≥ T, canonically sorted.
	Outlying []subspace.Mask
	// Evaluations is the number of OD computations: always 2^d - 1.
	Evaluations int64
}

// NaiveSearch evaluates OD in every non-empty subspace — no pruning,
// no ordering. It is exponential in d and exists as the yardstick
// (experiments F1, F3, F7) and as the oracle HOS-Miner is validated
// against.
func NaiveSearch(eval *od.Evaluator, point []float64, exclude int, T float64) (*NaiveResult, error) {
	if eval == nil {
		return nil, fmt.Errorf("baseline: nil evaluator")
	}
	d := eval.Dataset().Dim()
	res := &NaiveResult{}
	subspace.EachAll(d, func(s subspace.Mask) bool {
		res.Evaluations++
		if eval.OD(point, s, exclude) >= T {
			res.Outlying = append(res.Outlying, s)
		}
		return true
	})
	subspace.SortMasks(res.Outlying)
	return res, nil
}
