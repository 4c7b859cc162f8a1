package baseline

import (
	"fmt"

	"repro/internal/lattice"
	"repro/internal/subspace"
	"repro/internal/vector"
)

// Intentional knowledge of distance-based outliers, after Knorr & Ng
// (VLDB 1999) — reference [6] of the HOS-Miner paper and its closest
// "space → outliers" relative: for a point that is a DB(π, δ) outlier,
// report the *strongest outlying spaces* — the minimal subspaces in
// which the point is an outlier (every superset is then outlying too).
//
// DB(π, δ) outlier-ness is monotone along the subspace lattice for
// L_p metrics (adding dimensions never decreases distances, so the
// δ-neighbourhood can only shrink), which lets this implementation
// reuse the same pruning tracker as HOS-Miner. The difference from
// HOS-Miner is the predicate (neighbourhood-count threshold instead of
// the OD measure) and the fixed bottom-up sweep of the original work.

// IntentionalResult is the outcome of one intentional-knowledge query.
type IntentionalResult struct {
	// Strongest holds the minimal outlying spaces (an antichain).
	Strongest []subspace.Mask
	// OutlyingCount is the size of the full outlying-space set.
	OutlyingCount int
	// Evaluations counts DB-outlier predicate evaluations spent.
	Evaluations int64
}

// IntentionalOutlyingSpaces finds the strongest (minimal) outlying
// spaces of the query point under the DB(π, δ) definition. exclude is
// the dataset index of the point itself (-1 for external points).
// Only tests call it: TestIntentionalMatchesBruteForce checks the
// lattice.Tracker pruning it shares with HOS-Miner against brute force.
func IntentionalOutlyingSpaces(ds *vector.Dataset, metric vector.Metric, query []float64, exclude int, pi, delta float64) (*IntentionalResult, error) {
	if ds == nil {
		return nil, fmt.Errorf("baseline: nil dataset")
	}
	if len(query) != ds.Dim() {
		return nil, fmt.Errorf("baseline: query has %d dims, dataset %d", len(query), ds.Dim())
	}
	if pi <= 0 || pi >= 1 {
		return nil, fmt.Errorf("baseline: pi = %v out of (0,1)", pi)
	}
	if delta <= 0 {
		return nil, fmt.Errorf("baseline: delta = %v", delta)
	}
	d := ds.Dim()
	tr, err := lattice.NewTracker(d)
	if err != nil {
		return nil, err
	}
	n := ds.N()
	if exclude >= 0 && exclude < n {
		n-- // the point itself never counts as its own neighbour
	}
	// Inlier needs ≥ ceil((1-π)·n) neighbours within δ.
	needed := int((1 - pi) * float64(n))

	res := &IntentionalResult{}
	isOutlier := func(s subspace.Mask) bool {
		res.Evaluations++
		within := 0
		for i := 0; i < ds.N(); i++ {
			if i == exclude {
				continue
			}
			if vector.Dist(metric, s, query, ds.Point(i)) <= delta {
				within++
				if within >= needed {
					return false
				}
			}
		}
		return true
	}

	// Bottom-up sweep with both pruning directions (Knorr & Ng
	// enumerate lattices bottom-up; the tracker adds the monotone
	// short-circuits).
	for m := 1; m <= d && !tr.Done(); m++ {
		tr.EachUnknownInLayer(m, func(s subspace.Mask) bool {
			if isOutlier(s) {
				tr.MarkOutlier(s, true)
			} else {
				tr.MarkNonOutlier(s, true)
			}
			return true
		})
	}

	outlying := tr.Outliers()
	res.OutlyingCount = len(outlying)
	res.Strongest = minimalOf(outlying)
	return res, nil
}

// minimalOf returns the antichain of minimal masks (same semantics as
// core.MinimalSubspaces, duplicated here to keep baseline free of a
// dependency on the system under test).
func minimalOf(outlying []subspace.Mask) []subspace.Mask {
	sorted := append([]subspace.Mask(nil), outlying...)
	subspace.SortMasks(sorted)
	var kept []subspace.Mask
	for _, s := range sorted {
		covered := false
		for _, k := range kept {
			if s.SupersetOf(k) {
				covered = true
				break
			}
		}
		if !covered {
			kept = append(kept, s)
		}
	}
	return kept
}
