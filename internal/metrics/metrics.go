// Package metrics scores predicted outlying-subspace sets against
// ground truth for the effectiveness experiments (T2), and provides
// small numeric summaries shared by the experiment harness.
package metrics

import (
	"fmt"

	"repro/internal/subspace"
)

// MatchMode defines when a predicted subspace counts as matching a
// ground-truth subspace.
type MatchMode uint8

const (
	// MatchExact requires set equality.
	MatchExact MatchMode = iota
	// MatchSubset counts a prediction as hitting a truth subspace when
	// the prediction is a (non-empty) subset of it. This is the
	// appropriate notion for *minimal* outlying subspaces: if the
	// planted deviation spans {1,3}, detecting {1} alone already
	// pinpoints a genuine deviating axis (OD monotonicity then implies
	// {1,3} is outlying too).
	MatchSubset
	// MatchOverlap counts any shared dimension as a hit — the most
	// lenient notion, used to compare against the evolutionary
	// baseline whose grid cells rarely reproduce exact dimension sets.
	MatchOverlap
)

// String names the mode.
func (m MatchMode) String() string {
	switch m {
	case MatchExact:
		return "exact"
	case MatchSubset:
		return "subset"
	case MatchOverlap:
		return "overlap"
	default:
		return fmt.Sprintf("MatchMode(%d)", uint8(m))
	}
}

// PRF bundles precision, recall and F1.
type PRF struct {
	Precision float64
	Recall    float64
	F1        float64
	// TruePositives counts predictions that matched some truth
	// subspace; Hits counts truth subspaces matched by some
	// prediction (they differ when several predictions hit one truth).
	TruePositives int
	Hits          int
}

// Score compares predicted subspaces against truth under the given
// mode. Empty predictions with non-empty truth give zero recall;
// empty truth with non-empty predictions gives zero precision; both
// empty scores 1/1/1 (nothing to find, nothing found).
func Score(predicted, truth []subspace.Mask, mode MatchMode) PRF {
	if len(predicted) == 0 && len(truth) == 0 {
		return PRF{Precision: 1, Recall: 1, F1: 1}
	}
	var tp int
	for _, p := range predicted {
		if matchesAny(p, truth, mode) {
			tp++
		}
	}
	var hits int
	for _, tr := range truth {
		if coversAny(tr, predicted, mode) {
			hits++
		}
	}
	prf := PRF{TruePositives: tp, Hits: hits}
	if len(predicted) > 0 {
		prf.Precision = float64(tp) / float64(len(predicted))
	}
	if len(truth) > 0 {
		prf.Recall = float64(hits) / float64(len(truth))
	} else {
		prf.Recall = 1
	}
	if prf.Precision+prf.Recall > 0 {
		prf.F1 = 2 * prf.Precision * prf.Recall / (prf.Precision + prf.Recall)
	}
	return prf
}

// matchesAny reports whether prediction p matches any truth subspace.
func matchesAny(p subspace.Mask, truth []subspace.Mask, mode MatchMode) bool {
	for _, tr := range truth {
		if matches(p, tr, mode) {
			return true
		}
	}
	return false
}

// coversAny reports whether truth subspace tr is matched by any
// prediction.
func coversAny(tr subspace.Mask, predicted []subspace.Mask, mode MatchMode) bool {
	for _, p := range predicted {
		if matches(p, tr, mode) {
			return true
		}
	}
	return false
}

// matches applies the mode with p as prediction and tr as truth.
func matches(p, tr subspace.Mask, mode MatchMode) bool {
	switch mode {
	case MatchExact:
		return p == tr
	case MatchSubset:
		return !p.IsEmpty() && p.SubsetOf(tr)
	case MatchOverlap:
		return !p.Intersect(tr).IsEmpty()
	default:
		panic("metrics: unknown match mode")
	}
}

// Mean returns the arithmetic mean (0 for an empty slice).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// MeanPRF averages component-wise.
func MeanPRF(prfs []PRF) PRF {
	if len(prfs) == 0 {
		return PRF{}
	}
	var out PRF
	for _, p := range prfs {
		out.Precision += p.Precision
		out.Recall += p.Recall
		out.F1 += p.F1
		out.TruePositives += p.TruePositives
		out.Hits += p.Hits
	}
	n := float64(len(prfs))
	out.Precision /= n
	out.Recall /= n
	out.F1 /= n
	return out
}
