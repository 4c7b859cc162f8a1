package experiments

import (
	"math/rand"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/subspace"
)

func newRng(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// F4SampleSize studies the §3.2 learning process: how the number of
// sample points affects (a) learning cost, (b) query cost with the
// learned priors, (c) result quality. Expected shape: learned priors
// reduce query evaluations versus S=0 (uniform priors), with
// diminishing returns in S; answers never change (pruning is exact).
func (r *Runner) F4SampleSize() (*Table, error) {
	d := pickInt(r.Scale, 8, 12)
	n := pickInt(r.Scale, 400, 1500)
	k := 5
	samples := pickInts(r.Scale, []int{0, 4, 16}, []int{0, 4, 16, 64})
	t := &Table{
		ID:     "F4",
		Title:  "Effect of learning sample size S (§3.2)",
		Header: []string{"S", "learn_evals", "query_evals", "query_ms", "recall_subset"},
	}
	e, err := r.syntheticEnv(n, d, k, 3)
	if err != nil {
		return nil, err
	}
	T, err := e.thresholdQuantile(0.95)
	if err != nil {
		return nil, err
	}
	queries := e.queryPoints(3, 3)
	for _, s := range samples {
		priors, learnEvals, err := learnedPriors(e, s, T)
		if err != nil {
			return nil, err
		}
		total, evals, results, err := timedSearch(e, queries, T, priors, core.PolicyTSF)
		if err != nil {
			return nil, err
		}
		// Recall of planted subspaces over the outlier queries.
		var prfs []metrics.PRF
		for qi, idx := range queries {
			if truthMask, ok := e.truth.ByIndex(idx); ok {
				prfs = append(prfs, metrics.Score(results[qi].Minimal,
					[]subspace.Mask{truthMask}, metrics.MatchSubset))
			}
		}
		q := float64(len(queries))
		t.AddRow(s, learnEvals, float64(evals)/q, ms(total)/q, metrics.MeanPRF(prfs).Recall)
	}
	t.Notes = append(t.Notes,
		"S=0 means uniform priors; learning changes only the search order, never the answers",
	)
	return t, nil
}

// F5Threshold sweeps the outlying-degree threshold T (as a quantile
// of the full-space OD distribution). Expected shape: higher T →
// fewer outlying subspaces and fewer minimal subspaces; cost varies
// as pruning directions trade off.
func (r *Runner) F5Threshold() (*Table, error) {
	d := pickInt(r.Scale, 8, 10)
	n := pickInt(r.Scale, 400, 1500)
	k := 5
	quantiles := []float64{0.8, 0.9, 0.95, 0.99}
	t := &Table{
		ID:     "F5",
		Title:  "Effect of threshold T (quantile of full-space OD)",
		Header: []string{"quantile", "T", "avg_outlying", "avg_minimal", "avg_evals"},
	}
	e, err := r.syntheticEnv(n, d, k, 3)
	if err != nil {
		return nil, err
	}
	queries := e.queryPoints(3, 3)
	for _, q := range quantiles {
		T, err := e.thresholdQuantile(q)
		if err != nil {
			return nil, err
		}
		priors, _, err := learnedPriors(e, pickInt(r.Scale, 4, 12), T)
		if err != nil {
			return nil, err
		}
		_, evals, results, err := timedSearch(e, queries, T, priors, core.PolicyTSF)
		if err != nil {
			return nil, err
		}
		var outlying, minimal int
		for _, res := range results {
			outlying += len(res.Outlying)
			minimal += len(res.Minimal)
		}
		nq := float64(len(queries))
		t.AddRow(q, T, float64(outlying)/nq, float64(minimal)/nq, float64(evals)/nq)
	}
	t.Notes = append(t.Notes,
		"expected shape: avg_outlying and avg_minimal fall monotonically as the quantile rises",
	)
	return t, nil
}

// F6K sweeps the neighbourhood size k of the OD measure. Expected
// shape: OD values (and hence a fixed-quantile T) grow with k; the
// planted outliers stay detected across the sweep.
func (r *Runner) F6K() (*Table, error) {
	d := pickInt(r.Scale, 6, 10)
	n := pickInt(r.Scale, 400, 1500)
	ks := pickInts(r.Scale, []int{1, 5, 10}, []int{1, 3, 5, 10, 20})
	t := &Table{
		ID:     "F6",
		Title:  "Effect of neighbourhood size k (§2)",
		Header: []string{"k", "T(q95)", "avg_evals", "avg_minimal", "recall_subset"},
	}
	for _, k := range ks {
		e, err := r.syntheticEnv(n, d, k, 3)
		if err != nil {
			return nil, err
		}
		T, err := e.thresholdQuantile(0.95)
		if err != nil {
			return nil, err
		}
		queries := e.queryPoints(3, 3)
		priors, _, err := learnedPriors(e, pickInt(r.Scale, 4, 10), T)
		if err != nil {
			return nil, err
		}
		_, evals, results, err := timedSearch(e, queries, T, priors, core.PolicyTSF)
		if err != nil {
			return nil, err
		}
		var minimal int
		var prfs []metrics.PRF
		for qi, idx := range queries {
			minimal += len(results[qi].Minimal)
			if truthMask, ok := e.truth.ByIndex(idx); ok {
				prfs = append(prfs, metrics.Score(results[qi].Minimal,
					[]subspace.Mask{truthMask}, metrics.MatchSubset))
			}
		}
		nq := float64(len(queries))
		t.AddRow(k, T, float64(evals)/nq, float64(minimal)/nq, metrics.MeanPRF(prfs).Recall)
	}
	t.Notes = append(t.Notes,
		"T is re-resolved per k (OD sums grow with k); recall should stay high across the sweep",
	)
	return t, nil
}

// T4FilterReduction quantifies the §3.4 refinement: raw outlying
// subspaces versus the minimal set actually returned to the user.
func (r *Runner) T4FilterReduction() (*Table, error) {
	dims := pickInts(r.Scale, []int{4, 6, 8}, []int{6, 8, 10, 12})
	n := pickInt(r.Scale, 400, 1500)
	k := 5
	t := &Table{
		ID:     "T4",
		Title:  "Result refinement (§3.4): raw outlying vs minimal subspaces",
		Header: []string{"d", "avg_outlying", "avg_minimal", "reduction_factor"},
	}
	for _, d := range dims {
		e, err := r.syntheticEnv(n, d, k, 3)
		if err != nil {
			return nil, err
		}
		T, err := e.thresholdQuantile(0.95)
		if err != nil {
			return nil, err
		}
		queries := e.queryPoints(3, 0) // outliers only: inliers have empty sets
		priors, _, err := learnedPriors(e, pickInt(r.Scale, 4, 10), T)
		if err != nil {
			return nil, err
		}
		_, _, results, err := timedSearch(e, queries, T, priors, core.PolicyTSF)
		if err != nil {
			return nil, err
		}
		var outlying, minimal int
		for _, res := range results {
			outlying += len(res.Outlying)
			minimal += len(res.Minimal)
		}
		nq := float64(len(queries))
		red := 0.0
		if minimal > 0 {
			red = float64(outlying) / float64(minimal)
		}
		t.AddRow(d, float64(outlying)/nq, float64(minimal)/nq, red)
	}
	t.Notes = append(t.Notes,
		"expected shape: reduction factor grows quickly with d (superset tails dominate the raw set)",
	)
	return t, nil
}
