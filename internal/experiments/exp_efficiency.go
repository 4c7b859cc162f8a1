package experiments

import (
	"time"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/subspace"
)

// F1RuntimeVsDim measures query cost versus dimensionality for
// HOS-Miner (TSF-ordered pruned search, learned priors) against the
// naive exhaustive search and the fixed-order pruned ablations.
// Expected shape: naive grows ~2^d; all pruned searches grow far
// slower, with TSF ≤ fixed orders on evaluations.
func (r *Runner) F1RuntimeVsDim() (*Table, error) {
	dims := pickInts(r.Scale, []int{4, 6, 8}, []int{4, 6, 8, 10, 12, 14})
	n := pickInt(r.Scale, 400, 2000)
	naiveCap := pickInt(r.Scale, 8, 12) // naive is exponential; cap it
	k := 5
	t := &Table{
		ID:    "F1",
		Title: "Query cost vs dimensionality d (HOS-Miner vs naive vs fixed orders)",
		Header: []string{"d", "total_subspaces",
			"hos_ms", "hos_evals", "naive_ms", "naive_evals",
			"bottomup_evals", "topdown_evals"},
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
		queries := e.queryPoints(3, 3)
		priors, _, err := learnedPriors(e, pickInt(r.Scale, 6, 16), T)
		if err != nil {
			return nil, err
		}
		hosTime, hosEvals, _, err := timedSearch(e, queries, T, priors, core.PolicyTSF)
		if err != nil {
			return nil, err
		}
		uniform := core.UniformPriors(d)
		_, buEvals, _, err := timedSearch(e, queries, T, uniform, core.PolicyBottomUp)
		if err != nil {
			return nil, err
		}
		_, tdEvals, _, err := timedSearch(e, queries, T, uniform, core.PolicyTopDown)
		if err != nil {
			return nil, err
		}
		naiveMs, naiveEvals := "-", "-"
		if d <= naiveCap {
			var naiveTime time.Duration
			var evals int64
			for _, idx := range queries {
				start := time.Now()
				res, err := baseline.NaiveSearch(e.eval, e.ds.Point(idx), idx, T)
				if err != nil {
					return nil, err
				}
				naiveTime += time.Since(start)
				evals += res.Evaluations
			}
			naiveMs = formatFloat(ms(naiveTime) / float64(len(queries)))
			naiveEvals = formatFloat(float64(evals) / float64(len(queries)))
		}
		q := float64(len(queries))
		t.AddRow(d, subspace.TotalSubspaces(d),
			ms(hosTime)/q, float64(hosEvals)/q, naiveMs, naiveEvals,
			float64(buEvals)/q, float64(tdEvals)/q)
	}
	t.Notes = append(t.Notes,
		"naive evals = 2^d - 1 always; '-' marks naive skipped (exponential cost)",
		"expected shape: hos_evals grows far slower than total_subspaces",
	)
	return t, nil
}

// F2RuntimeVsN measures query cost versus dataset size at fixed d.
// Expected shape: evaluations stay roughly flat (the lattice does not
// grow), per-evaluation cost grows with N, so total time ~ linear.
func (r *Runner) F2RuntimeVsN() (*Table, error) {
	sizes := pickInts(r.Scale, []int{200, 400, 800}, []int{500, 1000, 2000, 4000, 8000})
	d := pickInt(r.Scale, 6, 10)
	k := 5
	t := &Table{
		ID:     "F2",
		Title:  "Query cost vs dataset size N (fixed d)",
		Header: []string{"N", "d", "hos_ms", "hos_evals", "ms_per_eval"},
	}
	for _, n := range sizes {
		e, err := r.syntheticEnv(n, d, k, 3)
		if err != nil {
			return nil, err
		}
		T, err := e.thresholdQuantile(0.95)
		if err != nil {
			return nil, err
		}
		queries := e.queryPoints(2, 2)
		priors, _, err := learnedPriors(e, pickInt(r.Scale, 4, 10), T)
		if err != nil {
			return nil, err
		}
		total, evals, _, err := timedSearch(e, queries, T, priors, core.PolicyTSF)
		if err != nil {
			return nil, err
		}
		q := float64(len(queries))
		perEval := 0.0
		if evals > 0 {
			perEval = ms(total) / float64(evals)
		}
		t.AddRow(n, d, ms(total)/q, float64(evals)/q, perEval)
	}
	t.Notes = append(t.Notes,
		"expected shape: evals ~ flat in N; ms_per_eval grows ~ linearly with N (linear-scan k-NN)",
	)
	return t, nil
}

// F3PruningPower decomposes how the lattice gets settled: direct OD
// evaluation vs upward/downward implication, per dimensionality.
func (r *Runner) F3PruningPower() (*Table, error) {
	dims := pickInts(r.Scale, []int{4, 6, 8}, []int{4, 6, 8, 10, 12, 14, 16})
	n := pickInt(r.Scale, 400, 1500)
	k := 5
	t := &Table{
		ID:    "F3",
		Title: "Pruning power vs d: how subspaces get settled",
		Header: []string{"d", "total", "evaluated", "implied_up", "implied_down",
			"evaluated_frac"},
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
		queries := e.queryPoints(3, 3)
		priors, _, err := learnedPriors(e, pickInt(r.Scale, 4, 12), T)
		if err != nil {
			return nil, err
		}
		_, _, results, err := timedSearch(e, queries, T, priors, core.PolicyTSF)
		if err != nil {
			return nil, err
		}
		var c struct{ total, eval, up, down int64 }
		for _, res := range results {
			c.total += res.Counters.Total
			c.eval += res.Counters.Evaluations
			c.up += res.Counters.ImpliedUp
			c.down += res.Counters.ImpliedDown
		}
		q := int64(len(results))
		t.AddRow(d, c.total/q, c.eval/q, c.up/q, c.down/q,
			float64(c.eval)/float64(c.total))
	}
	t.Notes = append(t.Notes,
		"expected shape: evaluated_frac falls as d grows — pruning settles an increasing share of the lattice",
	)
	return t, nil
}

// F8OrderingAblation compares the four layer-ordering policies on
// identical queries with identical priors: the TSF order should need
// no more evaluations than fixed or random orders on average.
func (r *Runner) F8OrderingAblation() (*Table, error) {
	d := pickInt(r.Scale, 8, 12)
	n := pickInt(r.Scale, 400, 1500)
	k := 5
	t := &Table{
		ID:     "F8",
		Title:  "Layer-ordering ablation (same queries, same priors)",
		Header: []string{"policy", "avg_evals", "avg_implied_up", "avg_implied_down", "avg_ms"},
	}
	e, err := r.syntheticEnv(n, d, k, 3)
	if err != nil {
		return nil, err
	}
	T, err := e.thresholdQuantile(0.95)
	if err != nil {
		return nil, err
	}
	queries := e.queryPoints(3, 5)
	priors, _, err := learnedPriors(e, pickInt(r.Scale, 6, 16), T)
	if err != nil {
		return nil, err
	}
	uniform := core.UniformPriors(d)
	variants := []struct {
		label  string
		policy core.Policy
		priors core.Priors
	}{
		{"tsf(learned)", core.PolicyTSF, priors},
		{"tsf(uniform)", core.PolicyTSF, uniform},
		{"bottom-up", core.PolicyBottomUp, uniform},
		{"top-down", core.PolicyTopDown, uniform},
		{"random", core.PolicyRandom, uniform},
	}
	for _, v := range variants {
		var evals, up, down int64
		var total time.Duration
		for _, idx := range queries {
			q := e.eval.NewQueryForPoint(idx)
			rng := newRng(r.Seed)
			start := time.Now()
			res, err := core.Search(q, d, T, v.priors, v.policy, rng)
			if err != nil {
				return nil, err
			}
			total += time.Since(start)
			evals += res.Counters.Evaluations
			up += res.Counters.ImpliedUp
			down += res.Counters.ImpliedDown
		}
		q := float64(len(queries))
		t.AddRow(v.label, float64(evals)/q, float64(up)/q, float64(down)/q, ms(total)/q)
	}
	t.Notes = append(t.Notes,
		"all variants return identical answer sets (validated by tests); only work differs",
		"learned priors specialise the order to typical (inlying) points; uniform priors alternate top/bottom and are robust for outlier-heavy query mixes — see EXPERIMENTS.md",
	)
	return t, nil
}
