package experiments

import (
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/knn"
	"repro/internal/metrics"
	"repro/internal/od"
	"repro/internal/subspace"
	"repro/internal/vector"
	"repro/internal/xtree"
)

// T5XTreeSplitAblation isolates the X-tree's contribution over a
// plain R*-style tree: with MaxOverlapFraction = 1 every topological
// split is accepted (no overlap-minimal splits, no supernodes) —
// exactly the degenerate configuration the X-tree paper argues
// against in high dimensions. Expected shape: on high-dimensional
// data the X-tree policy yields fewer points examined per k-NN query
// than the overlap-tolerant tree.
func (r *Runner) T5XTreeSplitAblation() (*Table, error) {
	n := pickInt(r.Scale, 2000, 8000)
	dims := pickInts(r.Scale, []int{6, 10}, []int{6, 10, 14, 18})
	k := 5
	queriesPerRun := pickInt(r.Scale, 20, 100)
	t := &Table{
		ID:    "T5",
		Title: "X-tree split policy vs R*-style splits (overlap-tolerant ablation)",
		Header: []string{"d", "data", "xtree_pts", "rstar_pts", "xtree_supernodes",
			"xtree_nodes", "rstar_nodes"},
	}
	rstarCfg := xtree.DefaultConfig()
	rstarCfg.MaxOverlapFraction = 1.0 // accept any split → no supernodes

	for _, d := range dims {
		clustered, _, err := datagen.GenerateSynthetic(datagen.SyntheticConfig{
			N: n, D: d, NumOutliers: 1, Seed: r.Seed,
		})
		if err != nil {
			return nil, err
		}
		uniform, err := datagen.GenerateUniform(n, d, r.Seed)
		if err != nil {
			return nil, err
		}
		for _, data := range []struct {
			name string
			ds   *vector.Dataset
		}{{"clustered", clustered}, {"uniform", uniform}} {
			xt, err := xtree.Build(data.ds, vector.L2, xtree.DefaultConfig())
			if err != nil {
				return nil, err
			}
			rt, err := xtree.Build(data.ds, vector.L2, rstarCfg)
			if err != nil {
				return nil, err
			}
			xs, rs := xtree.NewSearcher(xt), xtree.NewSearcher(rt)
			full := subspace.Full(d)
			for qi := 0; qi < queriesPerRun; qi++ {
				idx := (qi * 31) % n
				xs.KNN(data.ds.Point(idx), full, k, idx)
				rs.KNN(data.ds.Point(idx), full, k, idx)
			}
			t.AddRow(d, data.name,
				float64(xs.Stats().PointsExamined)/float64(queriesPerRun),
				float64(rs.Stats().PointsExamined)/float64(queriesPerRun),
				xt.SupernodeCount(), xt.NodeCount(), rt.NodeCount())
		}
	}
	t.Notes = append(t.Notes,
		"rstar = same tree with MaxOverlapFraction=1 (all topological splits accepted, no supernodes)",
		"expected shape: the X-tree policy's advantage appears on high-d data where directory overlap hurts",
	)
	return t, nil
}

// F9MetricSweep runs the full pipeline under L1, L2 and L∞. OD
// monotonicity (and hence exactness) holds for every L_p metric;
// expected shape: recall stays high across metrics, costs are
// comparable, absolute T values differ by metric scale.
func (r *Runner) F9MetricSweep() (*Table, error) {
	n := pickInt(r.Scale, 400, 1500)
	d := pickInt(r.Scale, 6, 10)
	t := &Table{
		ID:     "F9",
		Title:  "Distance metric sweep (L1 / L2 / LInf)",
		Header: []string{"metric", "T(q95)", "avg_evals", "avg_minimal", "recall_subset"},
	}
	ds, truth, err := datagen.GenerateSynthetic(datagen.SyntheticConfig{
		N: n, D: d, NumOutliers: 3, Seed: r.Seed,
	})
	if err != nil {
		return nil, err
	}
	for _, metric := range []vector.Metric{vector.L1, vector.L2, vector.LInf} {
		ls, err := knn.NewLinear(ds, metric)
		if err != nil {
			return nil, err
		}
		eval, err := od.NewEvaluator(ds, ls, metric, 5, od.NormNone)
		if err != nil {
			return nil, err
		}
		e := &env{ds: ds, truth: truth, eval: eval}
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
			if truthMask, ok := truth.ByIndex(idx); ok {
				prfs = append(prfs, metrics.Score(results[qi].Minimal,
					[]subspace.Mask{truthMask}, metrics.MatchSubset))
			}
		}
		nq := float64(len(queries))
		t.AddRow(metric.String(), T, float64(evals)/nq, float64(minimal)/nq,
			metrics.MeanPRF(prfs).Recall)
	}
	t.Notes = append(t.Notes,
		"OD monotonicity holds for every L_p metric, so all three searches are exact; only scales differ",
	)
	return t, nil
}
