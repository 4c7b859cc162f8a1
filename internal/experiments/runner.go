package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/knn"
	"repro/internal/od"
	"repro/internal/vector"
)

// Scale trades experiment fidelity for runtime.
type Scale uint8

const (
	// Quick shrinks datasets and sweeps so the whole suite runs in
	// seconds (used by tests and -short benches).
	Quick Scale = iota
	// Full uses the DESIGN.md §3 parameters.
	Full
)

// String names the scale.
func (s Scale) String() string {
	if s == Full {
		return "full"
	}
	return "quick"
}

// Runner owns shared experiment parameters. Every experiment is
// deterministic given (Scale, Seed).
type Runner struct {
	Scale Scale
	Seed  int64
	// Shards overrides the shard counts the SH experiment sweeps
	// (nil = scale default; set by hosbench -shards).
	Shards []int
}

// NewRunner builds a Runner.
func NewRunner(scale Scale, seed int64) *Runner { return &Runner{Scale: scale, Seed: seed} }

// pick returns q under Quick and f under Full.
func pickInt(s Scale, q, f int) int {
	if s == Full {
		return f
	}
	return q
}

func pickInts(s Scale, q, f []int) []int {
	if s == Full {
		return f
	}
	return q
}

// ByID runs a single experiment by its DESIGN.md id (e.g. "F3").
func (r *Runner) ByID(id string) (*Table, error) {
	switch id {
	case "T1":
		return r.T1SavingFactors()
	case "F1":
		return r.F1RuntimeVsDim()
	case "F2":
		return r.F2RuntimeVsN()
	case "F3":
		return r.F3PruningPower()
	case "F4":
		return r.F4SampleSize()
	case "F5":
		return r.F5Threshold()
	case "F6":
		return r.F6K()
	case "T2":
		return r.T2Effectiveness()
	case "F7":
		return r.F7VsEvolutionary()
	case "T3":
		return r.T3XTreeKNN()
	case "T4":
		return r.T4FilterReduction()
	case "F8":
		return r.F8OrderingAblation()
	case "T5":
		return r.T5XTreeSplitAblation()
	case "F9":
		return r.F9MetricSweep()
	case "SH":
		return r.SHShardScaling()
	default:
		return nil, fmt.Errorf("experiments: unknown experiment id %q", id)
	}
}

// IDs lists the experiment identifiers in DESIGN.md order.
func IDs() []string {
	return []string{"T1", "F1", "F2", "F3", "F4", "F5", "F6", "T2", "F7", "T3", "T4", "F8", "T5", "F9", "SH"}
}

// --- shared helpers -------------------------------------------------

// syntheticEnv builds a standard planted-outlier dataset with a
// ready evaluator over a linear-scan backend (experiments that study
// the search algorithm want a backend whose cost is flat across
// subspaces; T3 studies the index itself).
type env struct {
	ds    *vector.Dataset
	truth datagen.GroundTruth
	eval  *od.Evaluator
}

func (r *Runner) syntheticEnv(n, d, k, numOutliers int) (*env, error) {
	ds, truth, err := datagen.GenerateSynthetic(datagen.SyntheticConfig{
		N: n, D: d, NumOutliers: numOutliers, Seed: r.Seed,
	})
	if err != nil {
		return nil, err
	}
	ls, err := knn.NewLinear(ds, vector.L2)
	if err != nil {
		return nil, err
	}
	eval, err := od.NewEvaluator(ds, ls, vector.L2, k, od.NormNone)
	if err != nil {
		return nil, err
	}
	return &env{ds: ds, truth: truth, eval: eval}, nil
}

// thresholdQuantile resolves T as a quantile of full-space ODs.
func (e *env) thresholdQuantile(q float64) (float64, error) {
	ods := e.eval.FullSpaceODs()
	return vector.Quantile(ods, q)
}

// queryPoints returns a deterministic mix of planted outliers and
// inliers to average measurements over.
func (e *env) queryPoints(outliers, inliers int) []int {
	var out []int
	for i := 0; i < outliers && i < len(e.truth.Outliers); i++ {
		out = append(out, e.truth.Outliers[i].Index)
	}
	base := len(e.truth.Outliers)
	for i := 0; i < inliers && base+i*7 < e.ds.N(); i++ {
		out = append(out, base+i*7)
	}
	return out
}

// timedSearch runs core.Search for each query and returns (total
// wall time, total OD evaluations, results).
func timedSearch(e *env, queries []int, T float64, priors core.Priors, policy core.Policy) (time.Duration, int64, []*core.SearchResult, error) {
	var total time.Duration
	var evals int64
	var results []*core.SearchResult
	for _, idx := range queries {
		q := e.eval.NewQueryForPoint(idx)
		start := time.Now()
		res, err := core.Search(q, e.ds.Dim(), T, priors, policy, nil)
		if err != nil {
			return 0, 0, nil, err
		}
		total += time.Since(start)
		evals += res.Counters.Evaluations
		results = append(results, res)
	}
	return total, evals, results, nil
}

// learnedPriors runs the §3.2 learning process over `samples` points
// and returns the averaged priors, charging the work to the returned
// evaluation counter.
func learnedPriors(e *env, samples int, T float64) (core.Priors, int64, error) {
	if samples <= 0 {
		return core.UniformPriors(e.ds.Dim()), 0, nil
	}
	d := e.ds.Dim()
	uniform := core.UniformPriors(d)
	var evals int64
	var per []core.Priors
	// Deterministic sample: spread across the dataset, skipping
	// planted outliers (indices < len(truth.Outliers)).
	first := len(e.truth.Outliers)
	step := (e.ds.N() - first) / samples
	if step < 1 {
		step = 1
	}
	for i := 0; i < samples; i++ {
		idx := first + i*step
		if idx >= e.ds.N() {
			idx = e.ds.N() - 1
		}
		q := e.eval.NewQueryForPoint(idx)
		res, err := core.Search(q, d, T, uniform, core.PolicyTSF, nil)
		if err != nil {
			return core.Priors{}, 0, err
		}
		evals += res.Counters.Evaluations
		per = append(per, core.PriorsFromResult(res))
	}
	return core.SmoothPriors(core.AveragePriors(per, d), len(per)), evals, nil
}

func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }
