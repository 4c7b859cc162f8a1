package core

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/subspace"
	"repro/internal/vector"
)

// plantedDataset builds a clustered dataset with one planted point
// (index 0) that deviates strongly in exactly the dimensions of
// `planted` and sits inside the cluster elsewhere.
func plantedDataset(t testing.TB, seed int64, n, d int, planted subspace.Mask) *vector.Dataset {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = make([]float64, d)
		for j := range rows[i] {
			rows[i][j] = rng.NormFloat64() * 0.5
		}
	}
	planted.EachDim(func(dim int) {
		rows[0][dim] = 25 // far outside the cluster in the planted dims
	})
	ds, err := vector.FromRows(rows)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestNewMinerValidation(t *testing.T) {
	ds := plantedDataset(t, 1, 30, 3, subspace.New(0))
	cases := []Config{
		{K: 0, T: 1},                           // bad K
		{K: 30, T: 1},                          // K ≥ N
		{K: 3, T: -1},                          // no threshold
		{K: 3, T: 1, Metric: vector.Metric(9)}, // bad metric
		{K: 3, TQuantile: 1.5},                 // bad quantile
		{K: 3, T: 1, SampleSize: 31},           // sample > N
		{K: 3, T: 1, Policy: Policy(9)},        // bad policy
		{K: 3, T: 1, Backend: Backend(9)},      // bad backend
	}
	for i, cfg := range cases {
		if _, err := NewMiner(ds, cfg); err == nil {
			t.Errorf("case %d accepted: %+v", i, cfg)
		}
	}
	if _, err := NewMiner(nil, Config{K: 3, T: 1}); err == nil {
		t.Error("nil dataset accepted")
	}
	if _, err := NewMiner(ds, Config{K: 3, T: 1}); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

// TestMinerFindsPlantedSubspace is the end-to-end acceptance test:
// the planted point must be an outlier precisely in subspaces
// involving the planted dimensions, and the minimal result should be
// (a subset of) the planted mask's own sub-lattice.
func TestMinerFindsPlantedSubspace(t *testing.T) {
	planted := subspace.New(1, 3)
	ds := plantedDataset(t, 42, 120, 5, planted)
	m, err := NewMiner(ds, Config{K: 4, TQuantile: 0.95, SampleSize: 10, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Preprocess(); err != nil {
		t.Fatal(err)
	}
	res, err := m.OutlyingSubspacesOfPoint(0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.IsOutlierAnywhere {
		t.Fatal("planted outlier not detected anywhere")
	}
	// Every minimal subspace must involve at least one planted dim:
	// the point is ordinary in all other dims.
	for _, s := range res.Minimal {
		if s.Intersect(planted).IsEmpty() {
			t.Fatalf("minimal subspace %v does not touch planted dims %v", s, planted)
		}
	}
	// The planted mask itself (or a subset of it) must be outlying.
	found := false
	for _, s := range res.Outlying {
		if s.SubsetOf(planted) {
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("no outlying subspace within planted mask %v; minimal = %v", planted, res.Minimal)
	}
}

// TestMinerInlierHasFewOrNoSubspaces: a cluster point should have far
// fewer outlying subspaces than the planted outlier.
func TestMinerInlierVsOutlier(t *testing.T) {
	planted := subspace.New(0, 2)
	ds := plantedDataset(t, 9, 100, 4, planted)
	m, err := NewMiner(ds, Config{K: 4, TQuantile: 0.9, SampleSize: 8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	out, err := m.OutlyingSubspacesOfPoint(0)
	if err != nil {
		t.Fatal(err)
	}
	in, err := m.OutlyingSubspacesOfPoint(50)
	if err != nil {
		t.Fatal(err)
	}
	if len(in.Outlying) >= len(out.Outlying) {
		t.Fatalf("inlier has %d outlying subspaces, outlier %d", len(in.Outlying), len(out.Outlying))
	}
}

func TestMinerExplicitThreshold(t *testing.T) {
	ds := plantedDataset(t, 5, 60, 3, subspace.New(0))
	m, err := NewMiner(ds, Config{K: 3, T: 2.5})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Preprocess(); err != nil {
		t.Fatal(err)
	}
	if m.Threshold() != 2.5 {
		t.Fatalf("threshold = %v", m.Threshold())
	}
}

func TestMinerQuantileThreshold(t *testing.T) {
	ds := plantedDataset(t, 5, 60, 3, subspace.New(0))
	m, err := NewMiner(ds, Config{K: 3, TQuantile: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Preprocess(); err != nil {
		t.Fatal(err)
	}
	if m.Threshold() <= 0 {
		t.Fatalf("resolved threshold = %v", m.Threshold())
	}
}

func TestMinerPreprocessIdempotent(t *testing.T) {
	ds := plantedDataset(t, 5, 60, 3, subspace.New(0))
	m, _ := NewMiner(ds, Config{K: 3, TQuantile: 0.9, SampleSize: 5, Seed: 1})
	if err := m.Preprocess(); err != nil {
		t.Fatal(err)
	}
	st := m.LearnStats()
	if err := m.Preprocess(); err != nil {
		t.Fatal(err)
	}
	st2 := m.LearnStats()
	if st.ODEvaluations != st2.ODEvaluations || st.Samples != st2.Samples {
		t.Fatal("second Preprocess re-ran learning")
	}
}

func TestMinerLearningProducesValidPriors(t *testing.T) {
	ds := plantedDataset(t, 77, 150, 6, subspace.New(2))
	m, err := NewMiner(ds, Config{K: 5, TQuantile: 0.95, SampleSize: 20, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Preprocess(); err != nil {
		t.Fatal(err)
	}
	p := m.Priors()
	if err := p.Validate(); err != nil {
		t.Fatalf("learned priors invalid: %v", err)
	}
	ls := m.LearnStats()
	if ls.Samples != 20 || len(ls.SampledIndices) != 20 {
		t.Fatalf("learn stats: %+v", ls)
	}
	if ls.ODEvaluations <= 0 {
		t.Fatal("learning performed no OD evaluations?")
	}
	// Sampled indices must be distinct and in range.
	seen := map[int]bool{}
	for _, idx := range ls.SampledIndices {
		if idx < 0 || idx >= ds.N() || seen[idx] {
			t.Fatalf("bad sample index %d", idx)
		}
		seen[idx] = true
	}
}

func TestMinerDeterminism(t *testing.T) {
	planted := subspace.New(1)
	ds := plantedDataset(t, 13, 80, 4, planted)
	run := func() []subspace.Mask {
		m, err := NewMiner(ds, Config{K: 3, TQuantile: 0.9, SampleSize: 10, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.OutlyingSubspacesOfPoint(0)
		if err != nil {
			t.Fatal(err)
		}
		return res.Minimal
	}
	a, b := run(), run()
	if !masksEqual(a, b) {
		t.Fatalf("non-deterministic: %v vs %v", a, b)
	}
}

func TestMinerExternalQuery(t *testing.T) {
	ds := plantedDataset(t, 3, 70, 3, subspace.New(0))
	m, _ := NewMiner(ds, Config{K: 3, TQuantile: 0.9, Seed: 2})
	// A point far away in dim 2 only.
	res, err := m.OutlyingSubspaces([]float64{0, 0, 40})
	if err != nil {
		t.Fatal(err)
	}
	if !res.IsOutlierAnywhere {
		t.Fatal("external outlier missed")
	}
	for _, s := range res.Minimal {
		if !s.Contains(2) {
			t.Fatalf("minimal subspace %v should involve dim 2", s)
		}
	}
	if _, err := m.OutlyingSubspaces([]float64{1, 2}); err == nil {
		t.Fatal("dimension mismatch accepted")
	}
	if _, err := m.OutlyingSubspacesOfPoint(-1); err == nil {
		t.Fatal("negative index accepted")
	}
	if _, err := m.OutlyingSubspacesOfPoint(1000); err == nil {
		t.Fatal("out-of-range index accepted")
	}
}

// TestMinerBackendsAgree: linear and X-tree backends must return
// identical results (the index changes cost, never answers).
func TestMinerBackendsAgree(t *testing.T) {
	planted := subspace.New(0, 3)
	ds := plantedDataset(t, 21, 200, 4, planted)
	var results [][]subspace.Mask
	for _, backend := range []Backend{BackendLinear, BackendXTree} {
		m, err := NewMiner(ds, Config{K: 4, T: 8, SampleSize: 6, Seed: 9, Backend: backend})
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.OutlyingSubspacesOfPoint(0)
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, res.Outlying)
	}
	if !masksEqual(results[0], results[1]) {
		t.Fatalf("backends disagree: linear %d vs xtree %d subspaces", len(results[0]), len(results[1]))
	}
}

func TestMinerQueryImplicitPreprocess(t *testing.T) {
	ds := plantedDataset(t, 2, 50, 3, subspace.New(1))
	m, _ := NewMiner(ds, Config{K: 3, TQuantile: 0.9, SampleSize: 4, Seed: 1})
	// Query without explicit Preprocess must work.
	if _, err := m.OutlyingSubspacesOfPoint(0); err != nil {
		t.Fatal(err)
	}
	if m.Threshold() <= 0 {
		t.Fatal("threshold not resolved")
	}
}

func TestBackendString(t *testing.T) {
	for _, b := range []Backend{BackendAuto, BackendLinear, BackendXTree, Backend(9)} {
		if b.String() == "" {
			t.Fatal("empty backend name")
		}
	}
}

// TestPreprocessLearningMatchesRecomputation pins the §3.2 learning
// phase bit for bit: after Preprocess, Priors and LearnStats equal an
// independent recomputation — the sample drawn as the head of a
// Seed-derived permutation, each sample searched by Search on a fresh
// working set with uniform priors and TSF, and the per-sample priors
// averaged and smoothed. Snapshots persist these values, so any drift
// in the search routine's scratch reuse would change saved bytes.
func TestPreprocessLearningMatchesRecomputation(t *testing.T) {
	// Low quantiles make many samples outlying somewhere, so the
	// per-layer fractions the priors average are mostly non-zero.
	for _, cfg := range []Config{
		{K: 4, TQuantile: 0.6, SampleSize: 24, Seed: 2, Backend: BackendLinear},
		{K: 5, TQuantile: 0.7, SampleSize: 30, Seed: 7, Backend: BackendXTree},
		{K: 4, TQuantile: 0.65, SampleSize: 20, Seed: 3, Shards: 2},
	} {
		ds := plantedDataset(t, 71, 160, 6, subspace.New(1, 4))
		m, err := NewMiner(ds, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Preprocess(); err != nil {
			t.Fatal(err)
		}

		eval, err := m.NewWorkerEvaluator()
		if err != nil {
			t.Fatal(err)
		}
		d := ds.Dim()
		sampled := rand.New(rand.NewSource(cfg.Seed)).Perm(ds.N())[:cfg.SampleSize]
		perSample := make([]Priors, 0, len(sampled))
		var evals int64
		for _, idx := range sampled {
			q := eval.NewQueryForPoint(idx)
			res, err := Search(q, d, m.Threshold(), UniformPriors(d), PolicyTSF, nil)
			if err != nil {
				t.Fatal(err)
			}
			perSample = append(perSample, PriorsFromResult(res))
			evals += q.Evaluations()
		}
		want := SmoothPriors(averagePriors(perSample, d), len(perSample))
		outlying := 0
		for _, p := range perSample {
			if p.PUp[d] > 0 {
				outlying++
			}
		}
		if outlying < 2 {
			t.Fatalf("%+v: %d sample(s) outlying anywhere; the priors pin too little", cfg, outlying)
		}

		got := m.Priors()
		if !sameBits(got.PUp, want.PUp) || !sameBits(got.PDown, want.PDown) {
			t.Fatalf("%+v: learned priors %+v, recomputation %+v", cfg, got, want)
		}
		ls := m.LearnStats()
		if ls.Samples != len(sampled) || ls.ODEvaluations != evals || !reflect.DeepEqual(ls.SampledIndices, sampled) {
			t.Fatalf("%+v: LearnStats %+v, recomputation {Samples:%d ODEvaluations:%d SampledIndices:%v}",
				cfg, ls, len(sampled), evals, sampled)
		}
	}
}

// sameBits reports whether a and b hold bit-identical floats.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
