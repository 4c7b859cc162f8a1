package core

import (
	"math/rand"
	"testing"

	"repro/internal/knn"
	"repro/internal/od"
	"repro/internal/subspace"
	"repro/internal/vector"
)

// testEnv bundles a random dataset with an OD evaluator.
type testEnv struct {
	ds   *vector.Dataset
	eval *od.Evaluator
}

func newTestEnv(t testing.TB, seed int64, n, d, k int) *testEnv {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = make([]float64, d)
		for j := range rows[i] {
			// clustered with occasional spread, so both outcomes occur
			if rng.Float64() < 0.9 {
				rows[i][j] = rng.NormFloat64()
			} else {
				rows[i][j] = rng.NormFloat64() * 6
			}
		}
	}
	ds, err := vector.FromRows(rows)
	if err != nil {
		t.Fatal(err)
	}
	ls, err := knn.NewLinear(ds, vector.L2)
	if err != nil {
		t.Fatal(err)
	}
	eval, err := od.NewEvaluator(ds, ls, vector.L2, k, od.NormNone)
	if err != nil {
		t.Fatal(err)
	}
	return &testEnv{ds: ds, eval: eval}
}

// odOfPoint is OD for dataset row idx, self-excluded.
func odOfPoint(e *od.Evaluator, idx int, s subspace.Mask) float64 {
	return e.OD(e.Dataset().Point(idx), s, idx)
}

// naiveOutlying evaluates OD in every subspace directly — the oracle.
func naiveOutlying(env *testEnv, idx int, T float64) []subspace.Mask {
	var out []subspace.Mask
	subspace.EachAll(env.ds.Dim(), func(s subspace.Mask) bool {
		if odOfPoint(env.eval, idx, s) >= T {
			out = append(out, s)
		}
		return true
	})
	subspace.SortMasks(out)
	return out
}

func masksEqual(a, b []subspace.Mask) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestSearchValidation(t *testing.T) {
	env := newTestEnv(t, 1, 30, 3, 2)
	q := env.eval.NewQueryForPoint(0)
	if _, err := Search(nil, 3, 1, UniformPriors(3), PolicyTSF, nil); err == nil {
		t.Fatal("nil query accepted")
	}
	if _, err := Search(q, 3, 1, UniformPriors(3), Policy(9), nil); err == nil {
		t.Fatal("bad policy accepted")
	}
	if _, err := Search(q, 3, 1, UniformPriors(3), PolicyRandom, nil); err == nil {
		t.Fatal("PolicyRandom without rng accepted")
	}
	if _, err := Search(q, 3, 1, UniformPriors(4), PolicyTSF, nil); err == nil {
		t.Fatal("priors/dim mismatch accepted")
	}
	badPriors := Priors{PUp: []float64{0, 2, 0, 0}, PDown: []float64{0, 0, 0, 1}}
	if _, err := Search(q, 3, 1, badPriors, PolicyTSF, nil); err == nil {
		t.Fatal("invalid priors accepted")
	}
}

// TestSearchMatchesNaiveAllPolicies is the central correctness test:
// every ordering policy must produce exactly the oracle's outlying
// set — the pruning rules change the work, never the answer.
func TestSearchMatchesNaiveAllPolicies(t *testing.T) {
	for _, d := range []int{2, 4, 6} {
		env := newTestEnv(t, int64(d)*17, 60, d, 3)
		uniform := UniformPriors(d)
		for idx := 0; idx < 8; idx++ {
			// A mid-range threshold so both outcomes occur.
			T := odOfPoint(env.eval, idx, subspace.Full(d)) * 0.6
			if T <= 0 {
				continue
			}
			want := naiveOutlying(env, idx, T)
			for _, policy := range []Policy{PolicyTSF, PolicyBottomUp, PolicyTopDown, PolicyRandom} {
				q := env.eval.NewQueryForPoint(idx)
				rng := rand.New(rand.NewSource(5))
				res, err := Search(q, d, T, uniform, policy, rng)
				if err != nil {
					t.Fatal(err)
				}
				if !masksEqual(res.Outlying, want) {
					t.Fatalf("d=%d idx=%d policy=%v: got %d outlying, want %d\n got %v\nwant %v",
						d, idx, policy, len(res.Outlying), len(want), res.Outlying, want)
				}
				// Minimal set must expand back to the full set.
				if !masksEqual(ExpandMinimal(res.Minimal, d), want) {
					t.Fatalf("d=%d idx=%d policy=%v: minimal set loses information", d, idx, policy)
				}
				// Accounting: every subspace settled exactly once.
				c := res.Counters
				if c.Unknown != 0 || c.Evaluations+c.ImpliedUp+c.ImpliedDown != c.Total {
					t.Fatalf("accounting: %+v", c)
				}
			}
		}
	}
}

// TestSearchPrunes: on structured data the search must settle a large
// share of the lattice by implication rather than evaluation.
func TestSearchPrunes(t *testing.T) {
	d := 8
	env := newTestEnv(t, 99, 80, d, 3)
	uniform := UniformPriors(d)
	totalEvals, totalSubspaces := int64(0), int64(0)
	for idx := 0; idx < 10; idx++ {
		T := odOfPoint(env.eval, idx, subspace.Full(d)) * 0.5
		if T <= 0 {
			continue
		}
		q := env.eval.NewQueryForPoint(idx)
		res, err := Search(q, d, T, uniform, PolicyTSF, nil)
		if err != nil {
			t.Fatal(err)
		}
		totalEvals += res.Counters.Evaluations
		totalSubspaces += res.Counters.Total
	}
	if totalEvals >= totalSubspaces {
		t.Fatalf("no pruning: %d evals over %d subspaces", totalEvals, totalSubspaces)
	}
	t.Logf("evaluated %d of %d subspaces (%.1f%%)", totalEvals, totalSubspaces,
		100*float64(totalEvals)/float64(totalSubspaces))
}

// TestSearchExtremeThresholds: T=0 makes every subspace outlying
// (OD ≥ 0 always); a huge T makes none.
func TestSearchExtremeThresholds(t *testing.T) {
	d := 4
	env := newTestEnv(t, 3, 40, d, 2)
	q := env.eval.NewQueryForPoint(0)
	res, err := Search(q, d, 0, UniformPriors(d), PolicyTSF, nil)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(res.Outlying)) != subspace.TotalSubspaces(d) {
		t.Fatalf("T=0: %d outlying, want all %d", len(res.Outlying), subspace.TotalSubspaces(d))
	}
	// All singletons are minimal.
	if len(res.Minimal) != d {
		t.Fatalf("T=0: minimal = %v", res.Minimal)
	}

	q2 := env.eval.NewQueryForPoint(0)
	res2, err := Search(q2, d, 1e18, UniformPriors(d), PolicyTSF, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Outlying) != 0 || len(res2.Minimal) != 0 {
		t.Fatalf("huge T: outlying = %v", res2.Outlying)
	}
	// With a huge T the first downward prune from layer d settles
	// everything below: evaluations should be tiny.
	if res2.Counters.Evaluations > int64(d*d) {
		t.Fatalf("huge T needed %d evaluations", res2.Counters.Evaluations)
	}
}

func TestSearchLayerOrderTSFStartsSensibly(t *testing.T) {
	// With uniform priors on a fresh lattice, TSF is maximised by a
	// middle layer (both DSF and USF substantial), never by layer 1
	// of a tall lattice where USF alone with p_up=1 can win — just
	// assert the order is a permutation-with-repeats covering all
	// layers eventually and the search terminates.
	d := 6
	env := newTestEnv(t, 7, 50, d, 2)
	q := env.eval.NewQueryForPoint(1)
	T := odOfPoint(env.eval, 1, subspace.Full(d)) * 0.6
	res, err := Search(q, d, T, UniformPriors(d), PolicyTSF, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.LayerOrder) == 0 || len(res.LayerOrder) > d {
		t.Fatalf("layer order %v", res.LayerOrder)
	}
	seen := map[int]bool{}
	for _, m := range res.LayerOrder {
		if m < 1 || m > d {
			t.Fatalf("bad layer %d", m)
		}
		if seen[m] {
			t.Fatalf("layer %d explored twice: %v", m, res.LayerOrder)
		}
		seen[m] = true
	}
}

func TestSearchBottomUpTopDownOrders(t *testing.T) {
	d := 5
	env := newTestEnv(t, 21, 50, d, 2)
	T := odOfPoint(env.eval, 0, subspace.Full(d)) * 0.6
	qb := env.eval.NewQueryForPoint(0)
	rb, _ := Search(qb, d, T, UniformPriors(d), PolicyBottomUp, nil)
	for i := 1; i < len(rb.LayerOrder); i++ {
		if rb.LayerOrder[i] <= rb.LayerOrder[i-1] {
			t.Fatalf("bottom-up order not increasing: %v", rb.LayerOrder)
		}
	}
	qt := env.eval.NewQueryForPoint(0)
	rt, _ := Search(qt, d, T, UniformPriors(d), PolicyTopDown, nil)
	for i := 1; i < len(rt.LayerOrder); i++ {
		if rt.LayerOrder[i] >= rt.LayerOrder[i-1] {
			t.Fatalf("top-down order not decreasing: %v", rt.LayerOrder)
		}
	}
}

func TestPriorsFromResult(t *testing.T) {
	d := 3
	env := newTestEnv(t, 31, 40, d, 2)
	q := env.eval.NewQueryForPoint(2)
	T := odOfPoint(env.eval, 2, subspace.Full(d)) * 0.5
	res, err := Search(q, d, T, UniformPriors(d), PolicyTSF, nil)
	if err != nil {
		t.Fatal(err)
	}
	p := PriorsFromResult(res)
	for m := 1; m <= d; m++ {
		if p.PUp[m]+p.PDown[m] != 1 {
			t.Fatalf("layer %d: PUp+PDown = %v", m, p.PUp[m]+p.PDown[m])
		}
		// Cross-check against the oracle count.
		var outliers, total int64
		subspace.EachOfDim(d, m, func(s subspace.Mask) bool {
			total++
			if odOfPoint(env.eval, 2, s) >= T {
				outliers++
			}
			return true
		})
		want := float64(outliers) / float64(total)
		if p.PUp[m] != want {
			t.Fatalf("layer %d: PUp = %v, oracle %v", m, p.PUp[m], want)
		}
	}
}

func TestPolicyStringAndValid(t *testing.T) {
	for _, p := range []Policy{PolicyTSF, PolicyBottomUp, PolicyTopDown, PolicyRandom} {
		if p.String() == "" || !p.Valid() {
			t.Fatalf("policy %d", p)
		}
	}
	if Policy(9).Valid() {
		t.Fatal("bogus policy valid")
	}
}
