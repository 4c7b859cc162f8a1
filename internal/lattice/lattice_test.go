package lattice

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/subspace"
)

func newTracker(t *testing.T, d int) *Tracker {
	t.Helper()
	tr, err := NewTracker(d)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestNewTrackerValidation(t *testing.T) {
	if _, err := NewTracker(0); err == nil {
		t.Fatal("d=0 accepted")
	}
	if _, err := NewTracker(subspace.MaxDim + 1); err == nil {
		t.Fatal("d>MaxDim accepted")
	}
	tr := newTracker(t, 5)
	if tr.Dim() != 5 {
		t.Fatalf("Dim = %d", tr.Dim())
	}
	if tr.unknownTotal != subspace.TotalSubspaces(5) {
		t.Fatalf("initial unknown = %d", tr.unknownTotal)
	}
	if tr.Done() {
		t.Fatal("fresh tracker cannot be done")
	}
}

func TestStatusPredicates(t *testing.T) {
	if !OutlierEvaluated.IsOutlier() || !OutlierImplied.IsOutlier() {
		t.Fatal("outlier predicates")
	}
	if !NonOutlierEvaluated.IsNonOutlier() || !NonOutlierImplied.IsNonOutlier() {
		t.Fatal("non-outlier predicates")
	}
	if Unknown.Known() || !OutlierEvaluated.Known() {
		t.Fatal("known predicate")
	}
	for _, s := range []Status{Unknown, OutlierEvaluated, OutlierImplied, NonOutlierEvaluated, NonOutlierImplied, Status(42)} {
		if s.String() == "" {
			t.Fatal("empty String()")
		}
	}
}

func TestMarkOutlierPropagatesUp(t *testing.T) {
	d := 5
	tr := newTracker(t, d)
	s := subspace.New(1, 3)
	tr.MarkOutlier(s, true)
	if tr.Status(s) != OutlierEvaluated {
		t.Fatalf("status(s) = %v", tr.Status(s))
	}
	subspace.Supersets(d, s, func(sup subspace.Mask) bool {
		if tr.Status(sup) != OutlierImplied {
			t.Fatalf("superset %v = %v, want implied outlier", sup, tr.Status(sup))
		}
		return true
	})
	// Unrelated subspaces untouched.
	if tr.Status(subspace.New(0)) != Unknown || tr.Status(subspace.New(2, 4)) != Unknown {
		t.Fatal("unrelated subspaces were touched")
	}
	// Subsets untouched.
	if tr.Status(subspace.New(1)) != Unknown {
		t.Fatal("subset was touched by upward propagation")
	}
}

func TestMarkNonOutlierPropagatesDown(t *testing.T) {
	d := 5
	tr := newTracker(t, d)
	s := subspace.New(0, 2, 4)
	tr.MarkNonOutlier(s, true)
	if tr.Status(s) != NonOutlierEvaluated {
		t.Fatalf("status(s) = %v", tr.Status(s))
	}
	subspace.Subsets(s, func(sub subspace.Mask) bool {
		if tr.Status(sub) != NonOutlierImplied {
			t.Fatalf("subset %v = %v, want implied non-outlier", sub, tr.Status(sub))
		}
		return true
	})
	subspace.Supersets(d, s, func(sup subspace.Mask) bool {
		if tr.Status(sup) != Unknown {
			t.Fatalf("superset %v touched by downward propagation", sup)
		}
		return true
	})
}

func TestIdempotentMarks(t *testing.T) {
	tr := newTracker(t, 4)
	s := subspace.New(1)
	tr.MarkOutlier(s, true)
	before := tr.Counters()
	tr.MarkOutlier(s, true)                // repeat: no-op
	tr.MarkOutlier(subspace.Full(4), true) // already implied: no-op
	after := tr.Counters()
	if before != after {
		t.Fatalf("repeat marks changed counters: %+v -> %+v", before, after)
	}
}

func TestConflictPanics(t *testing.T) {
	tr := newTracker(t, 4)
	tr.MarkOutlier(subspace.New(1), true)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("marking implied-outlier superset non-outlying must panic")
			}
		}()
		tr.MarkNonOutlier(subspace.New(1, 2), true)
	}()

	tr2 := newTracker(t, 4)
	tr2.MarkNonOutlier(subspace.New(0, 1, 2), true)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("marking implied-non-outlier subset outlying must panic")
			}
		}()
		tr2.MarkOutlier(subspace.New(0, 1), true)
	}()
}

func TestOutOfLatticePanics(t *testing.T) {
	tr := newTracker(t, 3)
	for _, bad := range []subspace.Mask{subspace.Empty, subspace.New(3), subspace.New(0, 5)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("mask %v accepted", bad)
				}
			}()
			tr.Status(bad)
		}()
	}
}

func TestLayerCountersAndWorkloads(t *testing.T) {
	d := 4
	tr := newTracker(t, d)
	// initial: layer m has C(4,m) unknowns
	for m := 1; m <= d; m++ {
		if got := tr.UnknownInLayer(m); got != subspace.Binomial(d, m) {
			t.Fatalf("layer %d unknown = %d", m, got)
		}
	}
	if tr.UnknownInLayer(0) != 0 || tr.UnknownInLayer(d+1) != 0 {
		t.Fatal("out-of-range layers must report 0")
	}
	// CdownLeft(3) initially = C(4,1)*1 + C(4,2)*2 = 4 + 12 = 16
	if got := tr.CdownLeft(3); got != 16 {
		t.Fatalf("CdownLeft(3) = %d, want 16", got)
	}
	// CupLeft(3) initially = C(4,4)*4 = 4
	if got := tr.CupLeft(3); got != 4 {
		t.Fatalf("CupLeft(3) = %d, want 4", got)
	}
	// Settle [0] as outlier: supersets of [0] all become implied.
	tr.MarkOutlier(subspace.New(0), true)
	// Layer 1 now has 3 unknowns; layer 2 has C(4,2)-3=3; layer 3 has
	// C(4,3)-3=1; layer 4 has 0.
	wants := []int64{0, 3, 3, 1, 0}
	for m := 1; m <= d; m++ {
		if got := tr.UnknownInLayer(m); got != wants[m] {
			t.Fatalf("after mark, layer %d unknown = %d, want %d", m, got, wants[m])
		}
	}
	if got := tr.CdownLeft(3); got != 3*1+3*2 {
		t.Fatalf("CdownLeft(3) = %d, want 9", got)
	}
	if got := tr.CupLeft(1); got != 3*2+1*3+0*4 {
		t.Fatalf("CupLeft(1) = %d, want 9", got)
	}
}

func TestEachUnknownInLayerSkipsSettledMidIteration(t *testing.T) {
	d := 4
	tr := newTracker(t, d)
	var visited []subspace.Mask
	tr.EachUnknownInLayer(2, func(s subspace.Mask) bool {
		visited = append(visited, s)
		// Settle everything containing dim 3 as outlier via a cheap
		// mark; later 2-dim subspaces containing 3 must be skipped.
		if len(visited) == 1 {
			tr.MarkOutlier(subspace.New(3), true)
		}
		return true
	})
	for i, s := range visited {
		if i > 0 && s.Contains(3) {
			t.Fatalf("visited settled subspace %v", s)
		}
	}
}

func TestDoneAfterFullSettlement(t *testing.T) {
	d := 6
	tr := newTracker(t, d)
	// Marking every singleton non-outlying and the full space outlying
	// is not enough; drive to done by marking every remaining unknown.
	subspace.EachAll(d, func(s subspace.Mask) bool {
		if tr.Status(s) == Unknown {
			if s.Card()%2 == 0 {
				tr.MarkOutlier(s, true)
			} else {
				tr.MarkNonOutlier(s, true)
			}
		}
		return true
	})
	if !tr.Done() || tr.unknownTotal != 0 {
		t.Fatalf("not done: %d unknown", tr.unknownTotal)
	}
	c := tr.Counters()
	if c.Evaluations+c.ImpliedUp+c.ImpliedDown != c.Total {
		t.Fatalf("accounting mismatch: %+v", c)
	}
}

// TestPropagationMatchesBruteForce drives a tracker with a random
// monotone ground-truth (a threshold on a random monotone function)
// and checks that after settling all subspaces, outlier statuses agree
// with the ground truth exactly.
func TestPropagationMatchesBruteForce(t *testing.T) {
	const d = 6
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		// Monotone score: weight per dim, score = sum of weights.
		w := make([]float64, d)
		for i := range w {
			w[i] = rng.Float64()
		}
		threshold := rng.Float64() * 3
		score := func(s subspace.Mask) float64 {
			var sum float64
			s.EachDim(func(dim int) { sum += w[dim] })
			return sum
		}
		isOut := func(s subspace.Mask) bool { return score(s) >= threshold }

		tr := newTracker(t, d)
		// Visit in random order, evaluating only unknowns.
		order := subspace.All(d)
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		evals := 0
		for _, s := range order {
			if tr.Status(s) != Unknown {
				continue
			}
			evals++
			if isOut(s) {
				tr.MarkOutlier(s, true)
			} else {
				tr.MarkNonOutlier(s, true)
			}
		}
		if !tr.Done() {
			t.Fatal("tracker not done after settling all")
		}
		if int64(evals) != tr.Counters().Evaluations {
			t.Fatalf("eval accounting: %d vs %+v", evals, tr.Counters())
		}
		subspace.EachAll(d, func(s subspace.Mask) bool {
			if tr.Status(s).IsOutlier() != isOut(s) {
				t.Fatalf("trial %d: status(%v) = %v, truth outlier=%v",
					trial, s, tr.Status(s), isOut(s))
			}
			return true
		})
		// Pruning must have saved work: evaluated < total unless the
		// truth is pathologically alternating (impossible for monotone
		// truth with d=6 unless threshold puts everything on one side
		// of every chain — still saves via propagation).
		if evals > int(subspace.TotalSubspaces(d)) {
			t.Fatalf("more evals than subspaces: %d", evals)
		}
	}
}

// TestCountersInvariant (property): for any random mark sequence that
// respects monotone truth, Unknown + Evaluations + ImpliedUp +
// ImpliedDown == Total at all times.
func TestCountersInvariant(t *testing.T) {
	f := func(seed int64) bool {
		const d = 5
		rng := rand.New(rand.NewSource(seed))
		w := make([]float64, d)
		for i := range w {
			w[i] = rng.Float64()
		}
		threshold := rng.Float64() * 2.5
		tr, err := NewTracker(d)
		if err != nil {
			return false
		}
		order := subspace.All(d)
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for _, s := range order {
			if tr.Status(s) != Unknown {
				continue
			}
			var sum float64
			s.EachDim(func(dim int) { sum += w[dim] })
			if sum >= threshold {
				tr.MarkOutlier(s, true)
			} else {
				tr.MarkNonOutlier(s, true)
			}
			c := tr.Counters()
			if c.Unknown+c.Evaluations+c.ImpliedUp+c.ImpliedDown != c.Total {
				return false
			}
		}
		return tr.Done()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestOutliersSortedAndComplete(t *testing.T) {
	d := 5
	tr := newTracker(t, d)
	tr.MarkOutlier(subspace.New(1, 2), true)
	tr.MarkOutlier(subspace.New(4), true)
	outs := tr.Outliers()
	seen := map[subspace.Mask]bool{}
	for i, s := range outs {
		if !tr.Status(s).IsOutlier() {
			t.Fatalf("non-outlier %v in Outliers()", s)
		}
		seen[s] = true
		if i > 0 {
			prev := outs[i-1]
			if prev.Card() > s.Card() || (prev.Card() == s.Card() && prev >= s) {
				t.Fatal("Outliers not canonically sorted")
			}
		}
	}
	subspace.EachAll(d, func(s subspace.Mask) bool {
		if tr.Status(s).IsOutlier() && !seen[s] {
			t.Fatalf("outlier %v missing from Outliers()", s)
		}
		return true
	})
	perLayer := map[int]int{}
	for _, s := range outs {
		perLayer[s.Card()]++
	}
	if got := perLayer[1]; got != 1 {
		t.Fatalf("layer-1 outliers = %d, want 1 ([4])", got)
	}
	// Layer 2: supersets of [4] are C(4,1)=4 many 2-dim subspaces, plus
	// the evaluated [1,2] = 5.
	if got := perLayer[2]; got != 5 {
		t.Fatalf("layer-2 outliers = %d, want 5", got)
	}
}
