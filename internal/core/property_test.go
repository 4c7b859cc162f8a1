package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/knn"
	"repro/internal/od"
	"repro/internal/subspace"
	"repro/internal/vector"
)

// TestOutlyingSetMonotoneInT (property): raising the threshold can
// only shrink the outlying set, and the result at any T equals the
// oracle regardless of policy.
func TestOutlyingSetMonotoneInT(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n, d := 40+rng.Intn(40), 2+rng.Intn(4)
		rows := make([][]float64, n)
		for i := range rows {
			rows[i] = make([]float64, d)
			for j := range rows[i] {
				rows[i][j] = rng.NormFloat64() * (1 + 4*rng.Float64())
			}
		}
		ds, err := vector.FromRows(rows)
		if err != nil {
			return false
		}
		ls, err := knn.NewLinear(ds, vector.L2)
		if err != nil {
			return false
		}
		eval, err := od.NewEvaluator(ds, ls, vector.L2, 2+rng.Intn(4), od.NormNone)
		if err != nil {
			return false
		}
		idx := rng.Intn(n)
		base := odOfPoint(eval, idx, subspace.Full(d))
		if base <= 0 {
			return true
		}
		uniform := UniformPriors(d)
		lowT, highT := base*0.4, base*0.9
		qLow := eval.NewQueryForPoint(idx)
		resLow, err := Search(qLow, d, lowT, uniform, PolicyTSF, nil)
		if err != nil {
			return false
		}
		qHigh := eval.NewQueryForPoint(idx)
		resHigh, err := Search(qHigh, d, highT, uniform, PolicyTSF, nil)
		if err != nil {
			return false
		}
		// Monotonicity of the result set: high-T set ⊆ low-T set.
		lowSet := make(map[subspace.Mask]bool, len(resLow.Outlying))
		for _, s := range resLow.Outlying {
			lowSet[s] = true
		}
		for _, s := range resHigh.Outlying {
			if !lowSet[s] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestMinimalSetIsAntichainAndGenerates (property): on real search
// results the minimal set is an antichain whose upward closure is
// exactly the outlying set.
func TestMinimalSetIsAntichainAndGenerates(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n, d := 50+rng.Intn(30), 3+rng.Intn(3)
		rows := make([][]float64, n)
		for i := range rows {
			rows[i] = make([]float64, d)
			for j := range rows[i] {
				rows[i][j] = rng.NormFloat64()
			}
		}
		// One displaced point to guarantee non-trivial results.
		rows[0][rng.Intn(d)] += 30
		ds, err := vector.FromRows(rows)
		if err != nil {
			return false
		}
		ls, _ := knn.NewLinear(ds, vector.L2)
		eval, err := od.NewEvaluator(ds, ls, vector.L2, 3, od.NormNone)
		if err != nil {
			return false
		}
		T := odOfPoint(eval, 0, subspace.Full(d)) * 0.5
		if T <= 0 {
			return true
		}
		q := eval.NewQueryForPoint(0)
		res, err := Search(q, d, T, UniformPriors(d), PolicyTSF, nil)
		if err != nil {
			return false
		}
		// Antichain.
		for i, a := range res.Minimal {
			for j, b := range res.Minimal {
				if i != j && a.SubsetOf(b) {
					return false
				}
			}
		}
		// Upward closure reproduces Outlying exactly.
		expanded := ExpandMinimal(res.Minimal, d)
		if len(expanded) != len(res.Outlying) {
			return false
		}
		for i := range expanded {
			if expanded[i] != res.Outlying[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestSmoothPriorsProperties: smoothing keeps probabilities in (0,1)
// on interior layers, preserves boundary conventions, converges to
// the raw priors as S grows, and always validates.
func TestSmoothPriorsProperties(t *testing.T) {
	f := func(rawSeed int64, sRaw uint8) bool {
		rng := rand.New(rand.NewSource(rawSeed))
		d := 2 + rng.Intn(10)
		samples := 1 + int(sRaw%64)
		p := Priors{PUp: make([]float64, d+1), PDown: make([]float64, d+1)}
		for m := 1; m <= d; m++ {
			p.PUp[m] = rng.Float64()
			p.PDown[m] = 1 - p.PUp[m]
		}
		p.PDown[1], p.PUp[d] = 0, 0
		sm := SmoothPriors(p, samples)
		if err := sm.Validate(); err != nil {
			return false
		}
		for m := 2; m < d; m++ {
			if sm.PUp[m] <= 0 || sm.PUp[m] >= 1 {
				return false
			}
			// Shrinkage moves toward 0.5 and stays within
			// 1/(2(S+1)) of the raw value.
			if diff := sm.PUp[m] - p.PUp[m]; diff > 0.5/float64(samples+1)+1e-12 || diff < -0.5/float64(samples+1)-1e-12 {
				return false
			}
		}
		return sm.PDown[1] == 0 && sm.PUp[d] == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSmoothPriorsDegenerate(t *testing.T) {
	// d = 1: single layer, no pruning either way.
	sm := SmoothPriors(UniformPriors(1), 5)
	if sm.PUp[1] != 0 || sm.PDown[1] != 0 {
		t.Fatalf("d=1 smoothing: %+v", sm)
	}
	if err := sm.Validate(); err != nil {
		t.Fatal(err)
	}
}
