package core

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/lattice"
	"repro/internal/od"
	"repro/internal/subspace"
)

// Policy selects the layer-ordering strategy of the dynamic subspace
// search. PolicyTSF is the paper's algorithm; the others are the
// ablation baselines used by experiment F8.
type Policy uint8

const (
	// PolicyTSF explores, at every step, the layer with the highest
	// Total Saving Factor (§3.3).
	PolicyTSF Policy = iota
	// PolicyBottomUp sweeps layers 1..d (Apriori-style).
	PolicyBottomUp
	// PolicyTopDown sweeps layers d..1.
	PolicyTopDown
	// PolicyRandom picks a uniformly random unexplored layer each
	// step.
	PolicyRandom
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case PolicyTSF:
		return "tsf"
	case PolicyBottomUp:
		return "bottom-up"
	case PolicyTopDown:
		return "top-down"
	case PolicyRandom:
		return "random"
	default:
		return fmt.Sprintf("Policy(%d)", uint8(p))
	}
}

// Valid reports whether p is a defined policy.
func (p Policy) Valid() bool { return p <= PolicyRandom }

// SearchResult is the outcome of one dynamic subspace search.
type SearchResult struct {
	// Outlying is every subspace in which the query point is an
	// outlier (evaluated or implied by upward pruning), canonically
	// sorted.
	Outlying []subspace.Mask
	// Minimal is Outlying after the §3.4 refinement filter: only the
	// lowest-dimensional outlying subspaces, no returned subspace a
	// superset of another.
	Minimal []subspace.Mask
	// Counters is the lattice work accounting (evaluations vs
	// pruning-implied settlements).
	Counters lattice.Counters
	// LayerOrder records the sequence of layers the search explored.
	LayerOrder []int
	// PerLayerOutlierFrac[m] is the fraction of m-dimensional
	// subspaces found outlying — the quantity the learning process
	// aggregates into priors.
	PerLayerOutlierFrac []float64
}

// Search runs the dynamic subspace search for one query against the
// given OD oracle, on a fresh working set, so the returned result
// owns its slices and may be retained indefinitely. It is the
// reference form of the Miner's search routine, which runs the same
// searchInto on an evaluator's resident scratch instead.
//
//	q       OD oracle for the query point
//	d       dimensionality of the full space
//	T       the paper's global distance threshold
//	priors  pruning probabilities (uniform for sample points, learned
//	        for query points)
//	policy  layer ordering (PolicyTSF for HOS-Miner proper)
//	rng     used only by PolicyRandom (may be nil otherwise)
func Search(q *od.Query, d int, T float64, priors Priors, policy Policy, rng *rand.Rand) (*SearchResult, error) {
	sc := &searchScratch{}
	if err := searchInto(context.Background(), sc, q, d, T, priors, policy, rng); err != nil {
		return nil, err
	}
	res := sc.sres
	return &res, nil
}

// searchCtxStride is how many OD evaluations a layer sweep performs
// between context checks. Each evaluation is a full k-NN search
// (O(N·d) at least), so the check overhead is negligible while
// cancellation latency stays bounded by a handful of evaluations.
const searchCtxStride = 16

// searchScratch is the reusable working set of one evaluator's
// dynamic searches: the lattice tracker (Reset per query instead of a
// fresh 2^d status array), the result buffers the SearchResult fields
// alias, and the QueryResult the search routine hands out.
// Ownership rule: everything in here is valid until the next search
// on the same scratch; results that outlive it must be cloned
// (QueryResult.Clone) or copied into a caller-owned arena (QueryBatch,
// ScanAll).
type searchScratch struct {
	tracker *lattice.Tracker

	outBuf   []subspace.Mask // backs sres.Outlying
	minBuf   []subspace.Mask // backs sres.Minimal
	layerBuf []int           // backs sres.LayerOrder
	fracBuf  []float64       // backs sres.PerLayerOutlierFrac

	sres SearchResult
	qres QueryResult
}

// searchInto runs the dynamic subspace search into sc, filling
// sc.sres with slices that alias the scratch buffers. It is the
// engine behind both Search (fresh scratch per call) and the Miner's
// search routine (per-evaluator scratch). Cancellation is cooperative:
// ctx is checked before every layer and every searchCtxStride OD
// evaluations within a layer, so an abandoned caller stops paying
// mid-point; on cancellation it returns ctx.Err().
func searchInto(ctx context.Context, sc *searchScratch, q *od.Query, d int, T float64, priors Priors, policy Policy, rng *rand.Rand) error {
	if q == nil {
		return fmt.Errorf("core: nil query")
	}
	if !policy.Valid() {
		return fmt.Errorf("core: invalid policy %v", policy)
	}
	if policy == PolicyRandom && rng == nil {
		return fmt.Errorf("core: PolicyRandom requires an rng")
	}
	if err := priors.Validate(); err != nil {
		return err
	}
	if priors.Dim() != d {
		return fmt.Errorf("core: priors built for d=%d, search dimensionality %d", priors.Dim(), d)
	}
	if sc.tracker == nil || sc.tracker.Dim() != d {
		tr, err := lattice.NewTracker(d)
		if err != nil {
			return err
		}
		sc.tracker = tr
	} else {
		sc.tracker.Reset()
	}
	tr := sc.tracker

	sc.layerBuf = sc.layerBuf[:0]
	for !tr.Done() {
		if err := ctx.Err(); err != nil {
			return err
		}
		m, ok := nextLayer(tr, priors, policy, rng)
		if !ok {
			break // defensive: cannot happen while !Done
		}
		sc.layerBuf = append(sc.layerBuf, m)
		var ctxErr error
		evals := 0
		tr.EachUnknownInLayer(m, func(s subspace.Mask) bool {
			if evals%searchCtxStride == 0 {
				if err := ctx.Err(); err != nil {
					ctxErr = err
					return false
				}
			}
			evals++
			if q.OD(s) >= T {
				tr.MarkOutlier(s, true)
			} else {
				tr.MarkNonOutlier(s, true)
			}
			return true
		})
		if ctxErr != nil {
			return ctxErr
		}
	}

	// Fill the result from the tracker, preserving the historical
	// slice shapes: Outlying is always non-nil, Minimal is nil exactly
	// when nothing is outlying.
	if sc.outBuf == nil {
		sc.outBuf = make([]subspace.Mask, 0, 16)
	}
	sc.outBuf = tr.AppendOutliers(sc.outBuf[:0])
	sc.minBuf = appendMinimalSorted(sc.minBuf[:0], sc.outBuf)
	if cap(sc.fracBuf) < d+1 {
		sc.fracBuf = make([]float64, d+1)
	}
	sc.fracBuf = sc.fracBuf[:d+1]
	clear(sc.fracBuf)
	for _, s := range sc.outBuf {
		sc.fracBuf[s.Card()]++
	}
	for m := 1; m <= d; m++ {
		sc.fracBuf[m] /= float64(subspace.Binomial(d, m))
	}

	sc.sres = SearchResult{
		Outlying:            sc.outBuf,
		Counters:            tr.Counters(),
		LayerOrder:          sc.layerBuf,
		PerLayerOutlierFrac: sc.fracBuf,
	}
	if len(sc.outBuf) > 0 {
		sc.sres.Minimal = sc.minBuf
	}
	return nil
}

// newDeterministicRng derives the PolicyRandom rng of one search from
// the Miner's seed and the search's sequence number, so no rng is
// shared between goroutines.
func newDeterministicRng(seed, seq int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1000003 + seq))
}

// nextLayer picks the next lattice layer to explore.
func nextLayer(tr *lattice.Tracker, priors Priors, policy Policy, rng *rand.Rand) (int, bool) {
	switch policy {
	case PolicyTSF:
		return BestLayer(tr, priors)
	case PolicyBottomUp:
		for m := 1; m <= tr.Dim(); m++ {
			if tr.UnknownInLayer(m) > 0 {
				return m, true
			}
		}
	case PolicyTopDown:
		for m := tr.Dim(); m >= 1; m-- {
			if tr.UnknownInLayer(m) > 0 {
				return m, true
			}
		}
	case PolicyRandom:
		var candidates []int
		for m := 1; m <= tr.Dim(); m++ {
			if tr.UnknownInLayer(m) > 0 {
				candidates = append(candidates, m)
			}
		}
		if len(candidates) > 0 {
			return candidates[rng.Intn(len(candidates))], true
		}
	}
	return 0, false
}

// PriorsFromResult extracts the per-sample pruning statistics of §3.2
// from a finished search: PUp[m] is the fraction of m-dimensional
// subspaces in which the point was outlying, PDown[m] the complement.
func PriorsFromResult(res *SearchResult) Priors {
	d := len(res.PerLayerOutlierFrac) - 1
	p := Priors{PUp: make([]float64, d+1), PDown: make([]float64, d+1)}
	for m := 1; m <= d; m++ {
		p.PUp[m] = res.PerLayerOutlierFrac[m]
		p.PDown[m] = 1 - res.PerLayerOutlierFrac[m]
	}
	return p
}
