package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"

	"repro/internal/od"
)

// This file is the Miner's search surface and its concurrency
// contract. Once Preprocess or ImportState has run, the Miner's shared
// state is read-only and every query, batch, scan and accessor method
// is safe for concurrent use. What is not shareable is an
// od.Evaluator (its k-NN cursor keeps work counters and scratch), so
// the Miner owns its evaluators: every search in this package borrows
// one from the Miner's pool, runs the one search routine (search) on
// its resident query and scratch, and returns it. Randomness comes
// from an atomic per-search sequence, never a shared rng. QueryWith is
// the one entry point that takes a caller-owned evaluator instead,
// for callers that keep one warm (NewWorkerEvaluator).

// ErrNotPreprocessed is returned by QueryWith when neither Preprocess
// nor ImportState has completed. QueryWith never preprocesses lazily:
// preprocessing mutates shared state, so it must happen before
// goroutines fan out.
var ErrNotPreprocessed = errors.New("core: miner not preprocessed (call Preprocess or ImportState before concurrent queries)")

// Preprocessed reports whether Preprocess or ImportState has
// completed, i.e. whether the Miner is ready for concurrent use.
func (m *Miner) Preprocessed() bool { return m.preprocessed }

// Config returns the Miner's configuration (a copy).
func (m *Miner) Config() Config { return m.cfg }

// QueryWith answers the outlying-subspace query for point using the
// supplied evaluator, which the caller must own for the duration of
// the call (one evaluator, one goroutine). exclude is the dataset
// index of the point when it is a dataset member (so it never counts
// as its own neighbour) and -1 for external points.
//
// Ownership: the returned QueryResult (including its mask slices) is
// backed by the evaluator's reusable scratch — in steady state a
// QueryWith call allocates nothing. It stays valid only until the
// next query run on the same evaluator; callers that retain it longer
// must QueryResult.Clone it first.
//
// Unlike OutlyingSubspaces, QueryWith never triggers lazy
// preprocessing; it fails with ErrNotPreprocessed instead.
//
//hos:hotpath
func (m *Miner) QueryWith(eval *od.Evaluator, point []float64, exclude int) (*QueryResult, error) {
	if !m.preprocessed {
		return nil, ErrNotPreprocessed
	}
	if eval == nil {
		return nil, fmt.Errorf("core: QueryWith: nil evaluator")
	}
	if len(point) != m.ds.Dim() {
		return nil, fmt.Errorf("core: query point has %d dims, dataset %d", len(point), m.ds.Dim())
	}
	if exclude < -1 || exclude >= m.ds.N() {
		return nil, fmt.Errorf("core: exclude index %d out of range [-1,%d)", exclude, m.ds.N())
	}
	return m.search(context.Background(), eval, point, exclude, m.priors, m.cfg.Policy)
}

// search is the Miner's one search routine: the dynamic subspace
// search for one point, run on eval's resident query and search
// scratch. QueryWith, every QueryBatch item, every ScanAll row and
// every learning sample go through it. PolicyRandom draws a
// deterministic rng from the per-search sequence; the other policies
// use none.
//
// The result lives in the evaluator's scratch (see scratchFor): it is
// valid until the next search on the same evaluator, which is exactly
// the zero-allocation steady state the serving path runs in.
func (m *Miner) search(ctx context.Context, eval *od.Evaluator, point []float64, exclude int, priors Priors, policy Policy) (*QueryResult, error) {
	var rng *rand.Rand
	if policy == PolicyRandom {
		rng = newDeterministicRng(m.cfg.Seed, m.querySeq.Add(1))
	}
	sc := scratchFor(eval)
	q := eval.BorrowQuery(point, exclude)
	if err := searchInto(ctx, sc, q, m.ds.Dim(), m.threshold, priors, policy, rng); err != nil {
		return nil, err
	}
	sc.qres = QueryResult{
		SearchResult:      sc.sres,
		Threshold:         m.threshold,
		ODEvaluations:     q.Evaluations(),
		IsOutlierAnywhere: len(sc.sres.Outlying) > 0,
	}
	return &sc.qres, nil
}

// scratchFor returns the evaluator's resident search scratch,
// attaching a fresh one on first use. The scratch rides along with
// pooled evaluators, so its tracker and buffers stay warm across
// borrows.
func scratchFor(eval *od.Evaluator) *searchScratch {
	if sc, ok := eval.Scratch().(*searchScratch); ok {
		return sc
	}
	sc := &searchScratch{}
	eval.SetScratch(sc)
	return sc
}

// QueryPointWith is QueryWith for dataset member idx.
func (m *Miner) QueryPointWith(eval *od.Evaluator, idx int) (*QueryResult, error) {
	if idx < 0 || idx >= m.ds.N() {
		return nil, fmt.Errorf("core: point index %d out of range [0,%d)", idx, m.ds.N())
	}
	return m.QueryWith(eval, m.ds.Point(idx), idx)
}
