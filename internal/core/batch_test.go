package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/subspace"
)

func TestQueryBatchMatchesSingleQueries(t *testing.T) {
	m := newTestMiner(t, Config{K: 4, TQuantile: 0.92, SampleSize: 8, Seed: 3})
	if err := m.Preprocess(); err != nil {
		t.Fatal(err)
	}
	external := append([]float64(nil), m.Dataset().Point(1)...)
	external[0] += 30 // an ad-hoc point, outlying in dim 0

	var queries []BatchQuery
	for i := 0; i < 40; i++ {
		queries = append(queries, BatchIndex(i%25)) // duplicates on purpose
	}
	queries = append(queries, BatchPoint(external))

	res, err := m.QueryBatch(context.Background(), queries, BatchOptions{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Succeeded != len(queries) || res.Failed != 0 {
		t.Fatalf("succeeded/failed = %d/%d, want %d/0", res.Succeeded, res.Failed, len(queries))
	}
	for i, item := range res.Items {
		if item.Err != nil {
			t.Fatalf("item %d: %v", i, item.Err)
		}
		var want *QueryResult
		if q := queries[i]; q.kind == batchKindRow {
			want, err = m.OutlyingSubspacesOfPoint(q.index)
		} else {
			want, err = m.OutlyingSubspaces(q.point)
		}
		if err != nil {
			t.Fatal(err)
		}
		got := item.Result
		if !reflect.DeepEqual(got.Outlying, want.Outlying) || !reflect.DeepEqual(got.Minimal, want.Minimal) {
			t.Fatalf("item %d: batch answer diverged from single query", i)
		}
		if got.Threshold != want.Threshold || got.IsOutlierAnywhere != want.IsOutlierAnywhere {
			t.Fatalf("item %d: summary fields diverged", i)
		}
	}
}

// A batch of size 1 must be *exactly* the single-query result — every
// field, including the work accounting, since a lone item has no
// repeat to share its work with.
func TestQueryBatchSize1ExactlyEquivalent(t *testing.T) {
	for _, policy := range []Policy{PolicyTSF, PolicyBottomUp, PolicyTopDown} {
		m := newTestMiner(t, Config{K: 4, TQuantile: 0.9, Seed: 5, Policy: policy})
		if err := m.Preprocess(); err != nil {
			t.Fatal(err)
		}
		for idx := 0; idx < 10; idx++ {
			want, err := m.OutlyingSubspacesOfPoint(idx)
			if err != nil {
				t.Fatal(err)
			}
			res, err := m.QueryBatch(context.Background(), []BatchQuery{BatchIndex(idx)}, BatchOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if res.Items[0].Err != nil {
				t.Fatal(res.Items[0].Err)
			}
			if !reflect.DeepEqual(res.Items[0].Result, want) {
				t.Fatalf("policy %v point %d: batch-of-1 = %+v, single = %+v",
					policy, idx, res.Items[0].Result, want)
			}
		}
	}
}

func TestQueryBatchPartialFailure(t *testing.T) {
	m := newTestMiner(t, Config{K: 4, TQuantile: 0.9, Seed: 1})
	n := m.Dataset().N()
	d := m.Dataset().Dim()
	nan, inf := make([]float64, d), make([]float64, d)
	nan[1], inf[d-1] = math.NaN(), math.Inf(-1)
	queries := []BatchQuery{
		BatchIndex(0),               // ok
		BatchIndex(n),               // out of range
		BatchPoint([]float64{1, 2}), // wrong dimensionality
		{},                          // zero value: invalid by construction
		BatchIndex(-3),              // negative index
		BatchIndex(n - 1),           // ok
		BatchPoint(nan),             // non-finite coordinates
		BatchPoint(inf),
	}
	res, err := m.QueryBatch(context.Background(), queries, BatchOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Succeeded != 2 || res.Failed != 6 {
		t.Fatalf("succeeded/failed = %d/%d, want 2/6", res.Succeeded, res.Failed)
	}
	for _, i := range []int{0, 5} {
		if res.Items[i].Err != nil || res.Items[i].Result == nil {
			t.Fatalf("item %d should have succeeded: %v", i, res.Items[i].Err)
		}
	}
	wantErr := []struct {
		idx  int
		frag string
	}{
		{1, "out of range"},
		{2, "dims"},
		{3, "empty batch item"},
		{4, "out of range"},
		{6, "column 1 is not finite"},
		{7, fmt.Sprintf("column %d is not finite", d-1)},
	}
	for _, w := range wantErr {
		item := res.Items[w.idx]
		if item.Err == nil || !strings.Contains(item.Err.Error(), w.frag) {
			t.Fatalf("item %d: error %v, want mention of %q", w.idx, item.Err, w.frag)
		}
		if item.Result != nil {
			t.Fatalf("item %d: failed item carries a result", w.idx)
		}
	}
}

// Identical items are evaluated once at every worker count: every
// item answers exactly as its single query does, every repeat reports
// 0 OD evaluations, and the batch spends exactly the work of its
// distinct single queries.
func TestQueryBatchDeduplicatesIdenticalItems(t *testing.T) {
	m := newTestMiner(t, Config{K: 4, TQuantile: 0.9, Seed: 2})
	if err := m.Preprocess(); err != nil {
		t.Fatal(err)
	}
	n := m.Dataset().N()
	row3 := m.Dataset().Point(3)
	external := append([]float64(nil), m.Dataset().Point(1)...)
	external[0] += 30
	queries := []BatchQuery{
		BatchIndex(3),
		BatchPoint(external),
		BatchIndex(7),
		BatchIndex(3),    // repeated row
		BatchPoint(row3), // row 3's coordinates as a point: not row 3
		BatchPoint(append([]float64(nil), external...)), // bit-identical copy
		BatchIndex(n),
		{},
		BatchIndex(n), // repeated invalid items
		{},
		BatchPoint([]float64{1, 2}),
		BatchPoint([]float64{1, 2}),
		BatchIndex(7),
		BatchPoint(append([]float64(nil), row3...)),
	}
	// firstOf[i] is the first item identical to item i.
	firstOf := []int{0, 1, 2, 0, 4, 1, 6, 7, 6, 7, 10, 10, 2, 4}

	for _, workers := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			res, err := m.QueryBatch(context.Background(), queries, BatchOptions{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if res.Succeeded != 8 || res.Failed != 6 {
				t.Fatalf("succeeded/failed = %d/%d, want 8/6", res.Succeeded, res.Failed)
			}
			var sum, distinct int64
			for i, item := range res.Items {
				f := firstOf[i]
				if f != i && item.Err != res.Items[f].Err {
					t.Fatalf("item %d: error %v, its first occurrence %d has %v", i, item.Err, f, res.Items[f].Err)
				}
				var want *QueryResult
				if q := queries[i]; q.kind == batchKindRow && q.index >= 0 && q.index < n {
					want, err = m.OutlyingSubspacesOfPoint(q.index)
				} else if q.kind == batchKindPoint && len(q.point) == m.Dataset().Dim() {
					want, err = m.OutlyingSubspaces(q.point)
				} else {
					if item.Err == nil {
						t.Fatalf("invalid item %d succeeded", i)
					}
					continue
				}
				if err != nil {
					t.Fatal(err)
				}
				if item.Err != nil {
					t.Fatalf("item %d: %v", i, item.Err)
				}
				got := *item.Result
				got.ODEvaluations = want.ODEvaluations
				if !reflect.DeepEqual(&got, want) {
					t.Fatalf("item %d: batch answer %+v, single query %+v", i, got, *want)
				}
				evals := item.Result.ODEvaluations
				if f == i {
					if evals == 0 {
						t.Fatalf("first occurrence %d computed nothing", i)
					}
					distinct += want.ODEvaluations
				} else if evals != 0 {
					t.Fatalf("repeat %d of item %d computed %d ODs, want 0", i, f, evals)
				}
				sum += evals
			}
			if sum != distinct {
				t.Fatalf("batch spent %d OD evaluations, its distinct single queries %d", sum, distinct)
			}
		})
	}
}

// A batch that names one row eight times spends exactly that row's
// single-query work: the first item computes, the other seven copy its
// answer and report 0 evaluations, even with more workers than
// distinct items.
func TestQueryBatchSharedCacheAmortisesDuplicates(t *testing.T) {
	m := newTestMiner(t, Config{K: 4, TQuantile: 0.9, Seed: 2})
	want, err := m.OutlyingSubspacesOfPoint(3)
	if err != nil {
		t.Fatal(err)
	}
	queries := make([]BatchQuery, 8)
	for i := range queries {
		queries[i] = BatchIndex(3)
	}
	for _, workers := range []int{1, 8} {
		res, err := m.QueryBatch(context.Background(), queries, BatchOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		first := res.Items[0].Result
		if first.ODEvaluations != want.ODEvaluations {
			t.Fatalf("workers=%d: first item computed %d ODs, single query %d", workers, first.ODEvaluations, want.ODEvaluations)
		}
		for i := 1; i < len(res.Items); i++ {
			got := res.Items[i].Result
			if got.ODEvaluations != 0 {
				t.Fatalf("workers=%d: duplicate item %d recomputed %d ODs, want 0", workers, i, got.ODEvaluations)
			}
			if !reflect.DeepEqual(got.Minimal, want.Minimal) {
				t.Fatalf("workers=%d: duplicate item %d answer diverged", workers, i)
			}
		}
	}
}

func TestQueryBatchEmpty(t *testing.T) {
	m := newTestMiner(t, Config{K: 4, TQuantile: 0.9, Seed: 1})
	res, err := m.QueryBatch(context.Background(), nil, BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Items) != 0 || res.Succeeded != 0 || res.Failed != 0 {
		t.Fatalf("empty batch returned %+v", res)
	}
}

func TestQueryBatchCancelled(t *testing.T) {
	m := newTestMiner(t, Config{K: 4, TQuantile: 0.9, Seed: 1})
	if err := m.Preprocess(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var queries []BatchQuery
	for i := 0; i < 16; i++ {
		queries = append(queries, BatchIndex(i))
	}
	if _, err := m.QueryBatch(ctx, queries, BatchOptions{Workers: 2}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// countdownCtx cancels itself after a fixed number of Err() checks —
// a deterministic stand-in for "the client went away mid-search".
type countdownCtx struct {
	context.Context
	remaining atomic.Int64
}

func newCountdownCtx(checks int64) *countdownCtx {
	c := &countdownCtx{Context: context.Background()}
	c.remaining.Store(checks)
	return c
}

func (c *countdownCtx) Err() error {
	if c.remaining.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

func TestQueryBatchCancelMidSearch(t *testing.T) {
	m := newTestMiner(t, Config{K: 4, TQuantile: 0.9, Seed: 1})
	if err := m.Preprocess(); err != nil {
		t.Fatal(err)
	}
	var queries []BatchQuery
	for i := 0; i < 8; i++ {
		queries = append(queries, BatchIndex(i))
	}
	ctx := newCountdownCtx(3)
	if _, err := m.QueryBatch(ctx, queries, BatchOptions{Workers: 1}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// The planted outlier must surface identically through the batch path.
func TestQueryBatchFindsPlantedOutlier(t *testing.T) {
	planted := subspace.New(1, 3)
	ds := plantedDataset(t, 17, 120, 5, planted)
	m, err := NewMiner(ds, Config{K: 4, TQuantile: 0.97, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.QueryBatch(context.Background(), []BatchQuery{BatchIndex(0)}, BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	r := res.Items[0].Result
	if r == nil || !r.IsOutlierAnywhere {
		t.Fatal("planted outlier not flagged through the batch path")
	}
	found := false
	for _, s := range r.Minimal {
		if s.SubsetOf(planted) || planted.SubsetOf(s) {
			found = true
		}
	}
	if !found {
		t.Fatalf("planted subspace %v not related to any minimal subspace %v", planted, r.Minimal)
	}
}
