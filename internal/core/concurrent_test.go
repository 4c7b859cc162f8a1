package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/datagen"
)

func newTestMiner(t *testing.T, cfg Config) *Miner {
	t.Helper()
	ds, _, err := datagen.GenerateSynthetic(datagen.SyntheticConfig{
		N: 200, D: 6, NumOutliers: 4, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMiner(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestQueryWithRequiresPreprocess(t *testing.T) {
	m := newTestMiner(t, Config{K: 4, TQuantile: 0.9, Seed: 1})
	eval, err := m.NewWorkerEvaluator()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.QueryWith(eval, m.Dataset().Point(0), 0); !errors.Is(err, ErrNotPreprocessed) {
		t.Fatalf("want ErrNotPreprocessed, got %v", err)
	}
}

func TestQueryWithMatchesSequentialQuery(t *testing.T) {
	m := newTestMiner(t, Config{K: 4, TQuantile: 0.9, Seed: 1})
	if err := m.Preprocess(); err != nil {
		t.Fatal(err)
	}
	eval, err := m.NewWorkerEvaluator()
	if err != nil {
		t.Fatal(err)
	}
	for idx := 0; idx < 25; idx++ {
		want, err := m.OutlyingSubspacesOfPoint(idx)
		if err != nil {
			t.Fatal(err)
		}
		got, err := m.QueryPointWith(eval, idx)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Outlying, want.Outlying) {
			t.Fatalf("point %d: outlying sets differ: %v vs %v", idx, got.Outlying, want.Outlying)
		}
		if !reflect.DeepEqual(got.Minimal, want.Minimal) {
			t.Fatalf("point %d: minimal sets differ: %v vs %v", idx, got.Minimal, want.Minimal)
		}
		if got.Threshold != want.Threshold {
			t.Fatalf("point %d: thresholds differ: %v vs %v", idx, got.Threshold, want.Threshold)
		}
	}
}

func TestQueryWithValidation(t *testing.T) {
	m := newTestMiner(t, Config{K: 4, TQuantile: 0.9, Seed: 1})
	if err := m.Preprocess(); err != nil {
		t.Fatal(err)
	}
	eval, err := m.NewWorkerEvaluator()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.QueryWith(nil, m.Dataset().Point(0), 0); err == nil {
		t.Fatal("nil evaluator accepted")
	}
	if _, err := m.QueryWith(eval, []float64{1, 2}, -1); err == nil {
		t.Fatal("wrong-dimension point accepted")
	}
	if _, err := m.QueryWith(eval, m.Dataset().Point(0), m.Dataset().N()); err == nil {
		t.Fatal("out-of-range exclude accepted")
	}
	if _, err := m.QueryPointWith(eval, -1); err == nil {
		t.Fatal("negative index accepted")
	}
}

// TestQueryWithConcurrent hammers QueryWith from many goroutines, each
// on its own evaluator, while the same goroutines query through the
// Miner's own pool with OutlyingSubspacesOfPoint; meant to run under
// -race. Every goroutine must reproduce the sequential answer set on
// both paths.
func TestQueryWithConcurrent(t *testing.T) {
	m := newTestMiner(t, Config{K: 4, TQuantile: 0.9, Seed: 1})
	if err := m.Preprocess(); err != nil {
		t.Fatal(err)
	}
	const points = 20
	want := make([]*QueryResult, points)
	for i := range want {
		r, err := m.OutlyingSubspacesOfPoint(i)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = r
	}

	var wg sync.WaitGroup
	errCh := make(chan error, 64)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			eval, err := m.NewWorkerEvaluator()
			if err != nil {
				errCh <- err
				return
			}
			for i := 0; i < points; i++ {
				got, err := m.QueryPointWith(eval, i)
				if err != nil {
					errCh <- err
					return
				}
				if !reflect.DeepEqual(got.Outlying, want[i].Outlying) {
					errCh <- errors.New("concurrent QueryWith result diverged from sequential")
					return
				}
				owned, err := m.OutlyingSubspacesOfPoint(i)
				if err != nil {
					errCh <- err
					return
				}
				if !reflect.DeepEqual(owned, want[i]) {
					errCh <- errors.New("concurrent OutlyingSubspacesOfPoint result diverged from sequential")
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}

// TestScanAllParallelSingleWorkerConcurrent runs two workers=1 scans
// at once; meant for -race. ScanAll must use private state even at
// workers=1 — a single-worker scan on the Miner's shared evaluator
// would race here.
func TestScanAllParallelSingleWorkerConcurrent(t *testing.T) {
	m := newTestMiner(t, Config{K: 4, TQuantile: 0.9, Seed: 1})
	if err := m.Preprocess(); err != nil {
		t.Fatal(err)
	}
	want := referenceScan(t, m, ScanOptions{})
	var wg sync.WaitGroup
	errCh := make(chan error, 2)
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := m.ScanAll(context.Background(), ScanOptions{Workers: 1})
			if err != nil {
				errCh <- err
				return
			}
			if len(got) != len(want) {
				errCh <- fmt.Errorf("workers=1 scan found %d hits, the per-point reference found %d", len(got), len(want))
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}
