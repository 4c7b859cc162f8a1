package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/subspace"
)

// referenceScan is the whole-dataset sweep computed through the plain
// query path: OutlyingSubspacesOfPoint over every row, with the
// full-space OD read from a separate worker evaluator, ordered and
// truncated here rather than by ScanAll's finishing step. ScanAll runs
// the same per-point search inside its worker loop, so agreeing with
// this loop checks the loop, the hit copies and the finishing step.
func referenceScan(t *testing.T, m *Miner, opts ScanOptions) []ScanHit {
	t.Helper()
	full := subspace.Full(m.Dataset().Dim())
	eval, err := m.NewWorkerEvaluator()
	if err != nil {
		t.Fatal(err)
	}
	var hits []ScanHit
	for i := 0; i < m.Dataset().N(); i++ {
		res, err := m.OutlyingSubspacesOfPoint(i)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Outlying) == 0 {
			continue
		}
		hits = append(hits, ScanHit{
			Index:         i,
			Minimal:       res.Clone().Minimal,
			OutlyingCount: len(res.Outlying),
			FullSpaceOD:   eval.OD(m.Dataset().Point(i), full, i),
		})
	}
	if opts.SortBySeverity {
		// Stable over index order: equal severities stay by index.
		sort.SliceStable(hits, func(a, b int) bool { return hits[a].FullSpaceOD > hits[b].FullSpaceOD })
	}
	if opts.MaxResults > 0 && len(hits) > opts.MaxResults {
		hits = hits[:opts.MaxResults]
	}
	return hits
}

// assertSameHits fails unless got and want agree hit for hit, exact
// OD bits included.
func assertSameHits(t *testing.T, label string, got, want []ScanHit) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d hits, reference has %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i].Index != want[i].Index ||
			got[i].OutlyingCount != want[i].OutlyingCount ||
			got[i].FullSpaceOD != want[i].FullSpaceOD ||
			!masksEqual(got[i].Minimal, want[i].Minimal) {
			t.Fatalf("%s: hit %d differs:\n got  %+v\n want %+v", label, i, got[i], want[i])
		}
	}
}

func TestScanAllFindsPlantedOutliers(t *testing.T) {
	planted := subspace.New(0, 2)
	ds := plantedDataset(t, 51, 90, 4, planted)
	m, err := NewMiner(ds, Config{K: 4, TQuantile: 0.97, SampleSize: 6, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	hits, err := m.ScanAll(context.Background(), ScanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) == 0 {
		t.Fatal("scan found nothing")
	}
	// The planted point (index 0) must be among the hits.
	found := false
	for _, h := range hits {
		if h.Index == 0 {
			found = true
			if len(h.Minimal) == 0 || h.OutlyingCount == 0 {
				t.Fatalf("hit 0 has empty results: %+v", h)
			}
			if h.FullSpaceOD <= 0 {
				t.Fatalf("hit 0 severity: %v", h.FullSpaceOD)
			}
		}
	}
	if !found {
		t.Fatalf("planted point missing from %d hits", len(hits))
	}
	// Default order: ascending index.
	for i := 1; i < len(hits); i++ {
		if hits[i-1].Index >= hits[i].Index {
			t.Fatal("hits not in index order")
		}
	}
}

func TestScanAllSeverityOrderAndLimit(t *testing.T) {
	planted := subspace.New(1)
	ds := plantedDataset(t, 53, 90, 4, planted)
	m, err := NewMiner(ds, Config{K: 4, TQuantile: 0.9, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	hits, err := m.ScanAll(context.Background(), ScanOptions{SortBySeverity: true, MaxResults: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) > 3 {
		t.Fatalf("limit ignored: %d hits", len(hits))
	}
	for i := 1; i < len(hits); i++ {
		if hits[i-1].FullSpaceOD < hits[i].FullSpaceOD {
			t.Fatal("hits not by descending severity")
		}
	}
	// The single extreme planted point must rank first.
	if len(hits) > 0 && hits[0].Index != 0 {
		t.Fatalf("most severe hit = %d, want 0", hits[0].Index)
	}
}

func TestScanAllValidation(t *testing.T) {
	ds := plantedDataset(t, 55, 40, 3, subspace.New(0))
	m, _ := NewMiner(ds, Config{K: 3, TQuantile: 0.9, Seed: 1})
	if _, err := m.ScanAll(context.Background(), ScanOptions{MaxResults: -1}); err == nil {
		t.Fatal("negative MaxResults accepted")
	}
}

func TestScanAllHugeThresholdEmpty(t *testing.T) {
	ds := plantedDataset(t, 57, 40, 3, subspace.New(0))
	m, _ := NewMiner(ds, Config{K: 3, T: 1e15, Seed: 1})
	hits, err := m.ScanAll(context.Background(), ScanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 0 {
		t.Fatalf("huge threshold produced %d hits", len(hits))
	}
}

func TestScanAllParallelMatchesSequential(t *testing.T) {
	planted := subspace.New(0, 2)
	ds := plantedDataset(t, 61, 150, 4, planted)
	m, err := NewMiner(ds, Config{K: 4, TQuantile: 0.95, SampleSize: 6, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	want := referenceScan(t, m, ScanOptions{})
	for _, workers := range []int{0, 1, 2, 4, 7} {
		got, err := m.ScanAll(context.Background(), ScanOptions{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		assertSameHits(t, fmt.Sprintf("workers=%d", workers), got, want)
	}
}

func TestScanAllParallelXTreeBackend(t *testing.T) {
	planted := subspace.New(1)
	ds := plantedDataset(t, 63, 200, 4, planted)
	m, err := NewMiner(ds, Config{K: 4, T: 8, Backend: BackendXTree, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	opts := ScanOptions{SortBySeverity: true, MaxResults: 5, Workers: 4}
	got, err := m.ScanAll(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	assertSameHits(t, "xtree", got, referenceScan(t, m, opts))
}

// Workers beyond the dataset size clamp to N (one point per worker)
// without changing answers; option validation runs at every fan-out.
func TestScanAllParallelValidation(t *testing.T) {
	ds := plantedDataset(t, 65, 40, 3, subspace.New(0))
	m, _ := NewMiner(ds, Config{K: 3, TQuantile: 0.9, Seed: 1})
	for _, workers := range []int{-3, 0, 2, 1000} {
		if _, err := m.ScanAll(context.Background(), ScanOptions{MaxResults: -1, Workers: workers}); err == nil {
			t.Fatalf("workers=%d: negative MaxResults accepted", workers)
		}
	}
	got, err := m.ScanAll(context.Background(), ScanOptions{Workers: 1000})
	if err != nil {
		t.Fatal(err)
	}
	assertSameHits(t, "workers=1000", got, referenceScan(t, m, ScanOptions{}))
}

// midPointScanMiner builds a miner whose per-point search is a full
// 2^d-1 lattice sweep: an absurd absolute threshold means nothing is
// ever an outlier, so upward pruning never fires and (bottom-up)
// every subspace of every point is evaluated — 16383 OD evaluations
// per point at d = 14.
func midPointScanMiner(t *testing.T) *Miner {
	t.Helper()
	ds := plantedDataset(t, 91, 60, 14, subspace.New(0))
	m, err := NewMiner(ds, Config{K: 3, T: 1e18, Policy: PolicyBottomUp, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Preprocess(); err != nil {
		t.Fatal(err)
	}
	return m
}

// countProgress returns an OnProgress hook and a reader of how many
// points it saw finish.
func countProgress() (func(done, total int), func() int) {
	var mu sync.Mutex
	n := 0
	return func(done, total int) {
			mu.Lock()
			n++
			mu.Unlock()
		}, func() int {
			mu.Lock()
			defer mu.Unlock()
			return n
		}
}

// ScanAll must notice cancellation *inside* a point's subspace search,
// not only at point boundaries. The countdown context expires after a
// handful of checks — far fewer than one point's 16383-subspace sweep
// makes — so a single worker that finishes even its first point (and
// reports it) has only been checking between points.
func TestScanAllContextCancelsMidPoint(t *testing.T) {
	m := midPointScanMiner(t)
	hook, finished := countProgress()
	ctx := newCountdownCtx(8)
	if _, err := m.ScanAll(ctx, ScanOptions{Workers: 1, OnProgress: hook}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := finished(); n != 0 {
		t.Fatalf("scan finished %d point(s) before cancelling — cancellation was not mid-point", n)
	}
}

func TestScanAllContextPreCancelled(t *testing.T) {
	m := midPointScanMiner(t)
	hook, finished := countProgress()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := m.ScanAll(ctx, ScanOptions{OnProgress: hook}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := finished(); n != 0 {
		t.Fatalf("pre-cancelled scan still finished %d point(s)", n)
	}
}

func TestScanAllParallelContextCancelsMidPoint(t *testing.T) {
	m := midPointScanMiner(t)
	ctx := newCountdownCtx(8)
	start := time.Now()
	if _, err := m.ScanAll(ctx, ScanOptions{Workers: 2}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// 8 countdown checks cover well under one point's sweep per
	// worker; finishing even one full point would take far longer than
	// this generous bound.
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("cancelled parallel scan took %v", elapsed)
	}
}

// A single-worker scan reports progress in strict order: 1..n, each
// with the dataset total.
func TestScanProgressSequential(t *testing.T) {
	ds := plantedDataset(t, 67, 50, 3, subspace.New(0))
	m, err := NewMiner(ds, Config{K: 3, TQuantile: 0.9, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var calls [][2]int
	_, err = m.ScanAll(context.Background(), ScanOptions{
		Workers:    1,
		OnProgress: func(done, total int) { calls = append(calls, [2]int{done, total}) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(calls) != ds.N() {
		t.Fatalf("%d progress calls for %d points", len(calls), ds.N())
	}
	for i, c := range calls {
		if c[0] != i+1 || c[1] != ds.N() {
			t.Fatalf("call %d = %d/%d, want %d/%d", i, c[0], c[1], i+1, ds.N())
		}
	}
}

// Parallel scans report each done value in 1..n exactly once (from
// any worker, in any delivery order) with a fixed total.
func TestScanProgressParallelCoversEveryPoint(t *testing.T) {
	ds := plantedDataset(t, 69, 80, 4, subspace.New(0, 1))
	m, err := NewMiner(ds, Config{K: 4, TQuantile: 0.92, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	seen := make(map[int]int)
	_, err = m.ScanAll(context.Background(), ScanOptions{
		Workers: 4,
		OnProgress: func(done, total int) {
			if total != ds.N() {
				t.Errorf("total = %d, want %d", total, ds.N())
			}
			mu.Lock()
			seen[done]++
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != ds.N() {
		t.Fatalf("saw %d distinct done values for %d points", len(seen), ds.N())
	}
	for v := 1; v <= ds.N(); v++ {
		if seen[v] != 1 {
			t.Fatalf("done value %d reported %d times", v, seen[v])
		}
	}
}

// A cancelled scan must not report progress for points it never
// evaluated.
func TestScanProgressStopsOnCancel(t *testing.T) {
	m := midPointScanMiner(t)
	ctx := newCountdownCtx(8)
	var mu sync.Mutex
	max := 0
	_, err := m.ScanAll(ctx, ScanOptions{
		Workers: 2,
		OnProgress: func(done, total int) {
			mu.Lock()
			if done > max {
				max = done
			}
			mu.Unlock()
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := m.Dataset().N(); max >= n {
		t.Fatalf("cancelled scan reported full progress %d/%d", max, n)
	}
}

// A live context that never fires changes nothing: the scan under a
// cancellable, generously-deadlined context agrees exactly with the
// background-context scan and with the per-point reference.
func TestScanAllContextMatchesScanAll(t *testing.T) {
	planted := subspace.New(0, 2)
	ds := plantedDataset(t, 52, 90, 4, planted)
	m, err := NewMiner(ds, Config{K: 4, TQuantile: 0.95, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	a, err := m.ScanAll(context.Background(), ScanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
	defer cancel()
	b, err := m.ScanAll(ctx, ScanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	assertSameHits(t, "live ctx", b, a)
	assertSameHits(t, "reference", a, referenceScan(t, m, ScanOptions{}))
}
