package server

import (
	"sync"
	"testing"
	"time"
)

func TestPercentile(t *testing.T) {
	var sorted []time.Duration
	for i := 1; i <= 100; i++ {
		sorted = append(sorted, time.Duration(i)*time.Millisecond)
	}
	if got := percentile(sorted, 0.50); got != 50*time.Millisecond {
		t.Fatalf("p50 = %v", got)
	}
	if got := percentile(sorted, 0.99); got != 99*time.Millisecond {
		t.Fatalf("p99 = %v", got)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Fatalf("empty sample p50 = %v", got)
	}
	if got := percentile(sorted[:1], 0.99); got != time.Millisecond {
		t.Fatalf("single sample p99 = %v", got)
	}
}

// TestPercentileNearestRankBoundaries pins the nearest-rank (⌈q·n⌉)
// behaviour at the tiny-sample boundaries where an off-by-one hides
// easiest, plus the fractional case the old int(q·n+0.5) formula got
// wrong: at n=10, q=0.51 nearest-rank requires the 6th value (rank
// ⌈5.1⌉ = 6), but round-half-up read the 5th.
func TestPercentileNearestRankBoundaries(t *testing.T) {
	ms := func(vs ...int) []time.Duration {
		out := make([]time.Duration, len(vs))
		for i, v := range vs {
			out[i] = time.Duration(v) * time.Millisecond
		}
		return out
	}
	cases := []struct {
		name   string
		sorted []time.Duration
		q      float64
		want   time.Duration
	}{
		{"n=1 q=0.5", ms(7), 0.5, 7 * time.Millisecond},
		{"n=1 q=0.99", ms(7), 0.99, 7 * time.Millisecond},
		{"n=1 q=1.0", ms(7), 1.0, 7 * time.Millisecond},
		{"n=2 q=0.5", ms(10, 20), 0.5, 10 * time.Millisecond},
		{"n=2 q=0.99", ms(10, 20), 0.99, 20 * time.Millisecond},
		{"n=2 q=1.0", ms(10, 20), 1.0, 20 * time.Millisecond},
		{"n=10 q=0.51 regression", ms(1, 2, 3, 4, 5, 6, 7, 8, 9, 10), 0.51, 6 * time.Millisecond},
		{"n=10 q=1.0", ms(1, 2, 3, 4, 5, 6, 7, 8, 9, 10), 1.0, 10 * time.Millisecond},
	}
	for _, c := range cases {
		if got := percentile(c.sorted, c.q); got != c.want {
			t.Errorf("%s: percentile = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestLatencyRingWraps(t *testing.T) {
	s := newServerStats(4)
	for i := 1; i <= 10; i++ {
		s.recordQuery(false, time.Duration(i)*time.Millisecond)
	}
	snap := s.snapshot(0, 0)
	if snap.LatencySample != 4 {
		t.Fatalf("window holds %d, want 4", snap.LatencySample)
	}
	// Only the most recent 4 observations (7..10ms) survive; the
	// nearest-rank p50 of {7,8,9,10} is 8, the p99 is 10.
	if snap.P50Ms != 8 || snap.P99Ms != 10 {
		t.Fatalf("percentiles = %+v", snap)
	}
}

func TestSnapshotPercentiles(t *testing.T) {
	s := newServerStats(8)
	s.recordQuery(true, 2*time.Millisecond)
	s.recordQuery(false, 4*time.Millisecond)
	s.recordQuery(false, 6*time.Millisecond)
	snap := s.snapshot(5, 10*time.Second)
	if snap.Queries != 3 || snap.CacheHits != 1 || snap.CacheMisses != 2 || snap.CacheEntries != 5 {
		t.Fatalf("snapshot = %+v", snap)
	}
	if snap.LatencySample != 3 || snap.P50Ms != 4 {
		t.Fatalf("latency fields = %+v", snap)
	}
	if snap.UptimeSeconds != 10 {
		t.Fatalf("uptime = %v", snap.UptimeSeconds)
	}
}

// TestSnapshotNeverTorn is the regression test for the torn-stats
// bug: counters used to be read field by field, so a scrape racing a
// query could observe cache_hits + cache_misses != queries or a batch
// item total from a different instant than its batch count. Every
// update path now commits its counters in one critical section and
// the snapshot reads under the same lock, so the invariants below
// must hold in EVERY scrape, not just the final one. Run under
// -race (as CI does) this also proves the locking is sound.
func TestSnapshotNeverTorn(t *testing.T) {
	s := newServerStats(64)
	const writers = 4
	const perWriter = 300
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				s.startRequest()
				s.recordQuery(i%2 == 0, time.Duration(i)*time.Microsecond)
				s.addODEvals(3)
				s.recordBatch(2, 5)
				s.endRequest()
			}
		}()
	}
	writersDone := make(chan struct{})
	go func() { wg.Wait(); close(writersDone) }()

	scrape := func() {
		snap := s.snapshot(0, 0)
		if snap.CacheHits+snap.CacheMisses != snap.Queries {
			t.Fatalf("torn snapshot: hits %d + misses %d != queries %d",
				snap.CacheHits, snap.CacheMisses, snap.Queries)
		}
		if snap.BatchItems != 2*snap.Batches {
			t.Fatalf("torn snapshot: %d items for %d two-item batches", snap.BatchItems, snap.Batches)
		}
		if snap.InFlight < 0 || snap.InFlight > writers {
			t.Fatalf("torn snapshot: in_flight = %d", snap.InFlight)
		}
	}
	for {
		select {
		case <-writersDone:
			scrape()
			snap := s.snapshot(0, 0)
			if want := int64(writers * perWriter); snap.Queries != want {
				t.Fatalf("queries = %d, want %d", snap.Queries, want)
			}
			if snap.InFlight != 0 {
				t.Fatalf("in_flight = %d after all requests ended", snap.InFlight)
			}
			return
		default:
			scrape()
		}
	}
}
