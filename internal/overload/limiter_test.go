package overload

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/overload/faultinject"
)

// limiterTestConfig: limit range [1, 8] against a 100ms target. The
// limiter keeps the last 128 interactive latencies, gives an AIMD
// verdict every 16 samples and halves at most once per second. No
// class caps unless a test sets them.
func limiterTestConfig(clk *faultinject.Clock) Config {
	return Config{
		MinLimit:  1,
		MaxLimit:  8,
		TargetP99: 100 * time.Millisecond,
		Clock:     clk.Now,
	}
}

// mustAcquire fails the test on a rejected non-waiting acquire.
func mustAcquire(t *testing.T, l *Limiter, p Priority) {
	t.Helper()
	if err := l.Acquire(context.Background(), p, false); err != nil {
		t.Fatalf("Acquire(%s): %v", p, err)
	}
}

// feedSuccesses cycles acquire→release(Success, lat) n times on the
// interactive class — the AIMD limiter's additive-increase diet.
func feedSuccesses(t *testing.T, l *Limiter, n int, lat time.Duration) {
	t.Helper()
	for i := 0; i < n; i++ {
		mustAcquire(t, l, Interactive)
		l.Release(Interactive, Success, lat)
	}
}

func TestLimiterSharesLayerUnderTheLimit(t *testing.T) {
	clk := faultinject.NewClock(time.Unix(1_700_000_000, 0))
	l := NewLimiter(limiterTestConfig(clk)) // limit starts at MaxLimit = 8

	// Bulk fills only half the limit: ceil(8 × 0.5) = 4.
	for i := 0; i < 4; i++ {
		mustAcquire(t, l, Bulk)
	}
	if err := l.Acquire(context.Background(), Bulk, false); err != ErrAtLimit {
		t.Fatalf("fifth bulk acquire: %v, want ErrAtLimit", err)
	}
	// Batch sees ceil(8 × 0.75) = 6 total; four slots are taken.
	mustAcquire(t, l, Batch)
	mustAcquire(t, l, Batch)
	if err := l.Acquire(context.Background(), Batch, false); err != ErrAtLimit {
		t.Fatalf("batch acquire at its share: %v, want ErrAtLimit", err)
	}
	// Interactive alone reaches the full limit.
	mustAcquire(t, l, Interactive)
	mustAcquire(t, l, Interactive)
	if err := l.Acquire(context.Background(), Interactive, false); err != ErrAtLimit {
		t.Fatalf("interactive acquire past the limit: %v, want ErrAtLimit", err)
	}
	snap := l.Snapshot()
	if snap.Total != 8 || snap.InFlight != [3]int{Interactive: 2, Batch: 2, Bulk: 4} {
		t.Fatalf("snapshot = %+v, want 2/2/4 in flight", snap)
	}
}

func TestLimiterStaticClassCaps(t *testing.T) {
	clk := faultinject.NewClock(time.Unix(1_700_000_000, 0))
	cfg := limiterTestConfig(clk)
	cfg.ClassCaps = [3]int{Interactive: 8, Batch: 2, Bulk: 1}
	l := NewLimiter(cfg)

	// Bulk's share of the limit is 4, but its static cap is 1.
	mustAcquire(t, l, Bulk)
	if err := l.Acquire(context.Background(), Bulk, false); err != ErrAtLimit {
		t.Fatalf("bulk past its static cap: %v, want ErrAtLimit", err)
	}
	mustAcquire(t, l, Batch)
	mustAcquire(t, l, Batch)
	if err := l.Acquire(context.Background(), Batch, false); err != ErrAtLimit {
		t.Fatalf("batch past its static cap: %v, want ErrAtLimit", err)
	}
}

func TestLimiterAIMD(t *testing.T) {
	clk := faultinject.NewClock(time.Unix(1_700_000_000, 0))
	l := NewLimiter(limiterTestConfig(clk))

	// The limit starts at the ceiling, so comfortable traffic cannot
	// raise it further: one verdict's 16 samples leave it there.
	feedSuccesses(t, l, 16, 10*time.Millisecond)
	if got := l.Snapshot().Limit; got != 8 {
		t.Fatalf("limit after comfortable traffic at max = %d, want 8", got)
	}

	// One timeout halves it — and a burst of timeouts in the same
	// rate-limit interval halves it exactly once.
	for i := 0; i < 5; i++ {
		mustAcquire(t, l, Interactive)
		l.Release(Interactive, Timeout, 200*time.Millisecond)
	}
	if got := l.Snapshot().Limit; got != 4 {
		t.Fatalf("limit after a timeout burst = %d, want one halving to 4", got)
	}

	// Past the rate-limit interval the next timeout halves again.
	clk.Advance(time.Second)
	mustAcquire(t, l, Interactive)
	l.Release(Interactive, Timeout, 200*time.Millisecond)
	if got := l.Snapshot().Limit; got != 2 {
		t.Fatalf("limit after a second halving = %d, want 2", got)
	}

	// An overshooting p99 decreases too: the next verdict's 16 samples
	// are slow successes. (Advance past the rate limit first.)
	clk.Advance(time.Second)
	feedSuccesses(t, l, 16, 300*time.Millisecond)
	if got := l.Snapshot().Limit; got != 1 {
		t.Fatalf("limit after p99 overshoot = %d, want the floor 1", got)
	}

	// The floor holds against further bad news.
	clk.Advance(time.Second)
	mustAcquire(t, l, Interactive)
	l.Release(Interactive, Timeout, time.Second)
	if got := l.Snapshot().Limit; got != 1 {
		t.Fatalf("limit dropped below MinLimit: %d", got)
	}

	// Recovery: healthy latencies grow the limit back one unit per
	// 16-sample verdict. The slow outcomes above still sit in the
	// 128-sample p99 ring, and the verdict that ends the flush is the
	// first to see a healthy p99: after 128 fast samples the limit is
	// 2, and six more verdicts bring it back to 8.
	feedSuccesses(t, l, 128, time.Millisecond)
	if got := l.Snapshot().Limit; got != 2 {
		t.Fatalf("limit after flushing the p99 ring = %d, want 2", got)
	}
	feedSuccesses(t, l, 6*16, time.Millisecond)
	if got := l.Snapshot().Limit; got != 8 {
		t.Fatalf("limit after sustained recovery = %d, want back at 8", got)
	}
}

// Only successful interactive latencies feed the p99 signal: bulk and
// batch traffic, and failed requests, must not steer the limit.
func TestLimiterP99IgnoresNonInteractive(t *testing.T) {
	clk := faultinject.NewClock(time.Unix(1_700_000_000, 0))
	l := NewLimiter(limiterTestConfig(clk))
	for i := 0; i < 8; i++ {
		mustAcquire(t, l, Bulk)
		l.Release(Bulk, Success, 10*time.Second)
		mustAcquire(t, l, Interactive)
		l.Release(Interactive, Errored, 10*time.Second)
	}
	if got := l.P99(); got != 0 {
		t.Fatalf("p99 = %s after only bulk/errored traffic, want empty (0)", got)
	}
	if got := l.Snapshot().Limit; got != 8 {
		t.Fatalf("limit = %d, want untouched 8", got)
	}
}

// A waiting interactive acquire blocks until a release frees a slot;
// every waiter eventually gets one and the in-flight count never
// exceeds the limit. Synchronisation is by channels, not sleeps.
func TestLimiterWaitersDrainFIFO(t *testing.T) {
	clk := faultinject.NewClock(time.Unix(1_700_000_000, 0))
	cfg := limiterTestConfig(clk)
	cfg.MinLimit, cfg.MaxLimit = 1, 1
	l := NewLimiter(cfg)

	mustAcquire(t, l, Interactive) // the single slot is taken

	const waiters = 6
	acquired := make(chan int, waiters)
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			if err := l.Acquire(context.Background(), Interactive, true); err != nil {
				t.Errorf("waiter %d: %v", id, err)
				return
			}
			acquired <- id
		}(i)
	}

	// Hand the slot along the chain: each release admits exactly one
	// waiter.
	l.Release(Interactive, Success, time.Millisecond)
	for i := 0; i < waiters; i++ {
		select {
		case <-acquired:
		case <-time.After(5 * time.Second):
			t.Fatalf("waiter %d never admitted: a wake-up was lost", i)
		}
		if got := l.Snapshot().Total; got != 1 {
			t.Fatalf("in-flight = %d with a limit of 1", got)
		}
		l.Release(Interactive, Success, time.Millisecond)
	}
	wg.Wait()
	if got := l.Snapshot().Total; got != 0 {
		t.Fatalf("in-flight = %d after all releases, want 0", got)
	}
}

// Cancelling a waiting acquire returns the context error, removes the
// waiter, and never swallows a wake-up another waiter needed.
func TestLimiterWaiterCancel(t *testing.T) {
	clk := faultinject.NewClock(time.Unix(1_700_000_000, 0))
	cfg := limiterTestConfig(clk)
	cfg.MinLimit, cfg.MaxLimit = 1, 1
	l := NewLimiter(cfg)

	mustAcquire(t, l, Interactive)

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() { errc <- l.Acquire(ctx, Interactive, true) }()

	// Cancel the waiter. Whether it had enqueued yet or not, Acquire
	// must return the context's error promptly.
	cancel()
	select {
	case err := <-errc:
		if err != context.Canceled {
			t.Fatalf("cancelled acquire returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled acquire never returned")
	}

	// The slot is still held exactly once and still works: release it
	// and re-acquire without waiting.
	l.Release(Interactive, Success, time.Millisecond)
	if err := l.Acquire(context.Background(), Interactive, false); err != nil {
		t.Fatalf("acquire after cancelled waiter: %v — the cancel leaked a slot or a wake-up", err)
	}
	l.Release(Interactive, Success, time.Millisecond)
}
