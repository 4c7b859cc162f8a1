package jobs

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// fakeClock is a mutable time source for TTL/run-time tests.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)}
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// waitState polls until the job reaches the state or the test deadline
// lapses.
func waitState(t *testing.T, m *Manager, id string, want State) Snapshot {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		snap, ok := m.Get(id)
		if !ok {
			t.Fatalf("job %s vanished while waiting for %v", id, want)
		}
		if snap.State == want {
			return snap
		}
		if snap.State.Terminal() {
			t.Fatalf("job %s reached %v (err %v), want %v", id, snap.State, snap.Err, want)
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("job %s never reached %v", id, want)
	return Snapshot{}
}

func closeNow(t *testing.T, m *Manager) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := m.Close(ctx); err != nil {
		t.Fatalf("close: %v", err)
	}
}

func TestSubmitRunsToDone(t *testing.T) {
	m := NewManager(Options{})
	defer closeNow(t, m)
	snap, err := m.Submit("scan", func(ctx context.Context, report func(done, total int)) (any, error) {
		for i := 1; i <= 5; i++ {
			report(i, 5)
		}
		return "result-value", nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if snap.State != StateQueued || snap.Kind != "scan" || !strings.HasPrefix(snap.ID, "scan-") {
		t.Fatalf("submit snapshot = %+v", snap)
	}
	got := waitState(t, m, snap.ID, StateDone)
	if got.Result != "result-value" || got.Err != nil {
		t.Fatalf("done snapshot = %+v", got)
	}
	if got.Done != 5 || got.Total != 5 {
		t.Fatalf("progress = %d/%d, want 5/5", got.Done, got.Total)
	}
	if got.Finished.Before(got.Started) || got.Started.Before(got.Created) {
		t.Fatalf("timestamps out of order: %+v", got)
	}
	c := m.Counters()
	if c.Submitted != 1 || c.Completed != 1 || c.Failed+c.Cancelled+c.Rejected != 0 {
		t.Fatalf("counters = %+v", c)
	}
}

func TestProgressIsMonotonic(t *testing.T) {
	m := NewManager(Options{})
	defer closeNow(t, m)
	snap, err := m.Submit("scan", func(ctx context.Context, report func(done, total int)) (any, error) {
		// Out-of-order reports, as racing scan workers can deliver.
		report(3, 10)
		report(1, 10) // must not regress
		report(7, 10)
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	got := waitState(t, m, snap.ID, StateDone)
	// finish() promotes a done job to full progress.
	if got.Done != 10 || got.Total != 10 {
		t.Fatalf("progress = %d/%d, want 10/10", got.Done, got.Total)
	}
}

// TestQueueFullRejects fills the single worker and the queue, then
// asserts the next submission is rejected instantly with ErrQueueFull
// and counted.
func TestQueueFullRejects(t *testing.T) {
	m := NewManager(Options{Workers: 1, QueueDepth: 1})
	block := make(chan struct{})
	running, err := m.Submit("scan", func(ctx context.Context, report func(done, total int)) (any, error) {
		<-block
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, running.ID, StateRunning)
	queued, err := m.Submit("scan", func(ctx context.Context, report func(done, total int)) (any, error) {
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Submit("scan", func(ctx context.Context, report func(done, total int)) (any, error) {
		return nil, nil
	}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("third submit err = %v, want ErrQueueFull", err)
	}
	if ra := m.RetryAfter(); ra < time.Second {
		t.Fatalf("RetryAfter = %v, want ≥ 1s", ra)
	}
	c := m.Counters()
	if c.Rejected != 1 || c.Queued != 1 || c.Running != 1 {
		t.Fatalf("counters = %+v", c)
	}
	close(block)
	waitState(t, m, queued.ID, StateDone)
	closeNow(t, m)
}

func TestCancelQueuedNeverRuns(t *testing.T) {
	m := NewManager(Options{Workers: 1, QueueDepth: 2})
	block := make(chan struct{})
	blocker, err := m.Submit("scan", func(ctx context.Context, report func(done, total int)) (any, error) {
		<-block
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, blocker.ID, StateRunning)
	ran := make(chan struct{})
	victim, err := m.Submit("scan", func(ctx context.Context, report func(done, total int)) (any, error) {
		close(ran)
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	snap, ok := m.Cancel(victim.ID)
	if !ok || snap.State != StateCancelled {
		t.Fatalf("cancel queued: ok=%v state=%v", ok, snap.State)
	}
	close(block)
	waitState(t, m, blocker.ID, StateDone)
	closeNow(t, m) // drains the queue: the skipped job would run here
	select {
	case <-ran:
		t.Fatal("cancelled queued job still ran")
	default:
	}
	if c := m.Counters(); c.Cancelled != 1 || c.Completed != 1 {
		t.Fatalf("counters = %+v", c)
	}
}

// TestCancelQueuedFreesAdmissionSlot is the regression test for the
// queue-capacity leak: cancelling a queued job must free its slot
// immediately, not when a worker eventually drains the corpse —
// otherwise a client that cancels its backlog still gets ErrQueueFull
// for as long as the running job holds the worker.
func TestCancelQueuedFreesAdmissionSlot(t *testing.T) {
	m := NewManager(Options{Workers: 1, QueueDepth: 1})
	block := make(chan struct{})
	running, err := m.Submit("scan", func(ctx context.Context, report func(done, total int)) (any, error) {
		<-block
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, running.ID, StateRunning)
	victim, err := m.Submit("scan", func(ctx context.Context, report func(done, total int)) (any, error) {
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Submit("scan", func(ctx context.Context, report func(done, total int)) (any, error) {
		return nil, nil
	}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("queue not full before cancel: %v", err)
	}
	if _, ok := m.Cancel(victim.ID); !ok {
		t.Fatal("cancel failed")
	}
	// The slot is free right now — the worker is still blocked.
	replacement, err := m.Submit("scan", func(ctx context.Context, report func(done, total int)) (any, error) {
		return "ran", nil
	})
	if err != nil {
		t.Fatalf("submit after cancelling the queued job: %v", err)
	}
	if c := m.Counters(); c.Queued != 1 {
		t.Fatalf("queued = %d after cancel+resubmit, want 1", c.Queued)
	}
	close(block)
	if got := waitState(t, m, replacement.ID, StateDone); got.Result != "ran" {
		t.Fatalf("replacement result = %v", got.Result)
	}
	closeNow(t, m)
}

func TestCancelRunning(t *testing.T) {
	m := NewManager(Options{})
	defer closeNow(t, m)
	snap, err := m.Submit("scan", func(ctx context.Context, report func(done, total int)) (any, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, snap.ID, StateRunning)
	if _, ok := m.Cancel(snap.ID); !ok {
		t.Fatal("cancel reported unknown job")
	}
	got := waitState(t, m, snap.ID, StateCancelled)
	if !errors.Is(got.Err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", got.Err)
	}
	// Cancelling a terminal job is a no-op that reports its state.
	again, ok := m.Cancel(snap.ID)
	if !ok || again.State != StateCancelled {
		t.Fatalf("re-cancel: ok=%v state=%v", ok, again.State)
	}
	if c := m.Counters(); c.Cancelled != 1 {
		t.Fatalf("counters = %+v", c)
	}
}

func TestFailedJobSurfacesError(t *testing.T) {
	m := NewManager(Options{})
	defer closeNow(t, m)
	boom := errors.New("lattice imploded")
	snap, err := m.Submit("scan", func(ctx context.Context, report func(done, total int)) (any, error) {
		return nil, boom
	})
	if err != nil {
		t.Fatal(err)
	}
	got := waitState(t, m, snap.ID, StateFailed)
	if !errors.Is(got.Err, boom) || got.Result != nil {
		t.Fatalf("failed snapshot = %+v", got)
	}
	if c := m.Counters(); c.Failed != 1 {
		t.Fatalf("counters = %+v", c)
	}
}

// TestPanicBecomesFailure: a panicking Fn must not take the worker
// down — the job fails and the pool keeps serving.
func TestPanicBecomesFailure(t *testing.T) {
	m := NewManager(Options{Workers: 1})
	defer closeNow(t, m)
	snap, err := m.Submit("scan", func(ctx context.Context, report func(done, total int)) (any, error) {
		panic("kaboom")
	})
	if err != nil {
		t.Fatal(err)
	}
	got := waitState(t, m, snap.ID, StateFailed)
	if got.Err == nil || !strings.Contains(got.Err.Error(), "kaboom") {
		t.Fatalf("panic err = %v", got.Err)
	}
	after, err := m.Submit("scan", func(ctx context.Context, report func(done, total int)) (any, error) {
		return 42, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := waitState(t, m, after.ID, StateDone); got.Result != 42 {
		t.Fatal("worker did not survive the panic")
	}
}

func TestResultTTLSweepCountsAbandoned(t *testing.T) {
	clock := newFakeClock()
	m := NewManager(Options{ResultTTL: time.Minute, Clock: clock.now})
	defer closeNow(t, m)

	fetched, err := m.Submit("scan", func(ctx context.Context, report func(done, total int)) (any, error) { return 1, nil })
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, fetched.ID, StateDone) // Get marks the result fetched

	abandoned, err := m.Submit("scan", func(ctx context.Context, report func(done, total int)) (any, error) { return 2, nil })
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for m.Counters().Completed < 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}

	clock.advance(2 * time.Minute)
	if _, ok := m.Get(fetched.ID); ok {
		t.Fatal("fetched job survived the TTL sweep")
	}
	if _, ok := m.Get(abandoned.ID); ok {
		t.Fatal("unfetched job survived the TTL sweep")
	}
	c := m.Counters()
	if c.Abandoned != 1 {
		t.Fatalf("abandoned = %d, want 1 (only the never-fetched job)", c.Abandoned)
	}
	if len(m.List()) != 0 {
		t.Fatal("swept jobs still listed")
	}
}

// TestMaxRetainedBoundsMemory: ResultTTL is a time bound, not a
// memory bound — a stream of fast jobs must not accumulate terminal
// records past MaxRetained, and the evicted-unfetched ones count as
// abandoned.
func TestMaxRetainedBoundsMemory(t *testing.T) {
	m := NewManager(Options{Workers: 1, QueueDepth: 4, MaxRetained: 3})
	defer closeNow(t, m)
	var last Snapshot
	for i := 0; i < 10; i++ {
		snap, err := m.Submit("scan", func(ctx context.Context, report func(done, total int)) (any, error) {
			return i, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		last = waitState(t, m, snap.ID, StateDone) // also marks it fetched
	}
	list := m.List()
	if len(list) > 3 {
		t.Fatalf("%d terminal jobs retained, cap is 3", len(list))
	}
	// The newest job survives the count-based sweep.
	found := false
	for _, snap := range list {
		if snap.ID == last.ID {
			found = true
		}
	}
	if !found {
		t.Fatalf("newest job %s evicted before older ones", last.ID)
	}
	if c := m.Counters(); c.Abandoned != 0 {
		t.Fatalf("abandoned = %d for fully fetched jobs", c.Abandoned)
	}
}

func TestCloseDrainsQueuedJobs(t *testing.T) {
	m := NewManager(Options{Workers: 1, QueueDepth: 4})
	var order []string
	var mu sync.Mutex
	for i := 0; i < 3; i++ {
		id := fmt.Sprintf("job%d", i)
		if _, err := m.Submit("scan", func(ctx context.Context, report func(done, total int)) (any, error) {
			mu.Lock()
			order = append(order, id)
			mu.Unlock()
			return nil, nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	closeNow(t, m)
	if len(order) != 3 {
		t.Fatalf("drain ran %d of 3 queued jobs", len(order))
	}
	if _, err := m.Submit("scan", func(ctx context.Context, report func(done, total int)) (any, error) {
		return nil, nil
	}); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after close err = %v, want ErrClosed", err)
	}
	// Close is idempotent.
	closeNow(t, m)
}

func TestCloseDeadlineCancelsStragglers(t *testing.T) {
	m := NewManager(Options{})
	snap, err := m.Submit("scan", func(ctx context.Context, report func(done, total int)) (any, error) {
		<-ctx.Done() // only a cancelled context ends this job
		return nil, ctx.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, snap.ID, StateRunning)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := m.Close(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("close err = %v, want DeadlineExceeded", err)
	}
	got, ok := m.Get(snap.ID)
	if !ok || got.State != StateCancelled {
		t.Fatalf("straggler state = %v (ok %v), want cancelled", got.State, ok)
	}
}

func TestRetryAfterScalesWithBacklogAndHistory(t *testing.T) {
	clock := newFakeClock()
	m := NewManager(Options{Workers: 1, QueueDepth: 8, Clock: clock.now})
	// Seed run-time history: one job whose wall time the fake clock
	// pins at 40s.
	release := make(chan struct{})
	snap, err := m.Submit("scan", func(ctx context.Context, report func(done, total int)) (any, error) {
		<-release
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, snap.ID, StateRunning)
	clock.advance(40 * time.Second)
	close(release)
	waitState(t, m, snap.ID, StateDone)

	// Empty manager: floor of 1s.
	if ra := m.RetryAfter(); ra != time.Second {
		t.Fatalf("idle RetryAfter = %v, want 1s", ra)
	}
	// Two jobs outstanding on one worker at ~40s each → ~80s estimate.
	block := make(chan struct{})
	defer close(block)
	for i := 0; i < 2; i++ {
		if _, err := m.Submit("scan", func(ctx context.Context, report func(done, total int)) (any, error) {
			<-block
			return nil, nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for m.Counters().Running != 1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if ra := m.RetryAfter(); ra != 80*time.Second {
		t.Fatalf("backlogged RetryAfter = %v, want 80s", ra)
	}
}

func TestGetAndCancelUnknown(t *testing.T) {
	m := NewManager(Options{})
	defer closeNow(t, m)
	if _, ok := m.Get("nope-1"); ok {
		t.Fatal("Get of unknown id reported ok")
	}
	if _, ok := m.Cancel("nope-1"); ok {
		t.Fatal("Cancel of unknown id reported ok")
	}
	if _, err := m.Submit("scan", nil); err == nil {
		t.Fatal("nil Fn accepted")
	}
}

// TestListOldestFirst submits 12 jobs within one clock tick: every
// Created is equal, so the ordering must come from the submission
// sequence — a lexicographic id tie-break would return scan-10 before
// scan-2.
func TestListOldestFirst(t *testing.T) {
	clock := newFakeClock()
	m := NewManager(Options{Workers: 1, QueueDepth: 16, Clock: clock.now})
	block := make(chan struct{})
	defer close(block)
	var ids []string
	for i := 0; i < 12; i++ {
		snap, err := m.Submit("scan", func(ctx context.Context, report func(done, total int)) (any, error) {
			<-block
			return nil, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, snap.ID)
	}
	list := m.List()
	if len(list) != 12 {
		t.Fatalf("listed %d jobs", len(list))
	}
	for i, snap := range list {
		if snap.ID != ids[i] {
			t.Fatalf("list[%d] = %s, want %s", i, snap.ID, ids[i])
		}
	}
}

func TestStateStrings(t *testing.T) {
	want := map[State]string{
		StateQueued: "queued", StateRunning: "running", StateDone: "done",
		StateFailed: "failed", StateCancelled: "cancelled", State(9): "State(9)",
	}
	for s, str := range want {
		if s.String() != str {
			t.Fatalf("State(%d).String() = %q, want %q", s, s.String(), str)
		}
	}
	if StateRunning.Terminal() || !StateCancelled.Terminal() {
		t.Fatal("Terminal misclassifies states")
	}
}

// TestRetryAfterNeverBelowOneSecond: the estimate a 429 turns into a
// Retry-After header must stay ≥ 1s in every regime — no history and
// no backlog (a manager that has never run a job), no history with a
// backlog, and history of near-zero run times. A zero estimate would
// become "Retry-After: 0", a standing invitation to hammer the queue.
func TestRetryAfterNeverBelowOneSecond(t *testing.T) {
	m := NewManager(Options{QueueDepth: 1, Workers: 1})
	if got := m.RetryAfter(); got < time.Second {
		t.Fatalf("no history, no backlog: RetryAfter = %v, want ≥ 1s", got)
	}
	// Occupy the worker and the queue: still no run-time history.
	release := make(chan struct{})
	started := make(chan struct{})
	if _, err := m.Submit("t", func(ctx context.Context, _ func(int, int)) (any, error) {
		close(started)
		<-release
		return nil, nil
	}); err != nil {
		t.Fatal(err)
	}
	<-started
	if _, err := m.Submit("t", func(context.Context, func(int, int)) (any, error) { return nil, nil }); err != nil {
		t.Fatal(err)
	}
	if got := m.RetryAfter(); got < time.Second {
		t.Fatalf("no history, backlog 2: RetryAfter = %v, want ≥ 1s", got)
	}
	close(release)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := m.Close(ctx); err != nil {
		t.Fatal(err)
	}
	// History now exists and is microscopic; the floor must hold.
	if got := m.RetryAfter(); got < time.Second {
		t.Fatalf("tiny history: RetryAfter = %v, want ≥ 1s", got)
	}
}

// TestWaitTerminalFirst: the job lands before the waiter's context
// ends, so Wait returns the done snapshot with the counters already
// including it, and the delivered result is never counted abandoned.
func TestWaitTerminalFirst(t *testing.T) {
	clock := newFakeClock()
	m := NewManager(Options{ResultTTL: time.Minute, Clock: clock.now})
	defer closeNow(t, m)
	release := make(chan struct{})
	snap, err := m.Submit("scan", func(ctx context.Context, report func(done, total int)) (any, error) {
		<-release
		report(3, 3)
		return "answer", nil
	})
	if err != nil {
		t.Fatal(err)
	}
	go close(release)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	got, ok := m.Wait(ctx, snap.ID)
	if !ok || got.State != StateDone || got.Result != "answer" {
		t.Fatalf("Wait = %+v, ok=%v; want done with the result", got, ok)
	}
	if c := m.Counters(); c.Completed != 1 {
		t.Fatalf("counters after Wait = %+v, want Completed 1", c)
	}
	clock.advance(2 * time.Minute)
	if c := m.Counters(); c.Abandoned != 0 {
		t.Fatalf("abandoned = %d after the sweep; Wait delivered the result", c.Abandoned)
	}
	// A terminal job returns at once, even to an already-ended context.
	m2 := NewManager(Options{})
	defer closeNow(t, m2)
	done, err := m2.Submit("scan", func(ctx context.Context, report func(done, total int)) (any, error) { return 1, nil })
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m2, done.ID, StateDone)
	ended, endNow := context.WithCancel(context.Background())
	endNow()
	if got, ok := m2.Wait(ended, done.ID); !ok || got.State != StateDone {
		t.Fatalf("Wait on a done job = %+v, ok=%v", got, ok)
	}
}

// TestWaitContextFirst: the waiter's context ends while the job still
// runs; Wait returns the non-terminal snapshot and leaves the job
// alone (cancelling it is the caller's decision).
func TestWaitContextFirst(t *testing.T) {
	m := NewManager(Options{})
	block := make(chan struct{})
	snap, err := m.Submit("scan", func(ctx context.Context, report func(done, total int)) (any, error) {
		<-block
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, snap.ID, StateRunning)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	got, ok := m.Wait(ctx, snap.ID)
	if !ok || got.State != StateRunning {
		t.Fatalf("Wait past its deadline = %+v, ok=%v; want the running snapshot", got, ok)
	}
	close(block)
	waitState(t, m, snap.ID, StateDone)
	closeNow(t, m)
	if _, ok := m.Wait(context.Background(), "scan-999"); ok {
		t.Fatal("Wait on an unknown id reported ok")
	}
}

// TestWaitCancelledWhileQueued: cancelling a queued job wakes its
// waiter with the cancelled snapshot; the job never runs.
func TestWaitCancelledWhileQueued(t *testing.T) {
	m := NewManager(Options{Workers: 1, QueueDepth: 2})
	block := make(chan struct{})
	blocker, err := m.Submit("scan", func(ctx context.Context, report func(done, total int)) (any, error) {
		<-block
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, blocker.ID, StateRunning)
	queued, err := m.Submit("scan", func(ctx context.Context, report func(done, total int)) (any, error) {
		t.Error("cancelled queued job ran")
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	woke := make(chan Snapshot, 1)
	go func() {
		snap, _ := m.Wait(context.Background(), queued.ID)
		woke <- snap
	}()
	if _, ok := m.Cancel(queued.ID); !ok {
		t.Fatal("cancel of the queued job failed")
	}
	select {
	case snap := <-woke:
		if snap.State != StateCancelled || !errors.Is(snap.Err, context.Canceled) {
			t.Fatalf("waiter woke with %+v, want cancelled", snap)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("waiter never woke after the queued job was cancelled")
	}
	close(block)
	closeNow(t, m)
}
