package overload

import (
	"context"
	"testing"
	"time"

	"repro/internal/overload/faultinject"
)

// guardTestConfig: a small guard — two slots, a 4-outcome volume
// floor — so tests can reach every admission verdict in a handful of
// requests. Half-open admits one probe at a time and closes after 3
// consecutive successes.
func guardTestConfig(clk *faultinject.Clock) Config {
	return Config{
		Window:       10 * time.Second,
		MinSamples:   4,
		FailureRatio: 0.5,
		CoolDown:     5 * time.Second,
		MinLimit:     1,
		MaxLimit:     2,
		TargetP99:    100 * time.Millisecond,
		Clock:        clk.Now,
	}
}

// tripGuard drives the guard's breaker open through admitted permits
// released as timeouts.
func tripGuard(t *testing.T, g *Guard) {
	t.Helper()
	for i := 0; i < 4; i++ {
		permit, rej := g.Admit(context.Background(), Interactive, false)
		if rej != nil {
			t.Fatalf("admission %d while tripping: %v", i, rej)
		}
		permit.Release(Timeout, time.Second)
	}
	if got := g.Breaker().Snapshot().State; got != StateOpen {
		t.Fatalf("breaker = %s after 4 timeouts, want open", got)
	}
}

// checkLedger asserts the two accounting invariants on a snapshot.
func checkLedger(t *testing.T, snap GuardSnapshot) {
	t.Helper()
	if snap.Received != snap.Admitted+snap.Shed {
		t.Fatalf("ledger torn: received %d != admitted %d + shed %d",
			snap.Received, snap.Admitted, snap.Shed)
	}
	if snap.Shed != snap.ShedBreakerOpen+snap.ShedCapacity {
		t.Fatalf("ledger torn: shed %d != breaker %d + capacity %d",
			snap.Shed, snap.ShedBreakerOpen, snap.ShedCapacity)
	}
}

func TestGuardLedgerCoversEveryVerdict(t *testing.T) {
	clk := faultinject.NewClock(time.Unix(1_700_000_000, 0))
	g := NewGuard(guardTestConfig(clk))

	// Two admissions fill the limit; the third is a capacity shed.
	p1, rej := g.Admit(context.Background(), Interactive, false)
	if rej != nil {
		t.Fatal(rej)
	}
	p2, rej := g.Admit(context.Background(), Interactive, false)
	if rej != nil {
		t.Fatal(rej)
	}
	if _, rej = g.Admit(context.Background(), Interactive, false); rej == nil || rej.Reason != ReasonCapacity {
		t.Fatalf("third admission = %v, want a capacity rejection", rej)
	}
	if rej.RetryAfter <= 0 {
		t.Fatalf("capacity rejection carries RetryAfter %s, want > 0", rej.RetryAfter)
	}

	// A waiting admission whose context ends is a cancelled shed
	// carrying the context's error.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, rej = g.Admit(ctx, Interactive, true); rej == nil || rej.Reason != ReasonCancelled || rej.Err != context.Canceled {
		t.Fatalf("cancelled admission = %+v, want ReasonCancelled with context.Canceled", rej)
	}

	p1.Release(Success, time.Millisecond)
	p2.Release(Timeout, time.Second)
	snap := g.Snapshot()
	checkLedger(t, snap)
	if snap.Received != 4 || snap.Admitted != 2 || snap.ShedCapacity != 2 {
		t.Fatalf("ledger = %+v, want received 4, admitted 2, capacity sheds 2", snap)
	}
	if snap.Limiter.Total != 0 {
		t.Fatalf("in-flight = %d after all releases, want 0", snap.Limiter.Total)
	}
}

func TestGuardBreakerOpenSheds(t *testing.T) {
	clk := faultinject.NewClock(time.Unix(1_700_000_000, 0))
	g := NewGuard(guardTestConfig(clk))
	tripGuard(t, g)

	_, rej := g.Admit(context.Background(), Interactive, true)
	if rej == nil || rej.Reason != ReasonBreakerOpen {
		t.Fatalf("admission under an open breaker = %v, want ReasonBreakerOpen", rej)
	}
	if rej.RetryAfter != 5*time.Second {
		t.Fatalf("RetryAfter = %s, want the full 5s cool-down", rej.RetryAfter)
	}
	snap := g.Snapshot()
	checkLedger(t, snap)
	if snap.ShedBreakerOpen != 1 {
		t.Fatalf("breaker-open sheds = %d, want 1", snap.ShedBreakerOpen)
	}

	// Cool-down over: probes are admitted one at a time, the third
	// consecutive success closes the breaker, and traffic flows again.
	clk.Advance(5 * time.Second)
	for i := 0; i < 3; i++ {
		if got := g.Breaker().Snapshot().State; i > 0 && got != StateHalfOpen {
			t.Fatalf("breaker = %s after %d successful probes, want half_open", got, i)
		}
		permit, rej := g.Admit(context.Background(), Interactive, false)
		if rej != nil {
			t.Fatalf("probe %d admission: %v", i, rej)
		}
		if !permit.probe {
			t.Fatalf("post-cool-down admission %d was not marked as a probe", i)
		}
		permit.Release(Success, time.Millisecond)
	}
	if got := g.Breaker().Snapshot().State; got != StateClosed {
		t.Fatalf("breaker = %s after 3 successful probes, want closed", got)
	}
	checkLedger(t, g.Snapshot())
}

// When the breaker grants a probe but the limiter then sheds the
// request, the probe slot must be handed back — otherwise the
// half-open phase wedges with a phantom probe in flight forever.
func TestGuardReturnsProbeOnLimiterShed(t *testing.T) {
	clk := faultinject.NewClock(time.Unix(1_700_000_000, 0))
	g := NewGuard(guardTestConfig(clk))
	tripGuard(t, g)

	// Fill the limiter out-of-band so the probe admission has no slot.
	// (The timeouts above already halved the adaptive limit, so the
	// fill count is whatever the limiter currently grants.)
	fills := 0
	for g.Limiter().Acquire(context.Background(), Interactive, false) == nil {
		fills++
	}
	if fills == 0 {
		t.Fatal("limiter granted nothing while idle")
	}
	clk.Advance(5 * time.Second)
	if _, rej := g.Admit(context.Background(), Interactive, false); rej == nil || rej.Reason != ReasonCapacity {
		t.Fatalf("probe admission with a full limiter = %v, want ReasonCapacity", rej)
	}
	if got := g.Breaker().Snapshot().ProbesInFlight; got != 0 {
		t.Fatalf("probes in flight = %d after a limiter shed, want the slot returned", got)
	}
	// The returned slot still admits the next probe.
	for ; fills > 0; fills-- {
		g.Limiter().Release(Interactive, Cancelled, 0)
	}
	permit, rej := g.Admit(context.Background(), Interactive, false)
	if rej != nil || !permit.probe {
		t.Fatalf("follow-up probe admission = (%v, %v), want a probe grant", permit, rej)
	}
	permit.Release(Success, time.Millisecond)
	checkLedger(t, g.Snapshot())
}

func TestGuardDetachedAdmission(t *testing.T) {
	clk := faultinject.NewClock(time.Unix(1_700_000_000, 0))
	g := NewGuard(guardTestConfig(clk))

	// Healthy: admitted, counted, no permit to hold.
	if rej := g.AdmitDetached(Bulk); rej != nil {
		t.Fatalf("healthy detached admission: %v", rej)
	}

	// Bulk's share of a limit of 2 is ceil(2×0.5) = 1: one tracked
	// in-flight request closes the detached bulk door.
	if err := g.Limiter().Acquire(context.Background(), Interactive, false); err != nil {
		t.Fatal(err)
	}
	if rej := g.AdmitDetached(Bulk); rej == nil || rej.Reason != ReasonCapacity {
		t.Fatalf("detached admission at bulk's share = %v, want ReasonCapacity", rej)
	}
	g.Limiter().Release(Interactive, Cancelled, 0)

	// Detached outcomes feed the breaker: four timeouts trip it and
	// detached work is then shed as breaker-open.
	for i := 0; i < 4; i++ {
		if rej := g.AdmitDetached(Bulk); rej != nil {
			t.Fatalf("detached admission %d: %v", i, rej)
		}
		g.RecordDetached(Timeout)
	}
	if got := g.Breaker().Snapshot().State; got != StateOpen {
		t.Fatalf("breaker = %s after detached timeouts, want open", got)
	}
	if rej := g.AdmitDetached(Bulk); rej == nil || rej.Reason != ReasonBreakerOpen {
		t.Fatalf("detached admission under an open breaker = %v, want ReasonBreakerOpen", rej)
	}

	// Half-open sheds detached work too — probes need a tracked slot
	// to mean anything — and hands the probe grant straight back.
	clk.Advance(5 * time.Second)
	if rej := g.AdmitDetached(Bulk); rej == nil || rej.Reason != ReasonBreakerOpen {
		t.Fatalf("detached admission while half-open = %v, want ReasonBreakerOpen", rej)
	}
	if got := g.Breaker().Snapshot().ProbesInFlight; got != 0 {
		t.Fatalf("probes in flight = %d after detached half-open shed, want 0", got)
	}
	snap := g.Snapshot()
	checkLedger(t, snap)
	if snap.Received != 8 || snap.Admitted != 5 || snap.ShedBreakerOpen != 2 || snap.ShedCapacity != 1 {
		t.Fatalf("ledger = %+v, want received 8 = admitted 5 + breaker 2 + capacity 1", snap)
	}
}

func TestGuardDoubleReleasePanics(t *testing.T) {
	clk := faultinject.NewClock(time.Unix(1_700_000_000, 0))
	g := NewGuard(guardTestConfig(clk))
	permit, rej := g.Admit(context.Background(), Interactive, false)
	if rej != nil {
		t.Fatal(rej)
	}
	permit.Release(Success, time.Millisecond)
	defer func() {
		if recover() == nil {
			t.Fatal("second Release did not panic")
		}
	}()
	permit.Release(Success, time.Millisecond)
}

// RetryAfterSeconds is the single Retry-After spelling every rejection
// path shares (breaker-open 503s, capacity 429s, the jobs queue-full
// 429 — see the server tests for the header-level assertions). The
// floor is 1: a zero tells a literal client to hammer the server in a
// zero-delay loop.
func TestRetryAfterSecondsBoundaries(t *testing.T) {
	cases := []struct {
		in   time.Duration
		want int
	}{
		{-time.Second, 1},
		{0, 1},
		{time.Nanosecond, 1},
		{999 * time.Millisecond, 1},
		{time.Second, 1},
		{time.Second + time.Nanosecond, 2},
		{1500 * time.Millisecond, 2},
		{2 * time.Second, 2},
		{90 * time.Second, 90},
	}
	for _, c := range cases {
		if got := RetryAfterSeconds(c.in); got != c.want {
			t.Errorf("RetryAfterSeconds(%s) = %d, want %d", c.in, got, c.want)
		}
	}
}
