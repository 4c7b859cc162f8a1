package overload

import (
	"testing"
	"time"

	"repro/internal/overload/faultinject"
)

// The breaker's every transition is time-driven through the injected
// clock, so these tables advance a faultinject.Clock explicitly and
// never sleep: a scenario that needs the cool-down to lapse advances
// the clock by the cool-down, and the whole file runs in microseconds.

// breakerTestConfig is the shared parameterisation: a 10s window (so
// 1s buckets), a 10-outcome volume floor, a 50% trip ratio and a 5s
// cool-down; half-open admits a single probe and closes after 3
// consecutive successes.
func breakerTestConfig(clk *faultinject.Clock) Config {
	return Config{
		Window:       10 * time.Second,
		MinSamples:   10,
		FailureRatio: 0.5,
		CoolDown:     5 * time.Second,
		Clock:        clk.Now,
	}
}

// bstep is one action-or-assertion in a breaker scenario. Fields
// compose: the clock advances first, then records, then probes, then
// the explicit Allow check, then the snapshot assertions.
type bstep struct {
	advance time.Duration
	// record feeds outcomes as non-probe completions.
	record []Outcome
	// probe runs Allow — which must grant a probe — then records each
	// outcome against that probe slot.
	probe []Outcome
	// checkAllow asserts Allow's verdict without recording an outcome.
	// A granted probe slot is handed back via CancelProbe unless
	// keepProbe is set (budget-exhaustion scenarios hold theirs).
	checkAllow bool
	wantOK     bool
	wantProbe  bool
	wantRetry  time.Duration // asserted only when > 0
	keepProbe  bool
	cancel     bool // call CancelProbe

	wantState *BreakerState
	wantOpens int64 // asserted only when > 0
}

func st(s BreakerState) *BreakerState { return &s }

// repeat builds n copies of one outcome.
func repeat(o Outcome, n int) []Outcome {
	out := make([]Outcome, n)
	for i := range out {
		out[i] = o
	}
	return out
}

func TestBreakerStateMachine(t *testing.T) {
	trip := bstep{record: repeat(Timeout, 10), wantState: st(StateOpen), wantOpens: 1}

	tests := []struct {
		name  string
		steps []bstep
	}{
		{
			name: "volume floor holds below min samples",
			steps: []bstep{
				{record: repeat(Timeout, 9), wantState: st(StateClosed)},
				{checkAllow: true, wantOK: true, wantProbe: false},
			},
		},
		{
			name: "trips at the failure ratio once the floor is met",
			steps: []bstep{
				{record: append(repeat(Success, 5), repeat(Timeout, 5)...),
					wantState: st(StateOpen), wantOpens: 1},
				{checkAllow: true, wantOK: false, wantRetry: 5 * time.Second},
			},
		},
		{
			name: "errors and timeouts both count against, cancels count for neither",
			steps: []bstep{
				{record: append(repeat(Cancelled, 30), append(repeat(Success, 4), repeat(Errored, 4)...)...),
					wantState: st(StateClosed)}, // 8 counted samples: under the floor
				{record: []Outcome{Success, Errored},
					wantState: st(StateOpen), wantOpens: 1}, // 10 samples, 5 failures
			},
		},
		{
			name: "window expiry forgets old outcomes",
			steps: []bstep{
				{record: repeat(Timeout, 5), wantState: st(StateClosed)},
				// A full window later those five failures have expired:
				// the new traffic alone is under the volume floor, where
				// the combined ten (ratio 0.9) would have tripped.
				{advance: 10 * time.Second,
					record:    append(repeat(Timeout, 4), Success),
					wantState: st(StateClosed)},
				// Another five failures inside the live window do trip.
				{record: repeat(Timeout, 5), wantState: st(StateOpen), wantOpens: 1},
			},
		},
		{
			name: "open rejects with the remaining cool-down",
			steps: []bstep{
				trip,
				{checkAllow: true, wantOK: false, wantRetry: 5 * time.Second},
				{advance: 2 * time.Second, checkAllow: true, wantOK: false, wantRetry: 3 * time.Second},
				{advance: 3 * time.Second, checkAllow: true, wantOK: true, wantProbe: true,
					wantState: st(StateHalfOpen)},
			},
		},
		{
			name: "half-open grants probes only up to the budget",
			steps: []bstep{
				trip,
				{advance: 5 * time.Second, checkAllow: true, wantOK: true, wantProbe: true, keepProbe: true},
				// The probe is in flight: rejected with one bucket's wait.
				{checkAllow: true, wantOK: false, wantRetry: time.Second,
					wantState: st(StateHalfOpen)},
			},
		},
		{
			name: "consecutive probe successes close with a fresh window",
			steps: []bstep{
				trip,
				{advance: 5 * time.Second, probe: repeat(Success, 2), wantState: st(StateHalfOpen)},
				{probe: []Outcome{Success}, wantState: st(StateClosed)},
				// The re-closed window starts empty: nine failures sit
				// under the volume floor again, the tenth re-trips.
				{record: repeat(Timeout, 9), wantState: st(StateClosed), wantOpens: 1},
				{record: []Outcome{Timeout}, wantState: st(StateOpen), wantOpens: 2},
			},
		},
		{
			name: "probe failure re-opens immediately",
			steps: []bstep{
				trip,
				{advance: 5 * time.Second, probe: []Outcome{Timeout},
					wantState: st(StateOpen), wantOpens: 2},
				{checkAllow: true, wantOK: false, wantRetry: 5 * time.Second},
			},
		},
		{
			name: "cancelled probe is neutral and frees its slot",
			steps: []bstep{
				trip,
				{advance: 5 * time.Second, probe: []Outcome{Cancelled}, wantState: st(StateHalfOpen)},
				// The slot came back, and the cancel did not count toward
				// (or reset) the consecutive-success run.
				{probe: repeat(Success, 3), wantState: st(StateClosed)},
			},
		},
		{
			name: "straggler outcomes cannot re-trip an open or probing breaker",
			steps: []bstep{
				trip,
				// Stragglers landing while open are ignored outright.
				{record: repeat(Timeout, 20), wantState: st(StateOpen), wantOpens: 1},
				{advance: 5 * time.Second, checkAllow: true, wantOK: true, wantProbe: true,
					wantState: st(StateHalfOpen)},
				// And while half-open: only probes speak for the dataset.
				{record: repeat(Timeout, 20), wantState: st(StateHalfOpen), wantOpens: 1},
				{probe: repeat(Success, 3), wantState: st(StateClosed), wantOpens: 1},
			},
		},
		{
			name: "CancelProbe returns the probe slot",
			steps: []bstep{
				trip,
				{advance: 5 * time.Second, checkAllow: true, wantOK: true, wantProbe: true, keepProbe: true},
				{checkAllow: true, wantOK: false},
				{cancel: true},
				{checkAllow: true, wantOK: true, wantProbe: true, wantState: st(StateHalfOpen)},
			},
		},
	}

	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			clk := faultinject.NewClock(time.Unix(1_700_000_000, 0))
			b := NewBreaker(breakerTestConfig(clk))
			for i, step := range tc.steps {
				if step.advance > 0 {
					clk.Advance(step.advance)
				}
				for _, out := range step.record {
					b.Record(out, false)
				}
				for _, out := range step.probe {
					ok, probe, _ := b.Allow()
					if !ok || !probe {
						t.Fatalf("step %d: Allow() = (%v, %v), want a probe grant", i, ok, probe)
					}
					b.Record(out, true)
				}
				if step.checkAllow {
					ok, probe, retry := b.Allow()
					if ok != step.wantOK || probe != step.wantProbe {
						t.Fatalf("step %d: Allow() = (%v, %v), want (%v, %v)",
							i, ok, probe, step.wantOK, step.wantProbe)
					}
					if !ok && step.wantRetry > 0 && retry != step.wantRetry {
						t.Fatalf("step %d: retryAfter = %s, want %s", i, retry, step.wantRetry)
					}
					if ok && probe && !step.keepProbe {
						b.CancelProbe()
					}
				}
				if step.cancel {
					b.CancelProbe()
				}
				snap := b.Snapshot()
				if step.wantState != nil && snap.State != *step.wantState {
					t.Fatalf("step %d: state = %s, want %s", i, snap.State, *step.wantState)
				}
				if step.wantOpens > 0 && snap.Opens != step.wantOpens {
					t.Fatalf("step %d: opens = %d, want %d", i, snap.Opens, step.wantOpens)
				}
			}
		})
	}
}

// The window totals surfaced in snapshots follow records and expiry.
func TestBreakerSnapshotWindowTotals(t *testing.T) {
	clk := faultinject.NewClock(time.Unix(1_700_000_000, 0))
	b := NewBreaker(breakerTestConfig(clk))
	b.Record(Success, false)
	b.Record(Success, false)
	b.Record(Timeout, false)
	if snap := b.Snapshot(); snap.WindowSuccesses != 2 || snap.WindowFailures != 1 {
		t.Fatalf("window = %d/%d, want 2 successes / 1 failure", snap.WindowSuccesses, snap.WindowFailures)
	}
	clk.Advance(10 * time.Second)
	if snap := b.Snapshot(); snap.WindowSuccesses != 0 || snap.WindowFailures != 0 {
		t.Fatalf("expired window = %d/%d, want empty", snap.WindowSuccesses, snap.WindowFailures)
	}
}
