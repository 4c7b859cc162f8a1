package overload

import (
	"context"
	"testing"
	"time"

	"repro/internal/overload/faultinject"
)

// FuzzBreaker drives a full Guard — breaker, limiter, ledger — with an
// arbitrary event sequence decoded from the fuzz input: non-waiting
// admissions across all three classes, releases with every outcome,
// detached admissions and recordings, and clock advances. Whatever the
// sequence, the structural invariants must hold at every step and
// nothing may leak: after releasing every outstanding permit the
// limiter must read idle and the breaker must hold no phantom probes.
// Everything is single-goroutine and fake-clocked, so a hang is a
// deadlock and the target is deterministic per input.
func FuzzBreaker(f *testing.F) {
	f.Add([]byte{0, 4, 0, 4})                            // admit/release churn
	f.Add([]byte{0, 1, 2, 5, 5, 5, 5, 9, 0, 4})          // trip via timeouts, wait out the cool-down, probe
	f.Add([]byte{3, 8, 3, 8, 3, 8, 3, 8, 9, 3})          // detached trips
	f.Add([]byte{0, 0, 0, 1, 2, 4, 4, 5, 6, 7, 9, 0, 4}) // mixed classes and outcomes
	f.Fuzz(func(t *testing.T, events []byte) {
		clk := faultinject.NewClock(time.Unix(1_700_000_000, 0))
		g := NewGuard(Config{
			Window:       4 * time.Second,
			MinSamples:   3,
			FailureRatio: 0.5,
			CoolDown:     2 * time.Second,
			MinLimit:     1,
			MaxLimit:     4,
			TargetP99:    50 * time.Millisecond,
			Clock:        clk.Now,
		})

		check := func(held int) {
			snap := g.Snapshot()
			if snap.Received != snap.Admitted+snap.Shed {
				t.Fatalf("ledger torn: received %d != admitted %d + shed %d",
					snap.Received, snap.Admitted, snap.Shed)
			}
			if snap.Shed != snap.ShedBreakerOpen+snap.ShedCapacity {
				t.Fatalf("ledger torn: shed %d != breaker %d + capacity %d",
					snap.Shed, snap.ShedBreakerOpen, snap.ShedCapacity)
			}
			if snap.Limiter.Total != held {
				t.Fatalf("limiter tracks %d in flight, test holds %d permits", snap.Limiter.Total, held)
			}
			if snap.Breaker.ProbesInFlight < 0 || snap.Breaker.ProbesInFlight > 1 {
				t.Fatalf("probes in flight = %d, want within [0, budget 1]", snap.Breaker.ProbesInFlight)
			}
			if s := snap.Breaker.State; s != StateClosed && s != StateOpen && s != StateHalfOpen {
				t.Fatalf("breaker in impossible state %d", s)
			}
			if snap.Limiter.Limit < 1 || snap.Limiter.Limit > 4 {
				t.Fatalf("limit = %d, want within [1, 4]", snap.Limiter.Limit)
			}
		}

		var held []*Permit
		outcomes := [4]Outcome{Success, Timeout, Errored, Cancelled}
		for _, ev := range events {
			switch ev % 10 {
			case 0, 1, 2: // admit one class, never blocking
				pri := Priority(ev % 10)
				if permit, rej := g.Admit(context.Background(), pri, false); rej == nil {
					held = append(held, permit)
				}
			case 3: // detached admission
				g.AdmitDetached(Bulk)
			case 4, 5, 6, 7: // release the oldest held permit
				if len(held) > 0 {
					held[0].Release(outcomes[ev%4], time.Duration(ev)*10*time.Millisecond)
					held = held[1:]
				}
			case 8: // detached outcome
				g.RecordDetached(outcomes[ev%4])
			case 9: // let windows, cool-downs and rate limits lapse
				clk.Advance(time.Duration(ev%4+1) * time.Second)
			}
			check(len(held))
		}

		// Drain: every permit released exactly once leaves nothing
		// behind.
		for _, p := range held {
			p.Release(Success, time.Millisecond)
		}
		check(0)
		snap := g.Snapshot()
		if snap.Limiter.InFlight != [3]int{} {
			t.Fatalf("per-class in-flight = %v after draining, want zeros", snap.Limiter.InFlight)
		}
		if snap.Breaker.ProbesInFlight != 0 {
			t.Fatalf("probes in flight = %d after draining, want 0", snap.Breaker.ProbesInFlight)
		}
	})
}
