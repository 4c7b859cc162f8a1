package overload

import (
	"context"
	"fmt"
	"sync"
	"time"
)

// Reason says why a request was shed.
type Reason int

const (
	// ReasonBreakerOpen: the dataset's breaker is open (or its probe
	// budget is spent). Maps to 503 + Retry-After.
	ReasonBreakerOpen Reason = iota
	// ReasonCapacity: the class's share of the concurrency limit (or
	// its static cap) is full. Maps to 429 for fail-fast classes and
	// 503 for an interactive request that waited out its deadline.
	ReasonCapacity
	// ReasonCancelled: the client's context ended while the request
	// waited for a slot — counted as shed (it was never admitted) but
	// reported 408-family, the client's own doing.
	ReasonCancelled
)

// String names the reason (error messages and tests).
func (r Reason) String() string {
	switch r {
	case ReasonBreakerOpen:
		return "breaker_open"
	case ReasonCapacity:
		return "capacity"
	case ReasonCancelled:
		return "cancelled"
	default:
		return "reason(?)"
	}
}

// Rejection describes one shed request.
type Rejection struct {
	Reason     Reason
	RetryAfter time.Duration
	// Err is the context error for ReasonCancelled, nil otherwise.
	Err error
}

// Error renders the rejection for logs.
func (r *Rejection) Error() string {
	return fmt.Sprintf("overload: shed (%s, retry in %s)", r.Reason, r.RetryAfter)
}

// Permit is one admitted request. Exactly one Release must follow.
type Permit struct {
	g        *Guard
	pri      Priority
	probe    bool
	released bool
}

// Release finishes the request: the slot frees, the breaker learns
// the outcome, and (for successful interactive requests) the latency
// feeds the AIMD signal. Releasing twice panics — a leaked or
// double-released permit is an accounting bug, not a runtime
// condition to tolerate.
func (p *Permit) Release(out Outcome, latency time.Duration) {
	if p.released {
		panic("overload: permit released twice")
	}
	p.released = true
	p.g.limiter.Release(p.pri, out, latency)
	p.g.breaker.Record(out, p.probe)
}

// Guard is one dataset's admission gate: breaker, then limiter, with
// every decision landing in the ledger. received == admitted + shed
// and shed == shedBreaker + shedCapacity hold in every snapshot
// because each decision commits its counters in one critical section.
type Guard struct {
	breaker *Breaker
	limiter *Limiter

	ctr struct {
		mu                        sync.Mutex
		received, admitted, shed  int64
		shedBreaker, shedCapacity int64
	}
}

// NewGuard builds a guard from one config (defaults applied).
func NewGuard(cfg Config) *Guard {
	cfg.setDefaults()
	return &Guard{
		breaker: NewBreaker(cfg),
		limiter: NewLimiter(cfg),
	}
}

// Breaker exposes the guard's breaker (tests, detached recording).
func (g *Guard) Breaker() *Breaker { return g.breaker }

// Limiter exposes the guard's limiter (tests).
func (g *Guard) Limiter() *Limiter { return g.limiter }

// countAdmitted / countShed commit one decision to the ledger.
func (g *Guard) countAdmitted() {
	g.ctr.mu.Lock()
	g.ctr.received++
	g.ctr.admitted++
	g.ctr.mu.Unlock()
}

func (g *Guard) countShed(r Reason) {
	g.ctr.mu.Lock()
	g.ctr.received++
	g.ctr.shed++
	if r == ReasonBreakerOpen {
		g.ctr.shedBreaker++
	} else {
		g.ctr.shedCapacity++
	}
	g.ctr.mu.Unlock()
}

// Admit runs the full admission sequence for class pri: breaker
// first (a rejection carries the remaining cool-down as RetryAfter),
// then the limiter. wait=true lets the request queue for a slot
// until ctx ends — the interactive contract; fail-fast classes pass
// false and are shed immediately with a Retry-After derived from the
// limiter's recent latency.
func (g *Guard) Admit(ctx context.Context, pri Priority, wait bool) (*Permit, *Rejection) {
	ok, probe, retry := g.breaker.Allow()
	if !ok {
		g.countShed(ReasonBreakerOpen)
		return nil, &Rejection{Reason: ReasonBreakerOpen, RetryAfter: retry}
	}
	if err := g.limiter.Acquire(ctx, pri, wait); err != nil {
		if probe {
			g.breaker.CancelProbe()
		}
		rej := &Rejection{Reason: ReasonCapacity, RetryAfter: g.capacityRetry()}
		if err != ErrAtLimit {
			rej.Reason = ReasonCancelled
			rej.Err = err
		}
		g.countShed(rej.Reason)
		return nil, rej
	}
	g.countAdmitted()
	return &Permit{g: g, pri: pri, probe: probe}, nil
}

// AdmitDetached admits work whose execution the limiter does not
// track — async job submissions, bounded by their own worker pool.
// The breaker still gates it, and the priority ladder still applies
// at the instant of submission; in the half-open phase detached work
// is shed outright (probes need a tracked in-flight slot to be
// meaningful). The outcome comes back through RecordDetached.
func (g *Guard) AdmitDetached(pri Priority) *Rejection {
	ok, probe, retry := g.breaker.Allow()
	if !ok {
		g.countShed(ReasonBreakerOpen)
		return &Rejection{Reason: ReasonBreakerOpen, RetryAfter: retry}
	}
	if probe {
		g.breaker.CancelProbe()
		g.countShed(ReasonBreakerOpen)
		return &Rejection{Reason: ReasonBreakerOpen, RetryAfter: retry}
	}
	ls := g.limiter.Snapshot()
	if ls.Total >= g.limiter.effCap(pri) {
		g.countShed(ReasonCapacity)
		return &Rejection{Reason: ReasonCapacity, RetryAfter: g.capacityRetry()}
	}
	g.countAdmitted()
	return nil
}

// RecordDetached feeds a detached admission's outcome to the breaker.
func (g *Guard) RecordDetached(out Outcome) {
	g.breaker.Record(out, false)
}

// capacityRetry estimates how long a capacity-shed caller should
// wait: roughly one request's worth of current latency, floored at
// one second by the shared header helper downstream.
func (g *Guard) capacityRetry() time.Duration {
	if p99 := g.limiter.P99(); p99 > 0 {
		return p99
	}
	return time.Second
}

// effCap exposes the limiter's per-class ceiling for detached
// admission checks.
func (l *Limiter) effCap(p Priority) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.effCapLocked(p)
}

// GuardSnapshot is the /stats rendering of one guard.
type GuardSnapshot struct {
	Breaker BreakerSnapshot
	Limiter LimiterSnapshot
	// The ledger: Received == Admitted + Shed and Shed ==
	// ShedBreakerOpen + ShedCapacity in every snapshot.
	Received        int64
	Admitted        int64
	Shed            int64
	ShedBreakerOpen int64
	ShedCapacity    int64
}

// Snapshot reads the guard. The ledger comes from one critical
// section, so its invariants hold even under concurrent admission.
func (g *Guard) Snapshot() GuardSnapshot {
	g.ctr.mu.Lock()
	snap := GuardSnapshot{
		Received:        g.ctr.received,
		Admitted:        g.ctr.admitted,
		Shed:            g.ctr.shed,
		ShedBreakerOpen: g.ctr.shedBreaker,
		ShedCapacity:    g.ctr.shedCapacity,
	}
	g.ctr.mu.Unlock()
	snap.Breaker = g.breaker.Snapshot()
	snap.Limiter = g.limiter.Snapshot()
	return snap
}
