package overload

import (
	"sync"
	"time"
)

// BreakerState is one phase of the breaker's lifecycle.
type BreakerState uint8

const (
	// StateClosed: traffic flows; outcomes feed the sliding window.
	StateClosed BreakerState = iota
	// StateOpen: everything is rejected until the cool-down lapses.
	StateOpen
	// StateHalfOpen: one request at a time is admitted as a probe;
	// probeSuccesses consecutive successes close the breaker, and a
	// failure re-opens it.
	StateHalfOpen
)

const (
	// buckets subdivides the breaker's Window: outcomes expire one
	// bucket at a time.
	buckets = 10
	// probeSuccesses is how many consecutive half-open probe successes
	// close the breaker again.
	probeSuccesses = 3
)

// String names the state (the spelling /stats serves).
func (s BreakerState) String() string {
	switch s {
	case StateClosed:
		return "closed"
	case StateOpen:
		return "open"
	case StateHalfOpen:
		return "half_open"
	default:
		return "state(?)"
	}
}

// Breaker is a per-dataset circuit breaker: a sliding bucketed
// window of outcomes drives closed→open, a cool-down drives
// open→half-open, and a run of probe successes, one probe at a time,
// drives half-open→closed. All methods are safe for concurrent use; all
// time-driven transitions read the injected clock, never the wall
// clock.
type Breaker struct {
	cfg Config

	mu        sync.Mutex
	state     BreakerState
	openedAt  time.Time
	opens     int64 // cumulative closed/half-open → open transitions
	probes    int   // half-open probes in flight: 0 or 1
	probeSucc int   // consecutive probe successes this half-open phase

	// The sliding window: buckets counters of bucketDur each. A
	// record lands in the bucket whose interval covers now; reading
	// first expires buckets older than Window. The window only
	// accumulates while closed — open and half-open phases are judged
	// by cool-down and probes, not ratios.
	bucketDur time.Duration
	starts    [buckets]time.Time
	succ      [buckets]int64
	fail      [buckets]int64
}

// NewBreaker builds a breaker over the config's breaker fields
// (defaults applied).
func NewBreaker(cfg Config) *Breaker {
	cfg.setDefaults()
	return &Breaker{cfg: cfg, bucketDur: cfg.Window / buckets}
}

// bucketFor returns the index of the live bucket for now, resetting
// any bucket whose recorded interval has lapsed out of the window.
// Bucket i holds the interval starting at starts[i]; a bucket is
// reused once now has moved past starts[i]+Window.
func (b *Breaker) bucketFor(now time.Time) int {
	idx := int((now.UnixNano() / int64(b.bucketDur)) % int64(len(b.starts)))
	if idx < 0 {
		idx += len(b.starts)
	}
	start := now.Truncate(b.bucketDur)
	if !b.starts[idx].Equal(start) {
		b.starts[idx] = start
		b.succ[idx] = 0
		b.fail[idx] = 0
	}
	return idx
}

// totalsLocked sums the window's outcomes, skipping expired buckets.
func (b *Breaker) totalsLocked(now time.Time) (succ, fail int64) {
	for i := range b.starts {
		if b.starts[i].IsZero() || now.Sub(b.starts[i]) >= b.cfg.Window {
			continue
		}
		succ += b.succ[i]
		fail += b.fail[i]
	}
	return succ, fail
}

// resetWindowLocked drops every recorded outcome — the clean slate a
// re-closed breaker starts from.
func (b *Breaker) resetWindowLocked() {
	for i := range b.starts {
		b.starts[i] = time.Time{}
		b.succ[i] = 0
		b.fail[i] = 0
	}
}

// Allow decides admission. ok=false rejects with retryAfter (the
// remaining cool-down, or the bucket duration for a half-open phase
// whose probe is in flight). ok=true with probe=true admits the
// request as a half-open probe: its Record (or CancelProbe) decides
// the breaker's fate.
func (b *Breaker) Allow() (ok, probe bool, retryAfter time.Duration) {
	now := b.cfg.Clock()
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case StateClosed:
		return true, false, 0
	case StateOpen:
		if wait := b.cfg.CoolDown - now.Sub(b.openedAt); wait > 0 {
			return false, false, wait
		}
		// Cool-down served: move to half-open and fall through to its
		// probe admission.
		b.state = StateHalfOpen
		b.probes = 0
		b.probeSucc = 0
		fallthrough
	default: // StateHalfOpen
		if b.probes == 0 {
			b.probes = 1
			return true, true, 0
		}
		// The in-flight probe will answer soon — one bucket interval
		// is an honest "come back shortly".
		return false, false, b.bucketDur
	}
}

// Record feeds one finished request back. probe must be the flag
// Allow returned for it. Cancelled outcomes release probe slots but
// never count for or against the dataset.
func (b *Breaker) Record(out Outcome, probe bool) {
	now := b.cfg.Clock()
	b.mu.Lock()
	defer b.mu.Unlock()
	if probe {
		b.recordProbeLocked(out, now)
		return
	}
	// Non-probe outcomes only matter while closed: stragglers that
	// were admitted before a trip must not re-open a breaker that is
	// already probing its way back, nor pollute the fresh window.
	if b.state != StateClosed {
		return
	}
	if out == Cancelled {
		return
	}
	idx := b.bucketFor(now)
	if out == Success {
		b.succ[idx]++
	} else {
		b.fail[idx]++
	}
	succ, fail := b.totalsLocked(now)
	total := succ + fail
	if total >= int64(b.cfg.MinSamples) &&
		float64(fail) >= b.cfg.FailureRatio*float64(total) {
		b.tripLocked(now)
	}
}

// recordProbeLocked takes the verdict of the one probe in flight.
// Nothing else moves the breaker out of half-open while that probe
// runs, so the verdict always lands there.
func (b *Breaker) recordProbeLocked(out Outcome, now time.Time) {
	b.probes = 0
	switch out {
	case Success:
		b.probeSucc++
		if b.probeSucc >= probeSuccesses {
			b.state = StateClosed
			b.resetWindowLocked()
		}
	case Cancelled:
		// The client gave up; the dataset proved nothing either way.
	default: // Timeout, Errored
		b.tripLocked(now)
	}
}

// CancelProbe returns an unused probe slot — the Guard calls it when
// the breaker admitted a probe but the limiter then shed the request,
// so no outcome will ever be recorded for it.
func (b *Breaker) CancelProbe() {
	b.mu.Lock()
	b.probes = 0
	b.mu.Unlock()
}

// tripLocked opens the breaker (from closed or half-open).
func (b *Breaker) tripLocked(now time.Time) {
	b.state = StateOpen
	b.openedAt = now
	b.opens++
	b.probeSucc = 0
	b.resetWindowLocked()
}

// BreakerSnapshot is a point-in-time view for /stats and tests.
type BreakerSnapshot struct {
	State BreakerState
	// Opens counts cumulative trips (closed/half-open → open).
	Opens int64
	// WindowSuccesses/WindowFailures are the live window totals.
	WindowSuccesses int64
	WindowFailures  int64
	// ProbesInFlight is the current half-open probe occupancy.
	ProbesInFlight int
}

// Snapshot reads the breaker's current state.
func (b *Breaker) Snapshot() BreakerSnapshot {
	now := b.cfg.Clock()
	b.mu.Lock()
	defer b.mu.Unlock()
	succ, fail := b.totalsLocked(now)
	return BreakerSnapshot{
		State:           b.state,
		Opens:           b.opens,
		WindowSuccesses: succ,
		WindowFailures:  fail,
		ProbesInFlight:  b.probes,
	}
}
