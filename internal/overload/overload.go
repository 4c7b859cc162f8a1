// Package overload is the adaptive overload-protection layer of the
// query service: a per-dataset circuit breaker plus an AIMD
// concurrency limiter, combined behind one admission Guard.
//
// The motivating workload is HOS-Miner's lattice scan — exponential
// in dimension, so a single huge or adversarially-shaped dataset can
// produce requests whose latency is pathological by construction.
// Static semaphores bound such a dataset's concurrency but not its
// blast radius: its slow requests pile up against the shared limits
// and starve every other dataset on the process. This package makes
// the limits per dataset and reactive:
//
//   - The Breaker is a closed/open/half-open state machine driven by
//     a sliding bucketed window of request outcomes. A dataset whose
//     error+timeout ratio crosses the threshold stops being asked at
//     all for a cool-down, then earns its traffic back through a
//     bounded number of half-open probes.
//
//   - The Limiter owns a concurrency limit that adapts by
//     additive-increase/multiplicative-decrease on the observed p99
//     latency of interactive queries: when the dataset answers
//     comfortably under the target the limit creeps up toward its
//     maximum, and when p99 blows through the target (or requests
//     time out outright) the limit halves. Admission is
//     priority-aware: every class shares the same limit, but a class
//     may only fill its fraction of it — interactive queries get all
//     of it, batches 3/4, bulk scans 1/2 — so as the limit shrinks
//     under pressure, the cheapest-to-retry traffic is shed first.
//
//   - The Guard wires the two together and keeps the admission
//     ledger: every decision lands in exactly one of admitted or
//     shed, in the same critical section that made it, so the
//     invariant received == admitted + shed holds in every concurrent
//     snapshot (the same discipline the server's hits+misses==queries
//     accounting follows).
//
// Nothing in the package reads the wall clock directly: every
// time-driven transition (window expiry, cool-down, decrease
// rate-limiting) goes through an injected clock, which is what lets
// the fault-injection suite prove every state transition without a
// single time.Sleep.
package overload

import (
	"math"
	"time"
)

// Priority is a request's admission class. Lower values outrank
// higher ones: under pressure the highest-numbered (cheapest to
// retry) classes are shed first.
type Priority int

const (
	// Interactive is /query traffic — a human or a latency-sensitive
	// caller is waiting; it is shed last and may briefly wait for a
	// slot.
	Interactive Priority = iota
	// Batch is /batch traffic — programmatic, amortised, retryable;
	// it is shed before interactive queries.
	Batch
	// Bulk is /scan and /jobs/scan traffic — whole-dataset sweeps
	// with no request deadline to miss; it is shed first.
	Bulk

	numPriorities
)

// Share is the fraction of the adaptive concurrency limit the class
// may fill. Admission requires total in-flight < ceil(limit×Share),
// so as the limit shrinks, Bulk hits its ceiling first, then Batch,
// and Interactive keeps the full limit to itself.
func (p Priority) Share() float64 {
	switch p {
	case Interactive:
		return 1.0
	case Batch:
		return 0.75
	default:
		return 0.5
	}
}

// String names the class (the spelling /stats and errors use).
func (p Priority) String() string {
	switch p {
	case Interactive:
		return "interactive"
	case Batch:
		return "batch"
	case Bulk:
		return "bulk"
	default:
		return "priority(?)"
	}
}

// Outcome classifies one finished admitted request for the breaker
// window and the limiter's latency signal.
type Outcome int

const (
	// Success: the request computed an answer.
	Success Outcome = iota
	// Timeout: the request exceeded its deadline — the breaker's
	// primary trip signal (a pathological-latency dataset produces
	// these, not Errored).
	Timeout
	// Errored: the engine failed the request.
	Errored
	// Cancelled: the client walked away mid-computation. Not the
	// dataset's fault, so it feeds neither the breaker window nor the
	// latency signal; it only releases the admission slot.
	Cancelled
)

// Config tunes one Guard (breaker + limiter). The zero value selects
// the defaults noted on each field.
type Config struct {
	// ---- breaker ----

	// Window is the sliding outcome window the failure ratio is
	// computed over (default 10s).
	Window time.Duration
	// Buckets subdivides Window; outcomes expire one bucket at a time
	// (default 10).
	Buckets int
	// MinSamples is the volume floor: the breaker never trips on
	// fewer outcomes in the window (default 10).
	MinSamples int
	// FailureRatio trips the breaker when (timeouts+errors)/total in
	// the window reaches it (default 0.5).
	FailureRatio float64
	// CoolDown is how long an open breaker rejects everything before
	// admitting half-open probes (default 5s). It is also the
	// Retry-After hint rejected requests carry.
	CoolDown time.Duration
	// ProbeBudget bounds concurrently in-flight half-open probes
	// (default 1).
	ProbeBudget int
	// ProbeSuccesses is how many consecutive probe successes close
	// the breaker again (default 3).
	ProbeSuccesses int

	// ---- limiter ----

	// MinLimit / MaxLimit bound the adaptive concurrency limit
	// (defaults 1 and 16). The limit starts at MaxLimit: the service
	// assumes health and reacts to evidence, rather than slow-starting
	// every fresh dataset.
	MinLimit int
	MaxLimit int
	// TargetP99 is the latency the limiter defends: a windowed p99
	// above it triggers a multiplicative decrease, below it an
	// additive increase (default 1s — the server derives a better
	// default from its query deadline).
	TargetP99 time.Duration
	// LatencyWindow is how many recent interactive latencies feed the
	// p99 (default 128).
	LatencyWindow int
	// AdjustEvery is the AIMD cadence in completed samples: every
	// AdjustEvery-th latency observation compares p99 to TargetP99
	// and moves the limit (default 16).
	AdjustEvery int
	// DecreaseFactor is the multiplicative-decrease multiplier
	// (default 0.5).
	DecreaseFactor float64
	// DecreaseInterval rate-limits multiplicative decreases so one
	// burst of timeouts collapses the limit once, not once per
	// timeout (default 1s).
	DecreaseInterval time.Duration
	// ClassCaps are optional static per-class in-flight ceilings
	// layered under the adaptive limit (0 = none), so an operator's
	// hard resource bounds survive the adaptive layer. The server
	// fills zero entries with its own per-class defaults.
	ClassCaps [3]int

	// Clock substitutes the time source (tests); nil = time.Now.
	Clock func() time.Time
}

func (c *Config) setDefaults() {
	if c.Window <= 0 {
		c.Window = 10 * time.Second
	}
	if c.Buckets <= 0 {
		c.Buckets = 10
	}
	if c.MinSamples <= 0 {
		c.MinSamples = 10
	}
	if c.FailureRatio <= 0 || c.FailureRatio > 1 {
		c.FailureRatio = 0.5
	}
	if c.CoolDown <= 0 {
		c.CoolDown = 5 * time.Second
	}
	if c.ProbeBudget <= 0 {
		c.ProbeBudget = 1
	}
	if c.ProbeSuccesses <= 0 {
		c.ProbeSuccesses = 3
	}
	if c.MinLimit <= 0 {
		c.MinLimit = 1
	}
	if c.MaxLimit <= 0 {
		c.MaxLimit = 16
	}
	if c.MaxLimit < c.MinLimit {
		c.MaxLimit = c.MinLimit
	}
	if c.TargetP99 <= 0 {
		c.TargetP99 = time.Second
	}
	if c.LatencyWindow <= 0 {
		c.LatencyWindow = 128
	}
	if c.AdjustEvery <= 0 {
		c.AdjustEvery = 16
	}
	if c.DecreaseFactor <= 0 || c.DecreaseFactor >= 1 {
		c.DecreaseFactor = 0.5
	}
	if c.DecreaseInterval <= 0 {
		c.DecreaseInterval = time.Second
	}
	if c.Clock == nil {
		c.Clock = time.Now
	}
}

// RetryAfterSeconds renders a wait estimate as a Retry-After header
// value: whole seconds, rounded up, floored at 1 — "Retry-After: 0"
// invites a literal client into a zero-delay hammer loop, so no
// rejection path (breaker cool-down, limiter shed, job-queue-full)
// may ever emit it. This is the single helper every such path shares.
func RetryAfterSeconds(d time.Duration) int {
	secs := int(math.Ceil(d.Seconds()))
	if secs < 1 {
		secs = 1
	}
	return secs
}
