package overload

import (
	"context"
	"errors"
	"math"
	"sort"
	"sync"
	"time"
)

// ErrAtLimit rejects a non-waiting acquire when the class's share of
// the adaptive limit (or its static cap) is full — the signal the
// HTTP layer turns into 429.
var ErrAtLimit = errors.New("overload: concurrency limit reached")

const (
	// latencyWindow is how many recent interactive latencies feed the
	// p99.
	latencyWindow = 128
	// adjustEvery is the AIMD cadence in completed samples: every
	// adjustEvery-th latency observation compares p99 to TargetP99 and
	// moves the limit.
	adjustEvery = 16
	// decreaseFactor is the multiplicative-decrease multiplier.
	decreaseFactor = 0.5
	// decreaseInterval rate-limits multiplicative decreases so one
	// burst of timeouts collapses the limit once, not once per
	// timeout.
	decreaseInterval = time.Second
)

// Limiter is an AIMD concurrency limiter with priority-aware
// admission. One adaptive limit L ∈ [MinLimit, MaxLimit] is shared by
// all classes; class p may only be admitted while total in-flight <
// ceil(L × p.Share()), and optionally while its own in-flight count
// is under its static cap. L moves by additive increase (+1) when the
// windowed p99 of interactive latencies sits at or under TargetP99,
// and by multiplicative decrease (×decreaseFactor, rate-limited to
// one per decreaseInterval) when p99 overshoots or a request times
// out outright.
type Limiter struct {
	cfg Config

	mu       sync.Mutex
	limit    float64 // continuous so repeated MD/AI compose smoothly
	inflight [numPriorities]int
	total    int
	waiters  []chan struct{} // FIFO of blocked interactive acquires

	lat     [latencyWindow]time.Duration // interactive latency ring feeding p99
	latNext int
	latFull bool
	samples int // observations since the last AIMD adjustment

	lastDecrease time.Time
}

// NewLimiter builds a limiter over the config's limiter fields
// (defaults applied). The limit starts at MaxLimit.
func NewLimiter(cfg Config) *Limiter {
	cfg.setDefaults()
	return &Limiter{cfg: cfg, limit: float64(cfg.MaxLimit)}
}

// effCapLocked is the total-in-flight ceiling class p admits under.
func (l *Limiter) effCapLocked(p Priority) int {
	return int(math.Ceil(l.limit * p.Share()))
}

// tryLocked admits class p if both its static cap and its share of
// the adaptive limit have room.
func (l *Limiter) tryLocked(p Priority) bool {
	if c := l.cfg.ClassCaps[p]; c > 0 && l.inflight[p] >= c {
		return false
	}
	if l.total >= l.effCapLocked(p) {
		return false
	}
	l.inflight[p]++
	l.total++
	return true
}

// Acquire takes an admission slot for class p. When wait is false a
// full class fails immediately with ErrAtLimit; when true (the
// interactive path) the caller queues FIFO until a slot frees or ctx
// ends, in which case ctx.Err() is returned.
func (l *Limiter) Acquire(ctx context.Context, p Priority, wait bool) error {
	l.mu.Lock()
	for {
		if l.tryLocked(p) {
			l.mu.Unlock()
			return nil
		}
		if !wait {
			l.mu.Unlock()
			return ErrAtLimit
		}
		w := make(chan struct{}, 1)
		l.waiters = append(l.waiters, w)
		l.mu.Unlock()
		select {
		case <-w:
			l.mu.Lock() // woken: retry under the lock
		case <-ctx.Done():
			l.mu.Lock()
			for i, cand := range l.waiters {
				if cand == w {
					l.waiters = append(l.waiters[:i], l.waiters[i+1:]...)
					break
				}
			}
			// A wake-up may have raced the cancellation; it must not
			// die with this waiter, or a freed slot goes unused while
			// other waiters starve.
			select {
			case <-w:
				l.wakeLocked()
			default:
			}
			l.mu.Unlock()
			return ctx.Err()
		}
	}
}

// wakeLocked signals the oldest waiter to retry.
func (l *Limiter) wakeLocked() {
	if len(l.waiters) > 0 {
		w := l.waiters[0]
		l.waiters = l.waiters[1:]
		w <- struct{}{}
	}
}

// Release returns class p's slot and feeds the AIMD signal: the
// latency of successful interactive requests goes into the p99 ring,
// and a Timeout outcome (any class) triggers an immediate — but
// rate-limited — multiplicative decrease.
func (l *Limiter) Release(p Priority, out Outcome, latency time.Duration) {
	now := l.cfg.Clock()
	l.mu.Lock()
	if l.inflight[p] > 0 {
		l.inflight[p]--
		l.total--
	}
	switch {
	case out == Timeout:
		l.decreaseLocked(now)
	case out == Success && p == Interactive:
		l.lat[l.latNext] = latency
		l.latNext++
		if l.latNext == len(l.lat) {
			l.latNext = 0
			l.latFull = true
		}
		l.samples++
		if l.samples >= adjustEvery {
			l.samples = 0
			if l.p99Locked() > l.cfg.TargetP99 {
				l.decreaseLocked(now)
			} else if l.limit < float64(l.cfg.MaxLimit) {
				l.limit = math.Min(float64(l.cfg.MaxLimit), l.limit+1)
			}
		}
	}
	l.wakeLocked()
	l.mu.Unlock()
}

// decreaseLocked is the multiplicative decrease, at most once per
// decreaseInterval so a burst of timeouts collapses the limit once.
func (l *Limiter) decreaseLocked(now time.Time) {
	if !l.lastDecrease.IsZero() && now.Sub(l.lastDecrease) < decreaseInterval {
		return
	}
	l.lastDecrease = now
	l.limit = math.Max(float64(l.cfg.MinLimit), l.limit*decreaseFactor)
}

// p99Locked reads the ring's 99th-percentile latency (0 when empty).
func (l *Limiter) p99Locked() time.Duration {
	n := l.latNext
	if l.latFull {
		n = len(l.lat)
	}
	if n == 0 {
		return 0
	}
	cp := make([]time.Duration, n)
	copy(cp, l.lat[:n])
	sort.Slice(cp, func(a, b int) bool { return cp[a] < cp[b] })
	rank := int(math.Ceil(0.99*float64(n))) - 1
	if rank < 0 {
		rank = 0
	}
	return cp[rank]
}

// P99 reads the current windowed interactive p99.
func (l *Limiter) P99() time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.p99Locked()
}

// LimiterSnapshot is a point-in-time view for /stats and tests.
type LimiterSnapshot struct {
	// Limit is the adaptive limit, rounded down to what admission
	// actually grants interactive traffic.
	Limit    int
	Total    int
	InFlight [3]int
	P99      time.Duration
}

// Snapshot reads the limiter's current state.
func (l *Limiter) Snapshot() LimiterSnapshot {
	l.mu.Lock()
	defer l.mu.Unlock()
	return LimiterSnapshot{
		Limit:    int(math.Ceil(l.limit)),
		Total:    l.total,
		InFlight: l.inflight,
		P99:      l.p99Locked(),
	}
}
