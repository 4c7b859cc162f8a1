// Package jobs is a bounded asynchronous job subsystem: a fixed-depth
// queue feeding a fixed-size worker pool, with observable monotonic
// progress, cooperative cancellation, TTL'd results and graceful
// drain. It exists for work that outlives any sane request deadline —
// the full-lattice scan of HOS-Miner is the motivating case: a scan
// over a large dataset can run for minutes, and the synchronous /scan
// endpoint used to throw all completed work away at its deadline.
// Submitting the same sweep as a job converts it into resumable,
// observable work: the client polls for progress and fetches the
// result when the job lands.
//
// Admission control is circuit-style, cribbed from the throttled
// breaker shape: the queue depth is the error budget, a full queue
// rejects instantly with ErrQueueFull (never blocks the caller), and
// RetryAfter estimates — from a smoothed run-time of recent jobs and
// the current backlog — when capacity will next free up, so the HTTP
// layer can send an honest Retry-After instead of a blind 429.
//
// Lifecycle: queued → running → done | failed | cancelled. Terminal
// snapshots are retained for ResultTTL and then swept; a done job
// whose result was never fetched before the sweep counts as
// abandoned, which is the observability hook for clients that submit
// work and walk away.
package jobs

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// State is one phase of the job lifecycle.
type State uint8

const (
	// StateQueued: accepted, waiting for a worker.
	StateQueued State = iota
	// StateRunning: a worker is executing the job's Fn.
	StateRunning
	// StateDone: Fn returned a result; retained until the TTL sweep.
	StateDone
	// StateFailed: Fn returned a non-cancellation error.
	StateFailed
	// StateCancelled: cancelled while queued, or Fn returned the
	// cancellation it was handed.
	StateCancelled
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool { return s >= StateDone }

// String names the state (the spelling the HTTP layer serves).
func (s State) String() string {
	switch s {
	case StateQueued:
		return "queued"
	case StateRunning:
		return "running"
	case StateDone:
		return "done"
	case StateFailed:
		return "failed"
	case StateCancelled:
		return "cancelled"
	default:
		return fmt.Sprintf("State(%d)", uint8(s))
	}
}

// Fn is the unit of work a job runs. It must honour ctx — cancellation
// and drain both arrive through it — and should call report with its
// monotonic progress (units done, units total). report is safe to call
// from any number of goroutines; regressing done values are ignored.
type Fn func(ctx context.Context, report func(done, total int)) (any, error)

// Options tunes a Manager. The zero value selects the defaults noted
// on each field.
type Options struct {
	// QueueDepth bounds jobs accepted but not yet running; a full
	// queue rejects Submit with ErrQueueFull (default 8).
	QueueDepth int
	// Workers is the worker-pool size — the number of jobs that
	// may run simultaneously (default 1; scans are heavy).
	Workers int
	// ResultTTL bounds how long a terminal job (and its result) is
	// retained for Get after finishing (default 15min).
	ResultTTL time.Duration
	// Clock substitutes the time source (tests); nil = time.Now.
	Clock func() time.Time
}

func (o *Options) setDefaults() {
	if o.QueueDepth <= 0 {
		o.QueueDepth = 8
	}
	if o.Workers <= 0 {
		o.Workers = 1
	}
	if o.ResultTTL <= 0 {
		o.ResultTTL = 15 * time.Minute
	}
	if o.Clock == nil {
		o.Clock = time.Now
	}
}

// ErrQueueFull rejects a Submit when the queue is at depth — the
// admission-control signal the HTTP layer turns into 429 + Retry-After.
var ErrQueueFull = errors.New("jobs: queue full")

// ErrClosed rejects a Submit after Close has begun draining.
var ErrClosed = errors.New("jobs: manager closed")

// Snapshot is a point-in-time view of one job, safe to retain: the
// Result is the value Fn returned and is never mutated by the Manager.
type Snapshot struct {
	ID    string
	Kind  string
	State State
	// Done/Total are the latest progress report (0/0 before the
	// first). Done is monotonic; Total is fixed per job in practice.
	Done, Total int64
	Created     time.Time
	Started     time.Time // zero until running
	Finished    time.Time // zero until terminal
	Result      any       // non-nil only when StateDone
	Err         error     // non-nil only when StateFailed or StateCancelled
}

// job is the Manager-internal mutable record behind a Snapshot. The
// Manager's mu guards every field except the progress atomics, so a
// job's state and the Manager's counters change in one critical
// section and are always read together.
type job struct {
	id     string
	kind   string
	seq    int64 // submission order; List's tie-break for equal Created
	fn     Fn
	ctx    context.Context
	cancel context.CancelFunc
	// term is closed once the job is terminal and the Manager's
	// counters include it — what Wait blocks on.
	term chan struct{}

	done, total atomic.Int64

	state    State
	created  time.Time
	started  time.Time
	finished time.Time
	result   any
	err      error
	fetched  bool // a terminal Get observed the job before the sweep
}

// report is the progress callback handed to Fn. Total is a plain
// store (fixed per job); done is a CAS-max so late-arriving reports
// from racing workers can never make progress regress.
func (j *job) report(done, total int) {
	j.total.Store(int64(total))
	for {
		cur := j.done.Load()
		if int64(done) <= cur || j.done.CompareAndSwap(cur, int64(done)) {
			return
		}
	}
}

// snapshotLocked copies the job; the caller holds the Manager's mu.
func (j *job) snapshotLocked() Snapshot {
	return Snapshot{
		ID: j.id, Kind: j.kind, State: j.state,
		Done: j.done.Load(), Total: j.total.Load(),
		Created: j.created, Started: j.started, Finished: j.finished,
		Result: j.result, Err: j.err,
	}
}

// deliverLocked is snapshotLocked for a reader that receives the
// result: a done job's result counts as fetched, which keeps it out of
// the abandoned count at sweep time.
func (j *job) deliverLocked() Snapshot {
	if j.state == StateDone {
		j.fetched = true
	}
	return j.snapshotLocked()
}

// Counters is the cumulative (and, for Queued/Running, current)
// accounting a Manager exposes — the /stats jobs section.
type Counters struct {
	Submitted int64 // jobs accepted into the queue
	Rejected  int64 // submissions refused with ErrQueueFull
	Completed int64 // jobs that reached StateDone
	Failed    int64 // jobs that reached StateFailed
	Cancelled int64 // jobs that reached StateCancelled
	Abandoned int64 // done jobs swept with their result never fetched
	Queued    int   // currently waiting for a worker
	Running   int   // currently executing
}

// Manager owns the queue, the worker pool and the job table. All
// methods are safe for concurrent use.
//
// The queue is a mutex-guarded slice, not a channel: cancelling a
// queued job must free its admission slot immediately, and a channel
// cannot give up an element from its middle — with a channel queue, a
// client that cancelled every queued job would still be answered 429
// until a worker happened to drain the corpses.
type Manager struct {
	opts Options
	wg   sync.WaitGroup

	mu      sync.Mutex
	newWork *sync.Cond // signalled on enqueue and on close; waits on mu
	pending []*job     // admission-bounded FIFO, len ≤ QueueDepth
	jobs    map[string]*job
	seq     int64
	started bool // worker pool launched (first Submit)
	closed  bool
	ctr     Counters
	avgRun  time.Duration // EWMA of job wall times, feeds RetryAfter
	hasAvg  bool
}

// NewManager builds a Manager. The worker pool starts lazily on the
// first Submit, so a manager that never receives work — every test
// server, every embedder that ignores the async surface — owns no
// goroutines and needs no Close.
func NewManager(opts Options) *Manager {
	opts.setDefaults()
	m := &Manager{
		opts: opts,
		jobs: make(map[string]*job),
	}
	m.newWork = sync.NewCond(&m.mu)
	return m
}

// startWorkersLocked launches the pool once; the caller holds m.mu.
func (m *Manager) startWorkersLocked() {
	if m.started {
		return
	}
	m.started = true
	m.wg.Add(m.opts.Workers)
	for w := 0; w < m.opts.Workers; w++ {
		go m.worker()
	}
}

// Submit enqueues fn as a new job of the given kind and returns its
// queued snapshot. It never blocks: a full queue fails with
// ErrQueueFull and a draining manager with ErrClosed.
func (m *Manager) Submit(kind string, fn Fn) (Snapshot, error) {
	if fn == nil {
		return Snapshot{}, fmt.Errorf("jobs: nil Fn")
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		// Not counted in Rejected: that counter is the queue-full
		// admission signal operators size QueueDepth against, and
		// drain-time refusals are not queue pressure.
		return Snapshot{}, ErrClosed
	}
	m.sweepLocked()
	if len(m.pending) >= m.opts.QueueDepth {
		m.ctr.Rejected++
		return Snapshot{}, ErrQueueFull
	}
	m.seq++
	ctx, cancel := context.WithCancel(context.Background())
	j := &job{
		id:      fmt.Sprintf("%s-%d", kind, m.seq),
		kind:    kind,
		seq:     m.seq,
		fn:      fn,
		ctx:     ctx,
		cancel:  cancel,
		term:    make(chan struct{}),
		state:   StateQueued,
		created: m.opts.Clock(),
	}
	m.pending = append(m.pending, j)
	m.jobs[j.id] = j
	m.ctr.Submitted++
	m.startWorkersLocked()
	m.newWork.Signal()
	return j.snapshotLocked(), nil
}

// Get returns the job's snapshot. Fetching a done job marks its
// result as delivered, which is what keeps it out of the abandoned
// count at sweep time. ok is false for unknown or already-swept ids.
func (m *Manager) Get(id string) (Snapshot, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.sweepLocked()
	j, ok := m.jobs[id]
	if !ok {
		return Snapshot{}, false
	}
	return j.deliverLocked(), true
}

// Wait blocks until the job is terminal or ctx ends, whichever comes
// first, and returns the job's snapshot at that moment — terminal
// unless ctx ended first (callers check State.Terminal). Like Get, a
// done result it returns counts as delivered, so a job whose submitter
// waits for it never reads as abandoned. ok is false for unknown or
// already-swept ids.
func (m *Manager) Wait(ctx context.Context, id string) (Snapshot, bool) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	m.mu.Unlock()
	if !ok {
		return Snapshot{}, false
	}
	select {
	case <-j.term:
	case <-ctx.Done():
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return j.deliverLocked(), true
}

// Cancel requests cancellation of the job. A queued job transitions
// to cancelled immediately; a running one has its context cancelled
// and transitions when its Fn returns; a terminal one is unchanged.
// The returned snapshot reflects the state after the request.
func (m *Manager) Cancel(id string) (Snapshot, bool) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	if !ok {
		m.mu.Unlock()
		return Snapshot{}, false
	}
	if j.state == StateQueued {
		j.state = StateCancelled
		j.err = context.Canceled
		j.finished = m.opts.Clock()
		j.fn = nil // never runs; drop the closure and its captures
		// Remove the job from the pending FIFO so its admission slot
		// frees right now — not whenever a worker would have reached
		// it. The same critical section marks it, so no worker can
		// pop it.
		m.pending = slices.DeleteFunc(m.pending, func(p *job) bool { return p == j })
		m.ctr.Cancelled++
		close(j.term)
	}
	snap := j.snapshotLocked()
	m.mu.Unlock()
	// A running job unwinds when its Fn sees the cancellation; for any
	// other job this only releases the context's resources.
	j.cancel()
	return snap, true
}

// List returns a snapshot of every retained job, oldest first
// (submission order breaks Created ties — ids are not zero-padded, so
// comparing them lexicographically would put scan-10 before scan-2),
// and the counters, read in the same critical section: every job
// listed in a state is counted in it.
func (m *Manager) List() ([]Snapshot, Counters) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.sweepLocked()
	js := make([]*job, 0, len(m.jobs))
	for _, j := range m.jobs {
		js = append(js, j)
	}
	sort.Slice(js, func(a, b int) bool {
		if !js[a].created.Equal(js[b].created) {
			return js[a].created.Before(js[b].created)
		}
		return js[a].seq < js[b].seq
	})
	out := make([]Snapshot, len(js))
	for i, j := range js {
		out[i] = j.snapshotLocked()
	}
	return out, m.countersLocked()
}

// Counters returns the cumulative accounting plus the current
// queued/running occupancy.
func (m *Manager) Counters() Counters {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.sweepLocked()
	return m.countersLocked()
}

// countersLocked completes m.ctr with the queue occupancy: pending
// holds exactly the queued jobs, because a worker marks a job running
// and Cancel marks it cancelled in the critical section that removes
// it.
func (m *Manager) countersLocked() Counters {
	out := m.ctr
	out.Queued = len(m.pending)
	return out
}

// RetryAfter estimates how long a rejected submitter should wait
// before capacity frees up: the smoothed recent job run time scaled
// by the backlog per worker, clamped to [1s, 5min]. With no run-time
// history yet it grows linearly with the backlog.
func (m *Manager) RetryAfter() time.Duration {
	m.mu.Lock()
	backlog := len(m.pending) + m.ctr.Running
	avg, has := m.avgRun, m.hasAvg
	m.mu.Unlock()
	est := time.Duration(backlog) * time.Second
	if has {
		est = avg * time.Duration(backlog) / time.Duration(m.opts.Workers)
	}
	if est < time.Second {
		est = time.Second
	}
	if est > 5*time.Minute {
		est = 5 * time.Minute
	}
	return est
}

// Close drains the manager: new submissions fail with ErrClosed,
// already-queued jobs still run, and Close blocks until the pool is
// idle or ctx expires — at which point every remaining job is
// cancelled and Close waits (briefly) for the workers to notice.
func (m *Manager) Close(ctx context.Context) error {
	m.mu.Lock()
	if !m.closed {
		m.closed = true
		m.newWork.Broadcast()
	}
	m.mu.Unlock()

	idle := make(chan struct{})
	go func() { m.wg.Wait(); close(idle) }()
	select {
	case <-idle:
		return nil
	case <-ctx.Done():
		// Deadline: abort everything still queued or running. The
		// workers unwind as soon as each Fn honours its context.
		m.mu.Lock()
		for _, j := range m.jobs {
			j.cancel()
		}
		m.mu.Unlock()
		<-idle
		return ctx.Err()
	}
}

// worker is one pool goroutine: pop, run, account. Workers exit once
// the manager is closed AND the pending queue is empty — that ordering
// is the graceful drain.
func (m *Manager) worker() {
	defer m.wg.Done()
	for {
		m.mu.Lock()
		for len(m.pending) == 0 && !m.closed {
			m.newWork.Wait()
		}
		if len(m.pending) == 0 {
			m.mu.Unlock()
			return
		}
		j := m.pending[0]
		m.pending = m.pending[1:]
		j.state = StateRunning
		j.started = m.opts.Clock()
		m.ctr.Running++
		fn := j.fn
		m.mu.Unlock()
		res, err := runRecovered(j, fn)
		m.finish(j, res, err)
	}
}

// runRecovered executes the job's Fn, converting a panic into an
// error so one bad job cannot take the worker (and its slot) down.
func runRecovered(j *job, fn Fn) (res any, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			err = fmt.Errorf("jobs: job %s panicked: %v", j.id, rec)
		}
	}()
	return fn(j.ctx, j.report)
}

// finish publishes the terminal state together with its count, in one
// critical section, and folds the run time into the RetryAfter
// estimate.
func (m *Manager) finish(j *job, res any, err error) {
	now := m.opts.Clock()
	m.mu.Lock()
	j.finished = now
	switch {
	case err != nil && j.ctx.Err() != nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)):
		// The error is the cancellation we delivered, not a failure of
		// the work itself.
		j.state = StateCancelled
		j.err = err
		m.ctr.Cancelled++
	case err != nil:
		j.state = StateFailed
		j.err = err
		m.ctr.Failed++
	default:
		j.state = StateDone
		j.result = res
		m.ctr.Completed++
		// A done job always reads as fully progressed — pollers gate
		// on percent, and an Fn over an empty work list (or one that
		// never called report) would otherwise sit at 0/0 forever.
		if t := j.total.Load(); t > 0 {
			j.report(int(t), int(t))
		} else {
			j.report(1, 1)
		}
	}
	m.ctr.Running--
	// Drop the closure: the record outlives the run by ResultTTL, and
	// fn can pin arbitrarily large captures (in the server: a whole
	// dataset entry) that the retained Snapshot does not need.
	j.fn = nil
	if run := now.Sub(j.started); run > 0 {
		if m.hasAvg {
			m.avgRun = (3*m.avgRun + run) / 4
		} else {
			m.avgRun, m.hasAvg = run, true
		}
	}
	close(j.term)
	m.mu.Unlock()
	j.cancel() // release the context's resources
}

// maxRetained bounds how many terminal jobs are retained at once,
// oldest-finished evicted first. ResultTTL alone is a time bound, not
// a memory bound: a client pumping fast-completing jobs through the
// queue would otherwise accumulate TTL-minutes × throughput results on
// the heap.
const maxRetained = 64

// sweepLocked evicts terminal jobs whose TTL has lapsed, then — the
// memory bound the TTL alone cannot give — the oldest-finished
// terminal jobs beyond maxRetained; the caller holds m.mu. A done job
// swept with its result never fetched counts as abandoned — the
// signal that clients are submitting scans and never coming back for
// them.
func (m *Manager) sweepLocked() {
	now := m.opts.Clock()
	var terminal []*job
	for _, j := range m.jobs {
		if !j.state.Terminal() {
			continue
		}
		if now.Sub(j.finished) < m.opts.ResultTTL {
			terminal = append(terminal, j)
		} else {
			m.evictLocked(j)
		}
	}
	if len(terminal) <= maxRetained {
		return
	}
	sort.Slice(terminal, func(a, b int) bool {
		// seq breaks same-tick ties deterministically.
		if !terminal[a].finished.Equal(terminal[b].finished) {
			return terminal[a].finished.Before(terminal[b].finished)
		}
		return terminal[a].seq < terminal[b].seq
	})
	for _, j := range terminal[:len(terminal)-maxRetained] {
		m.evictLocked(j)
	}
}

// evictLocked drops a terminal job from the table, counting it as
// abandoned when it is done and its result was never fetched.
func (m *Manager) evictLocked(j *job) {
	if j.state == StateDone && !j.fetched {
		m.ctr.Abandoned++
	}
	delete(m.jobs, j.id)
}
