package core

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/od"
)

// visitor is the per-index body of a workerLoop. It is an interface,
// not a func value, so a body kept in recycled storage (a
// BatchResult) reaches the loop without allocating a closure.
type visitor interface {
	// visit evaluates index i on eval, the evaluator worker w holds
	// (0 ≤ w < the loop's width).
	visit(ctx context.Context, eval *od.Evaluator, w, i int) error
}

// workerLoop is the Miner's one worker loop, shared by QueryBatch and
// ScanAll: it visits every index in [0, n) on a fixed number of
// workers. Each worker holds one evaluator from the Miner's pool for
// the whole run and claims indices off a shared cursor. ctx is checked
// before and after every visit; a failing check or visit stops that
// worker, and run returns the first error. The calling goroutine is
// always one of the workers, so at width 1 the loop runs inline.
//
// A loop may serve any number of sequential runs. The goroutine entry
// point is bound once per loop, so a recycled loop launches its
// workers without allocating.
type workerLoop struct {
	// The run's inputs, cleared before run returns.
	ctx  context.Context
	m    *Miner
	body visitor
	n    int64

	next atomic.Int64 // the shared cursor: the next unclaimed index
	seq  atomic.Int64 // numbers the workers
	wg   sync.WaitGroup

	mu  sync.Mutex
	err error // the run's first error

	// spawn is l.worker as a func value, bound on the first multi-
	// worker run, so `go l.spawn()` allocates no closure per run.
	spawn func()
}

// loopWidth resolves a requested fan-out for n indices: ≤ 0 selects
// GOMAXPROCS, and the result is clamped to [1, n].
func loopWidth(workers, n int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return max(1, min(workers, n))
}

// run visits every index in [0, n) with body on width workers (see
// loopWidth) and returns the first error.
func (l *workerLoop) run(ctx context.Context, m *Miner, body visitor, n, width int) error {
	l.ctx, l.m, l.body, l.n = ctx, m, body, int64(n)
	l.next.Store(0)
	l.seq.Store(0)
	if width > 1 && l.spawn == nil {
		l.spawn = l.worker
	}
	l.wg.Add(width)
	for range width - 1 {
		go l.spawn()
	}
	l.worker()
	l.wg.Wait()
	err := l.err
	l.ctx, l.m, l.body, l.err = nil, nil, nil, nil
	return err
}

// worker takes a worker number and an evaluator, then visits indices
// off the shared cursor until it runs dry or a check fails.
func (l *workerLoop) worker() {
	defer l.wg.Done()
	w := int(l.seq.Add(1)) - 1
	eval, err := l.m.borrowEvaluator()
	if err != nil {
		l.fail(err)
		return
	}
	defer l.m.evals.Put(eval)
	for {
		i := l.next.Add(1) - 1
		if i >= l.n {
			return
		}
		if err := l.ctx.Err(); err != nil {
			l.fail(err)
			return
		}
		if err := l.body.visit(l.ctx, eval, w, int(i)); err != nil {
			l.fail(err)
			return
		}
		if err := l.ctx.Err(); err != nil {
			l.fail(err)
			return
		}
	}
}

// fail records err unless an earlier error is already recorded.
func (l *workerLoop) fail(err error) {
	l.mu.Lock()
	if l.err == nil {
		l.err = err
	}
	l.mu.Unlock()
}
