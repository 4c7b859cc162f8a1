package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/overload"
	"repro/internal/overload/faultinject"
)

// This file is the fault-injection suite the overload layer is proven
// with: every breaker transition and shedding decision demonstrated
// against the real HTTP handlers, with time driven by a
// faultinject.Clock and failures by a faultinject.Injector — no
// wall-clock sleeps anywhere on the state-machine paths.

// newFaultServer builds a server whose default dataset trips after 5
// failed outcomes, cools down for 5 (fake) seconds, and recovers on a
// single successful probe.
func newFaultServer(t *testing.T, clk *faultinject.Clock, inj *faultinject.Injector) *Server {
	t.Helper()
	return newTestServer(t, Options{
		Overload: overload.Config{
			MinSamples:     5,
			FailureRatio:   0.5,
			CoolDown:       5 * time.Second,
			ProbeBudget:    1,
			ProbeSuccesses: 1,
			Clock:          clk.Now,
		},
		FaultHook: inj.Hook(),
	})
}

// overloadStats fetches one dataset's overload section from Stats.
func overloadStats(t *testing.T, s *Server, name string) OverloadStats {
	t.Helper()
	for _, d := range s.Stats().Datasets {
		if d.Name == name {
			return d.Overload
		}
	}
	t.Fatalf("dataset %q not in stats", name)
	return OverloadStats{}
}

// checkOverloadLedger asserts the admission-accounting invariants.
func checkOverloadLedger(t *testing.T, o OverloadStats) {
	t.Helper()
	if o.Received != o.Admitted+o.Shed {
		t.Fatalf("ledger torn: received %d != admitted %d + shed %d", o.Received, o.Admitted, o.Shed)
	}
	if o.Shed != o.ShedBreakerOpen+o.ShedCapacity {
		t.Fatalf("ledger torn: shed %d != breaker %d + capacity %d", o.Shed, o.ShedBreakerOpen, o.ShedCapacity)
	}
}

// A dataset driven to 100% timeouts opens its breaker within one
// window — here within MinSamples outcomes at a single fake instant —
// and traffic then stops reaching the compute path entirely until the
// cool-down has lapsed.
func TestBreakerOpensWithinOneWindowAt100PercentTimeouts(t *testing.T) {
	clk := faultinject.NewClock(time.Unix(1_700_000_000, 0))
	inj := faultinject.NewInjector()
	s := newFaultServer(t, clk, inj)
	h := s.Handler()

	inj.Set("default", faultinject.Fault{Err: context.DeadlineExceeded})
	for i := 0; i < 5; i++ {
		rec := do(t, h, "POST", "/query", fmt.Sprintf(`{"index": %d}`, i), nil)
		if rec.Code != http.StatusServiceUnavailable {
			t.Fatalf("faulted query %d: status %d, want 503", i, rec.Code)
		}
	}
	o := overloadStats(t, s, "default")
	checkOverloadLedger(t, o)
	if o.BreakerState != "open" || o.BreakerOpens != 1 {
		t.Fatalf("after 5 injected timeouts (one window): breaker %s opens %d, want open/1", o.BreakerState, o.BreakerOpens)
	}

	// Shed, not computed: the injector's call count freezes while the
	// breaker answers for the dataset.
	calls := inj.Calls("default")
	for i := 0; i < 3; i++ {
		rec := do(t, h, "POST", "/query", fmt.Sprintf(`{"index": %d}`, 10+i), nil)
		if rec.Code != http.StatusServiceUnavailable {
			t.Fatalf("shed query %d: status %d, want 503", i, rec.Code)
		}
		retry := rec.Header().Get("Retry-After")
		if retry != "5" {
			t.Fatalf("breaker-open Retry-After = %q, want the full 5s cool-down", retry)
		}
	}
	if got := inj.Calls("default"); got != calls {
		t.Fatalf("compute path saw %d calls while open, want frozen at %d", got, calls)
	}
	o = overloadStats(t, s, "default")
	checkOverloadLedger(t, o)
	if o.ShedBreakerOpen != 3 {
		t.Fatalf("breaker-open sheds = %d, want 3", o.ShedBreakerOpen)
	}

	// Batch, sync scan and job submission are all behind the same
	// breaker, each with the ≥1s Retry-After floor.
	for _, rq := range []struct{ path, body string }{
		{"/batch", `{"items": [{"index": 1}, {"index": 2}]}`},
		{"/scan", `{}`},
		{"/jobs/scan", `{}`},
	} {
		rec := do(t, h, "POST", rq.path, rq.body, nil)
		if rec.Code != http.StatusServiceUnavailable {
			t.Fatalf("POST %s under open breaker: status %d, want 503", rq.path, rec.Code)
		}
		if retry := rec.Header().Get("Retry-After"); retry != "5" {
			t.Fatalf("POST %s Retry-After = %q, want \"5\"", rq.path, retry)
		}
	}
}

// After the cool-down, half-open probing restores service once the
// fault clears — and re-opens the breaker when it has not.
func TestBreakerHalfOpenRecovery(t *testing.T) {
	clk := faultinject.NewClock(time.Unix(1_700_000_000, 0))
	inj := faultinject.NewInjector()
	s := newFaultServer(t, clk, inj)
	h := s.Handler()

	inj.Set("default", faultinject.Fault{Err: context.DeadlineExceeded})
	for i := 0; i < 5; i++ {
		do(t, h, "POST", "/query", fmt.Sprintf(`{"index": %d}`, i), nil)
	}
	if o := overloadStats(t, s, "default"); o.BreakerState != "open" {
		t.Fatalf("breaker = %s, want open", o.BreakerState)
	}

	// Still faulted at the end of the cool-down: the probe fails and
	// the breaker re-opens for another full cool-down.
	clk.Advance(5 * time.Second)
	if rec := do(t, h, "POST", "/query", `{"index": 20}`, nil); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("failed probe: status %d, want 503", rec.Code)
	}
	o := overloadStats(t, s, "default")
	if o.BreakerState != "open" || o.BreakerOpens != 2 {
		t.Fatalf("after failed probe: breaker %s opens %d, want open/2", o.BreakerState, o.BreakerOpens)
	}

	// Recovered at the end of the next cool-down: the probe succeeds,
	// the breaker closes, and ordinary traffic flows again.
	clk.Advance(5 * time.Second)
	inj.Clear("default")
	if rec := do(t, h, "POST", "/query", `{"index": 21}`, nil); rec.Code != http.StatusOK {
		t.Fatalf("successful probe: status %d (body %s), want 200", rec.Code, rec.Body.String())
	}
	o = overloadStats(t, s, "default")
	checkOverloadLedger(t, o)
	if o.BreakerState != "closed" {
		t.Fatalf("after successful probe: breaker %s, want closed", o.BreakerState)
	}
	if rec := do(t, h, "POST", "/query", `{"index": 22}`, nil); rec.Code != http.StatusOK {
		t.Fatalf("post-recovery query: status %d, want 200", rec.Code)
	}
	waitIdle(t, s)
}

// TestQueryAndBatchOutcomeTable: /query and /batch run through one
// compute routine, so a fault injected at the same point answers with
// the same status and lands in the same /stats counter on both — and
// a success slower than the deadline counts against the breaker on
// both, since the injected latency reaches the guard.
func TestQueryAndBatchOutcomeTable(t *testing.T) {
	endpoints := []struct{ op, path, body string }{
		{"query", "/query", `{"index": %d}`},
		{"batch", "/batch", `{"items": [{"index": %d}]}`},
	}
	cells := []struct {
		name              string
		fault             faultinject.Fault
		status            int
		errors, cancelled int64
	}{
		{"deadline", faultinject.Fault{Err: context.DeadlineExceeded}, http.StatusServiceUnavailable, 1, 0},
		{"cancelled", faultinject.Fault{Err: context.Canceled}, http.StatusRequestTimeout, 0, 1},
		{"engine error", faultinject.Fault{Err: errors.New("engine fault")}, http.StatusInternalServerError, 1, 0},
		{"slow success", faultinject.Fault{Delay: time.Hour}, http.StatusOK, 0, 0},
	}
	for _, ep := range endpoints {
		for _, c := range cells {
			t.Run(ep.op+"/"+c.name, func(t *testing.T) {
				clk := faultinject.NewClock(time.Unix(1_700_000_000, 0))
				inj := faultinject.NewInjector()
				s := newFaultServer(t, clk, inj)
				h := s.Handler()
				inj.SetOp(ep.op, "default", c.fault)
				// Slow successes trip the breaker only after MinSamples (5)
				// of them; every other cell is one request. Distinct rows
				// keep the result cache out of the way.
				n := 1
				if c.status == http.StatusOK {
					n = 5
				}
				for i := 0; i < n; i++ {
					rec := do(t, h, "POST", ep.path, fmt.Sprintf(ep.body, i), nil)
					if rec.Code != c.status {
						t.Fatalf("request %d: status %d, want %d (body %s)", i, rec.Code, c.status, rec.Body.String())
					}
				}
				st := s.Stats()
				if st.Errors != c.errors || st.ClientCancelled != c.cancelled {
					t.Fatalf("errors/client_cancelled = %d/%d, want %d/%d", st.Errors, st.ClientCancelled, c.errors, c.cancelled)
				}
				if c.status != http.StatusOK {
					return
				}
				if o := overloadStats(t, s, "default"); o.BreakerState != "open" {
					t.Fatalf("after %d successes past the deadline: breaker %s, want open", n, o.BreakerState)
				}
				if rec := do(t, h, "POST", ep.path, fmt.Sprintf(ep.body, n), nil); rec.Code != http.StatusServiceUnavailable {
					t.Fatalf("request under the open breaker: status %d, want 503", rec.Code)
				}
			})
		}
	}
}

// One degraded dataset must not starve its siblings: while the default
// dataset's breaker is open under 100% injected timeouts, a sibling
// dataset keeps answering with a p99 within 2× its own baseline.
func TestSiblingDatasetUnaffectedByOpenBreaker(t *testing.T) {
	clk := faultinject.NewClock(time.Unix(1_700_000_000, 0))
	inj := faultinject.NewInjector()
	s := newFaultServer(t, clk, inj)
	h := s.Handler()

	rec := do(t, h, "POST", "/datasets/load",
		`{"name": "sibling", "gen": "synthetic", "n": 80, "d": 4, "k": 4, "tq": 0.9, "seed": 7}`, nil)
	if rec.Code != http.StatusCreated {
		t.Fatalf("loading sibling: status %d (body %s)", rec.Code, rec.Body.String())
	}

	querySibling := func(idx int) time.Duration {
		start := time.Now()
		rec := do(t, h, "POST", "/query", fmt.Sprintf(`{"dataset": "sibling", "index": %d}`, idx), nil)
		if rec.Code != http.StatusOK {
			t.Fatalf("sibling query %d: status %d (body %s)", idx, rec.Code, rec.Body.String())
		}
		return time.Since(start)
	}
	p99 := func(lat []time.Duration) time.Duration {
		sort.Slice(lat, func(a, b int) bool { return lat[a] < lat[b] })
		return percentile(lat, 0.99)
	}

	// Baseline: the sibling on an unloaded server. Distinct indexes per
	// phase keep the result cache out of the measurement.
	base := make([]time.Duration, 0, 40)
	for i := 0; i < 40; i++ {
		base = append(base, querySibling(i))
	}

	inj.Set("default", faultinject.Fault{Err: context.DeadlineExceeded})
	for i := 0; i < 5; i++ {
		do(t, h, "POST", "/query", fmt.Sprintf(`{"index": %d}`, i), nil)
	}
	if o := overloadStats(t, s, "default"); o.BreakerState != "open" {
		t.Fatalf("default breaker = %s, want open", o.BreakerState)
	}

	during := make([]time.Duration, 0, 40)
	for i := 40; i < 80; i++ {
		during = append(during, querySibling(i))
	}

	// The 2× bound is the acceptance bar; the small absolute slack
	// covers scheduler noise on sub-millisecond baselines — the failure
	// this guards against (queuing behind the degraded dataset's
	// permits) shows up as whole seconds, not microseconds.
	baseP99, duringP99 := p99(base), p99(during)
	if duringP99 > 2*baseP99+25*time.Millisecond {
		t.Fatalf("sibling p99 %s vs baseline %s: degraded neighbour leaked into sibling latency", duringP99, baseP99)
	}
	sib := overloadStats(t, s, "sibling")
	checkOverloadLedger(t, sib)
	if sib.BreakerState != "closed" || sib.Shed != 0 {
		t.Fatalf("sibling overload = %+v, want closed breaker and no sheds", sib)
	}
}

// The /stats JSON surface: the overload section rides under each
// dataset with the documented field names, and its ledger holds in a
// served snapshot.
func TestStatsServesOverloadSection(t *testing.T) {
	clk := faultinject.NewClock(time.Unix(1_700_000_000, 0))
	inj := faultinject.NewInjector()
	s := newFaultServer(t, clk, inj)
	h := s.Handler()

	do(t, h, "POST", "/query", `{"index": 1}`, nil)
	rec := do(t, h, "GET", "/stats", "", nil)
	var typed StatsSnapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &typed); err != nil {
		t.Fatal(err)
	}
	if len(typed.Datasets) != 1 {
		t.Fatalf("datasets = %d, want 1", len(typed.Datasets))
	}
	o := typed.Datasets[0].Overload
	checkOverloadLedger(t, o)
	if o.BreakerState != "closed" || o.Received != 1 || o.Admitted != 1 || o.ConcurrencyLimit <= 0 {
		t.Fatalf("served overload section = %+v", o)
	}
	// Field-name pinning: these spellings are documented API.
	var raw map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &raw); err != nil {
		t.Fatal(err)
	}
	ds := raw["datasets"].([]any)[0].(map[string]any)
	ov, ok := ds["overload"].(map[string]any)
	if !ok {
		t.Fatalf("dataset stats carry no overload object: %v", ds)
	}
	for _, field := range []string{
		"breaker_state", "breaker_opens", "concurrency_limit", "in_flight",
		"latency_p99_ms", "received", "admitted", "shed", "shed_breaker_open", "shed_capacity",
	} {
		if _, ok := ov[field]; !ok {
			t.Errorf("overload stats missing field %q", field)
		}
	}
}

// The race hammer: concurrent /query, /batch, /scan, /jobs/scan,
// /datasets/load + evict, fault flips and clock advances, with a
// scraper asserting the admission ledger on every concurrent snapshot.
// Run under -race this is the proof the guard's counters are committed
// atomically with their decisions.
func TestOverloadRaceHammer(t *testing.T) {
	clk := faultinject.NewClock(time.Unix(1_700_000_000, 0))
	inj := faultinject.NewInjector()
	s := newTestServer(t, Options{
		QueryTimeout: 2 * time.Second,
		ScanTimeout:  10 * time.Second,
		Overload: overload.Config{
			MinSamples:     4,
			FailureRatio:   0.5,
			CoolDown:       2 * time.Second,
			ProbeSuccesses: 1,
			Clock:          clk.Now,
		},
		FaultHook: inj.Hook(),
	})
	h := s.Handler()

	// Statuses the hammer may legitimately see; anything else (500s,
	// auth-shaped surprises) fails the test.
	okStatus := map[int]bool{
		http.StatusOK: true, http.StatusAccepted: true, http.StatusCreated: true,
		http.StatusNotFound: true, http.StatusConflict: true,
		http.StatusRequestTimeout:      true,
		http.StatusTooManyRequests:     true,
		http.StatusServiceUnavailable:  true,
		http.StatusInternalServerError: false,
	}
	fire := func(t *testing.T, method, path, body string) {
		rec := do(t, h, method, path, body, nil)
		if !okStatus[rec.Code] {
			t.Errorf("%s %s: unexpected status %d (body %s)", method, path, rec.Code, rec.Body.String())
		}
	}

	var wg sync.WaitGroup
	done := make(chan struct{})
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 40; i++ {
				fire(t, "POST", "/query", fmt.Sprintf(`{"index": %d}`, rng.Intn(150)))
			}
		}(int64(w))
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			fire(t, "POST", "/batch", fmt.Sprintf(`{"items": [{"index": %d}, {"index": %d}]}`, i, i+1))
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			fire(t, "POST", "/scan", `{"max_results": 5}`)
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 8; i++ {
			fire(t, "POST", "/jobs/scan", `{"max_results": 5}`)
		}
	}()
	wg.Add(1)
	go func() { // load + query + evict churn on a second dataset
		defer wg.Done()
		for i := 0; i < 6; i++ {
			fire(t, "POST", "/datasets/load", `{"name": "flux", "gen": "uniform", "n": 40, "d": 4, "k": 3, "tq": 0.9, "seed": 3}`)
			fire(t, "POST", "/query", `{"dataset": "flux", "index": 1}`)
			fire(t, "POST", "/datasets/evict", `{"name": "flux"}`)
		}
	}()
	wg.Add(1)
	go func() { // fault flipper + clock: breakers trip, cool down, probe
		defer wg.Done()
		for i := 0; i < 30; i++ {
			if i%2 == 0 {
				inj.Set("default", faultinject.Fault{Err: context.DeadlineExceeded})
			} else {
				inj.Clear("default")
			}
			clk.Advance(500 * time.Millisecond)
		}
	}()
	scraperDone := make(chan struct{})
	go func() { // scraper: every concurrent snapshot obeys the ledger
		defer close(scraperDone)
		for {
			for _, d := range s.Stats().Datasets {
				checkOverloadLedger(t, d.Overload)
				if d.Overload.InFlight < 0 {
					t.Errorf("dataset %s: negative in-flight %d", d.Name, d.Overload.InFlight)
				}
			}
			select {
			case <-done:
				return
			default:
			}
		}
	}()

	waitDone := make(chan struct{})
	go func() { wg.Wait(); close(waitDone) }()
	select {
	case <-waitDone:
	case <-time.After(120 * time.Second):
		t.Fatal("hammer deadlocked")
	}
	close(done)
	<-scraperDone

	waitIdle(t, s)
	for _, d := range s.Stats().Datasets {
		checkOverloadLedger(t, d.Overload)
	}
}
