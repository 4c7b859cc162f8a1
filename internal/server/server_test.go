package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/overload"
	"repro/internal/snapshot"
)

// occupySlot takes one admission slot of the dataset's guard directly
// — the test stand-in for a computation that is holding its permit —
// and returns the release. It bypasses the guard's ledger, so the
// admitted+shed==received invariant over HTTP requests is untouched.
func occupySlot(t *testing.T, s *Server, pri overload.Priority) func() {
	t.Helper()
	if err := s.def.guard.Limiter().Acquire(context.Background(), pri, false); err != nil {
		t.Fatalf("occupying %s slot: %v", pri, err)
	}
	return func() { s.def.guard.Limiter().Release(pri, overload.Cancelled, 0) }
}

// waitIdle polls until the dataset's guard shows no in-flight
// admissions — the sync point for permits released by goroutines that
// outlive their handler.
func waitIdle(t *testing.T, s *Server) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for s.def.guard.Snapshot().Limiter.Total != 0 {
		if time.Now().After(deadline) {
			t.Fatal("guard never returned to idle: a permit leaked")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// interactiveCap sets only the interactive class cap — what hosserve's
// -max-queries flag does.
func interactiveCap(n int) overload.Config {
	return overload.Config{ClassCaps: [3]int{overload.Interactive: n}}
}

func newTestMiner(t *testing.T) *core.Miner {
	t.Helper()
	ds, _, err := datagen.GenerateSynthetic(datagen.SyntheticConfig{
		N: 150, D: 5, NumOutliers: 4, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.NewMiner(ds, core.Config{K: 4, TQuantile: 0.9, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func newTestServer(t *testing.T, opts Options) *Server {
	t.Helper()
	s, err := New(newTestMiner(t), opts)
	if err != nil {
		t.Fatal(err)
	}
	registerClose(t, s)
	return s
}

// registerClose drains the server's job subsystem at test end so job
// workers never outlive the test that spawned them.
func registerClose(t *testing.T, s *Server) {
	t.Helper()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Close(ctx); err != nil {
			t.Errorf("draining jobs at cleanup: %v", err)
		}
	})
}

// do runs one request through the full handler stack and decodes the
// JSON response into out (when non-nil).
func do(t *testing.T, h http.Handler, method, path, body string, out any) *httptest.ResponseRecorder {
	t.Helper()
	var rdr *strings.Reader
	if body == "" {
		rdr = strings.NewReader("")
	} else {
		rdr = strings.NewReader(body)
	}
	req := httptest.NewRequest(method, path, rdr)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if out != nil && rec.Code == http.StatusOK {
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			t.Fatalf("decoding %s %s response: %v\nbody: %s", method, path, err, rec.Body.String())
		}
	}
	return rec
}

func TestQueryByIndex(t *testing.T) {
	s := newTestServer(t, Options{})
	var resp queryResponse
	rec := do(t, s.Handler(), "POST", "/query", `{"index": 3}`, &resp)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if resp.Threshold <= 0 {
		t.Fatalf("threshold %v, want > 0", resp.Threshold)
	}
	if resp.Cached {
		t.Fatal("first query reported cached")
	}
	if resp.Outlying != nil {
		t.Fatal("full outlying set included without include_all")
	}
	// The response must agree with a direct library query.
	m := s.def.view().miner
	eval, err := m.NewWorkerEvaluator()
	if err != nil {
		t.Fatal(err)
	}
	want, err := m.QueryWith(eval, m.Dataset().Point(3), 3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resp.Minimal, masksToDims(want.Minimal)) {
		t.Fatalf("minimal = %v, library says %v", resp.Minimal, masksToDims(want.Minimal))
	}
	if resp.IsOutlier != want.IsOutlierAnywhere || resp.OutlyingCount != len(want.Outlying) {
		t.Fatalf("outlier summary diverged from library result")
	}
}

func TestQueryByPointAndIncludeAll(t *testing.T) {
	s := newTestServer(t, Options{})
	point := s.def.view().miner.Dataset().Point(5)
	buf, _ := json.Marshal(map[string]any{"point": point, "include_all": true})
	var resp queryResponse
	rec := do(t, s.Handler(), "POST", "/query", string(buf), &resp)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if len(resp.Outlying) != resp.OutlyingCount {
		t.Fatalf("outlying has %d entries, count says %d", len(resp.Outlying), resp.OutlyingCount)
	}
	if len(resp.Point) != s.def.view().miner.Dataset().Dim() {
		t.Fatalf("point echo has %d dims", len(resp.Point))
	}
}

func TestQueryBadInput(t *testing.T) {
	s := newTestServer(t, Options{})
	h := s.Handler()
	cases := []struct {
		name, body string
		status     int
	}{
		{"empty body", ``, http.StatusBadRequest},
		{"neither index nor point", `{}`, http.StatusBadRequest},
		{"both index and point", `{"index":1,"point":[1,2,3,4,5]}`, http.StatusBadRequest},
		{"index out of range", `{"index":100000}`, http.StatusBadRequest},
		{"negative index", `{"index":-1}`, http.StatusBadRequest},
		{"wrong dims", `{"point":[1,2]}`, http.StatusBadRequest},
		{"unknown field", `{"idx":3}`, http.StatusBadRequest},
		{"malformed json", `{"index":`, http.StatusBadRequest},
	}
	for _, c := range cases {
		rec := do(t, h, "POST", "/query", c.body, nil)
		if rec.Code != c.status {
			t.Errorf("%s: status %d, want %d (body %s)", c.name, rec.Code, c.status, rec.Body.String())
		}
		var e errorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" {
			t.Errorf("%s: error body not JSON: %s", c.name, rec.Body.String())
		}
	}
	if rec := do(t, h, "GET", "/query", "", nil); rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET /query: status %d, want 405", rec.Code)
	}
	if errs := s.Stats().Errors; errs < int64(len(cases)) {
		t.Errorf("error counter %d, want ≥ %d", errs, len(cases))
	}
}

func TestBodyLimit(t *testing.T) {
	s := newTestServer(t, Options{MaxBodyBytes: 64})
	big := fmt.Sprintf(`{"point":[%s1]}`, strings.Repeat("1,", 500))
	rec := do(t, s.Handler(), "POST", "/query", big, nil)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413 (body %s)", rec.Code, rec.Body.String())
	}
}

func TestQueryCacheHit(t *testing.T) {
	s := newTestServer(t, Options{})
	h := s.Handler()
	var first, second queryResponse
	if rec := do(t, h, "POST", "/query", `{"index": 7}`, &first); rec.Code != http.StatusOK {
		t.Fatalf("first: %d %s", rec.Code, rec.Body.String())
	}
	rec := do(t, h, "POST", "/query", `{"index": 7}`, &second)
	if rec.Code != http.StatusOK {
		t.Fatalf("second: %d %s", rec.Code, rec.Body.String())
	}
	if !second.Cached || first.Cached {
		t.Fatalf("cached flags: first %v second %v, want false/true", first.Cached, second.Cached)
	}
	if rec.Header().Get("X-Cache") != "HIT" {
		t.Fatalf("X-Cache = %q, want HIT", rec.Header().Get("X-Cache"))
	}
	if !reflect.DeepEqual(first.Minimal, second.Minimal) {
		t.Fatal("cached answer differs from computed answer")
	}
	st := s.Stats()
	if st.CacheHits != 1 || st.CacheMisses != 1 || st.Queries != 2 {
		t.Fatalf("stats = hits %d misses %d queries %d, want 1/1/2", st.CacheHits, st.CacheMisses, st.Queries)
	}
	// An ad-hoc vector equal to the row (exclude differs) must NOT hit.
	buf, _ := json.Marshal(map[string]any{"point": s.def.view().miner.Dataset().Point(7)})
	var third queryResponse
	do(t, h, "POST", "/query", string(buf), &third)
	if third.Cached {
		t.Fatal("external point hit the dataset-row cache entry")
	}
}

// TestQueryTimeoutRetryConverges runs with a 1ns deadline: every
// attempt either sheds before taking a compute slot, times out after
// spawning (which still seeds the cache), or — rarely — beats the
// race. A retrying client must converge to 200 once any attempt's
// computation lands in the cache, because the cache is consulted
// before the deadline applies.
func TestQueryTimeoutRetryConverges(t *testing.T) {
	s := newTestServer(t, Options{QueryTimeout: time.Nanosecond})
	h := s.Handler()
	deadline := time.Now().Add(10 * time.Second)
	for {
		var resp queryResponse
		rec := do(t, h, "POST", "/query", `{"index": 0}`, &resp)
		if rec.Code == http.StatusOK {
			if s.def.view().cache.len() == 0 {
				t.Fatal("200 served but nothing cached")
			}
			return
		}
		if rec.Code != http.StatusServiceUnavailable {
			t.Fatalf("status %d, want 503 or 200 (body %s)", rec.Code, rec.Body.String())
		}
		if time.Now().After(deadline) {
			t.Fatal("retries never converged to a cached answer")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestQuerySheddingWhenSaturated(t *testing.T) {
	s := newTestServer(t, Options{Overload: interactiveCap(1), QueryTimeout: 20 * time.Millisecond})
	release := occupySlot(t, s, overload.Interactive) // occupy the only compute slot
	rec := do(t, s.Handler(), "POST", "/query", `{"index": 0}`, nil)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("saturated: status %d, want 503 (body %s)", rec.Code, rec.Body.String())
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("capacity shed carried no Retry-After header")
	}
	if s.def.view().cache.len() != 0 {
		t.Fatal("shed request must not have computed anything")
	}
	release()
	if rec := do(t, s.Handler(), "POST", "/query", `{"index": 0}`, nil); rec.Code != http.StatusOK {
		t.Fatalf("after slot freed: status %d", rec.Code)
	}
	// The shed and the answer both landed in the dataset's ledger.
	ov := s.Stats().Datasets[0].Overload
	if ov.Received != 2 || ov.Admitted != 1 || ov.ShedCapacity != 1 {
		t.Fatalf("ledger received/admitted/shed_capacity = %d/%d/%d, want 2/1/1",
			ov.Received, ov.Admitted, ov.ShedCapacity)
	}
}

func TestScanWorkersClamped(t *testing.T) {
	s := newTestServer(t, Options{ScanWorkers: 2})
	rec := do(t, s.Handler(), "POST", "/scan", `{"workers": 1000000}`, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("huge workers: status %d (body %s)", rec.Code, rec.Body.String())
	}
	if rec := do(t, s.Handler(), "POST", "/scan", `{"workers": -1}`, nil); rec.Code != http.StatusBadRequest {
		t.Fatalf("negative workers: status %d, want 400", rec.Code)
	}
}

func TestScan(t *testing.T) {
	s := newTestServer(t, Options{})
	var resp scanResponse
	rec := do(t, s.Handler(), "POST", "/scan", `{"max_results": 5, "sort_by_severity": true}`, &resp)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if resp.HitCount > 5 {
		t.Fatalf("hit count %d exceeds max_results", resp.HitCount)
	}
	for i := 1; i < len(resp.Hits); i++ {
		if resp.Hits[i-1].FullSpaceOD < resp.Hits[i].FullSpaceOD {
			t.Fatalf("hits not sorted by severity: %v before %v",
				resp.Hits[i-1].FullSpaceOD, resp.Hits[i].FullSpaceOD)
		}
	}
	if s.Stats().Scans != 1 {
		t.Fatalf("scan counter = %d", s.Stats().Scans)
	}
}

func TestScanLimitsClamped(t *testing.T) {
	s := newTestServer(t, Options{MaxScanResults: 3})
	var resp scanResponse
	do(t, s.Handler(), "POST", "/scan", `{"max_results": 1000000}`, &resp)
	if resp.MaxResults != 3 {
		t.Fatalf("effective max_results %d, want clamped to 3", resp.MaxResults)
	}
	if len(resp.Hits) > 3 {
		t.Fatalf("%d hits returned past the cap", len(resp.Hits))
	}
	if rec := do(t, s.Handler(), "POST", "/scan", `{"max_results": -1}`, nil); rec.Code != http.StatusBadRequest {
		t.Fatalf("negative max_results: status %d, want 400", rec.Code)
	}
}

func TestScanEmptyBodyUsesDefaults(t *testing.T) {
	s := newTestServer(t, Options{})
	var resp scanResponse
	rec := do(t, s.Handler(), "POST", "/scan", "", &resp)
	if rec.Code != http.StatusOK {
		t.Fatalf("empty body: status %d, want 200 (body %s)", rec.Code, rec.Body.String())
	}
	if resp.MaxResults != 1000 {
		t.Fatalf("defaults not applied: max_results %d", resp.MaxResults)
	}
}

// newSlowScanServer builds a server whose scans take seconds: a huge
// absolute threshold with bottom-up ordering defeats upward pruning,
// so every point sweeps its full 2^12-1 lattice — slow enough to
// cancel or time out deterministically mid-scan.
func newSlowScanServer(t *testing.T, opts Options) *Server {
	t.Helper()
	ds, _, err := datagen.GenerateSynthetic(datagen.SyntheticConfig{
		N: 60, D: 12, NumOutliers: 2, Seed: 21,
	})
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.NewMiner(ds, core.Config{K: 3, T: 1e15, Policy: core.PolicyBottomUp, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	registerClose(t, s)
	return s
}

// waitStats polls the stats snapshot until cond holds or the deadline
// lapses — the sync point for counters recorded by goroutines that
// outlive their handler.
func waitStats(t *testing.T, s *Server, what string, cond func(StatsSnapshot) bool) StatsSnapshot {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		snap := s.Stats()
		if cond(snap) {
			return snap
		}
		if time.Now().After(deadline) {
			t.Fatalf("stats never satisfied %s: %+v", what, snap)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestScanClientCancelIsNot503 is the regression test for the
// cancellation-semantics bug: a client closing its connection
// mid-scan used to be answered 503 and counted as a server error,
// making impatient clients indistinguishable from overload. It must
// be reported 408 and land in client_cancelled, leaving the error
// counter untouched — and the scan job it was waiting on must be
// cancelled, not left sweeping for nobody.
func TestScanClientCancelIsNot503(t *testing.T) {
	s := newSlowScanServer(t, Options{})
	ctx, cancel := context.WithCancel(context.Background())
	req := httptest.NewRequest("POST", "/scan", strings.NewReader(`{}`)).WithContext(ctx)
	rec := httptest.NewRecorder()
	go func() {
		time.Sleep(50 * time.Millisecond) // let the scan start
		cancel()
	}()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusRequestTimeout {
		t.Fatalf("status %d, want 408 (body %s)", rec.Code, rec.Body.String())
	}
	snap := waitStats(t, s, "client_cancelled == 1", func(st StatsSnapshot) bool {
		return st.ClientCancelled == 1
	})
	if snap.Errors != 0 {
		t.Fatalf("client cancellation counted as %d server errors", snap.Errors)
	}
	waitStats(t, s, "the scan job cancelled and the pool idle", func(st StatsSnapshot) bool {
		return st.Jobs.Cancelled == 1 && st.Jobs.Running == 0 && st.Jobs.Queued == 0
	})
}

// TestQueryClientCancelIsNot503: the same contract on /query, covering
// the slot-wait path (the compute slot is occupied, the client gives
// up waiting).
func TestQueryClientCancelIsNot503(t *testing.T) {
	s := newTestServer(t, Options{Overload: interactiveCap(1), QueryTimeout: 10 * time.Second})
	release := occupySlot(t, s, overload.Interactive) // occupy the only compute slot
	defer release()
	ctx, cancel := context.WithCancel(context.Background())
	req := httptest.NewRequest("POST", "/query", strings.NewReader(`{"index": 0}`)).WithContext(ctx)
	rec := httptest.NewRecorder()
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusRequestTimeout {
		t.Fatalf("status %d, want 408 (body %s)", rec.Code, rec.Body.String())
	}
	st := s.Stats()
	if st.ClientCancelled != 1 || st.Errors != 0 {
		t.Fatalf("client_cancelled/errors = %d/%d, want 1/0", st.ClientCancelled, st.Errors)
	}
}

// TestSyncScanResultCountsAsFetched: POST /scan delivers its job's
// result itself, so the job's TTL sweep must not count it abandoned.
// An async job with the same tiny TTL that nobody fetches is the
// control — it is what the abandoned counter is for.
func TestSyncScanResultCountsAsFetched(t *testing.T) {
	s := newTestServer(t, Options{JobResultTTL: time.Nanosecond})
	h := s.Handler()
	var sync scanResponse
	if rec := do(t, h, "POST", "/scan", `{}`, &sync); rec.Code != http.StatusOK {
		t.Fatalf("sync scan: status %d (body %s)", rec.Code, rec.Body.String())
	}
	st := s.Stats() // sweeps the expired job
	if st.Jobs.Completed != 1 || st.Jobs.Abandoned != 0 {
		t.Fatalf("after a sync scan: jobs %+v, want completed 1, abandoned 0", st.Jobs)
	}
	if list, _ := s.jobs.List(); len(list) != 0 {
		t.Fatal("the sync scan's job outlived its TTL")
	}
	if rec := do(t, h, "POST", "/jobs/scan", `{}`, nil); rec.Code != http.StatusAccepted {
		t.Fatalf("async submit: status %d", rec.Code)
	}
	waitStats(t, s, "the unfetched async job swept as abandoned", func(st StatsSnapshot) bool {
		return st.Jobs.Completed == 2 && st.Jobs.Abandoned == 1
	})
}

// TestScanJobFailureStatus: a scan job that fails answers POST /scan
// with its error — 503 when the failure is a deadline (a capacity
// signal, like the waiter's own deadline), 500 otherwise.
func TestScanJobFailureStatus(t *testing.T) {
	for _, tc := range []struct {
		err  error
		want int
	}{
		{context.DeadlineExceeded, http.StatusServiceUnavailable},
		{errors.New("engine fault"), http.StatusInternalServerError},
	} {
		s := newTestServer(t, Options{FaultHook: func(op, _ string) (time.Duration, error) {
			if op == "scan" {
				return 0, tc.err
			}
			return 0, nil
		}})
		rec := do(t, s.Handler(), "POST", "/scan", `{}`, nil)
		if rec.Code != tc.want || !strings.Contains(rec.Body.String(), tc.err.Error()) {
			t.Fatalf("fault %v: status %d body %s, want %d naming the fault", tc.err, rec.Code, rec.Body.String(), tc.want)
		}
		if st := s.Stats(); st.Jobs.Failed != 1 || st.Scans != 0 {
			t.Fatalf("fault %v: jobs %+v scans %d, want one failed job and no answered scan", tc.err, st.Jobs, st.Scans)
		}
	}
}

// TestScanTimeoutReleasesSlot: when ScanTimeout fires, the waiter
// cancels its scan job — the job ends cancelled and the job pool goes
// idle instead of sweeping for nobody — and the client gets 503,
// counted as a server error (the deadline is the server's).
func TestScanTimeoutReleasesSlot(t *testing.T) {
	s := newSlowScanServer(t, Options{ScanTimeout: 50 * time.Millisecond})
	rec := do(t, s.Handler(), "POST", "/scan", `{}`, nil)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503 (body %s)", rec.Code, rec.Body.String())
	}
	if !strings.Contains(rec.Body.String(), "deadline") {
		t.Fatalf("503 body does not name the deadline: %s", rec.Body.String())
	}
	snap := waitStats(t, s, "the scan job cancelled and the pool idle", func(st StatsSnapshot) bool {
		return st.Jobs.Cancelled == 1 && st.Jobs.Running == 0 && st.Jobs.Queued == 0
	})
	if snap.Errors != 1 || snap.ClientCancelled != 0 || snap.Scans != 0 {
		t.Fatalf("errors/client_cancelled/scans = %d/%d/%d, want 1/0/0",
			snap.Errors, snap.ClientCancelled, snap.Scans)
	}
	waitIdle(t, s)
}

// TestScanConcurrencyLimit: sync scans queue on the job pool, so a
// full job queue answers POST /scan with 429 and a Retry-After of at
// least one second, like POST /jobs/scan.
func TestScanConcurrencyLimit(t *testing.T) {
	s := newSlowScanServer(t, Options{JobWorkers: 1, JobQueueDepth: 1})
	h := s.Handler()
	var running, queued jobResponse
	if rec := do(t, h, "POST", "/jobs/scan", `{}`, &running); rec.Code != http.StatusAccepted {
		t.Fatalf("first submit: status %d", rec.Code)
	}
	defer do(t, h, "DELETE", "/jobs/"+running.ID, "", nil)
	waitStats(t, s, "the first job running", func(st StatsSnapshot) bool { return st.Jobs.Running == 1 })
	if rec := do(t, h, "POST", "/jobs/scan", `{}`, &queued); rec.Code != http.StatusAccepted {
		t.Fatalf("second submit: status %d", rec.Code)
	}
	defer do(t, h, "DELETE", "/jobs/"+queued.ID, "", nil)
	rec := do(t, h, "POST", "/scan", `{}`, nil)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429 (body %s)", rec.Code, rec.Body.String())
	}
	if retry, err := strconv.Atoi(rec.Header().Get("Retry-After")); err != nil || retry < 1 {
		t.Fatalf("Retry-After = %q, want an integer >= 1", rec.Header().Get("Retry-After"))
	}
}

// TestStateEndpoint pins the removal of the JSON state export: the
// .snap snapshot (POST /datasets/{name}/save) is the one persistence
// format, so GET /state is no route at all.
func TestStateEndpoint(t *testing.T) {
	s := newTestServer(t, Options{})
	for _, path := range []string{"/state", "/state?dataset=default"} {
		if rec := do(t, s.Handler(), "GET", path, "", nil); rec.Code != http.StatusNotFound {
			t.Fatalf("GET %s: status %d, want 404 (body %s)", path, rec.Code, rec.Body.String())
		}
	}
}

func TestHealthz(t *testing.T) {
	s := newTestServer(t, Options{})
	var h healthResponse
	rec := do(t, s.Handler(), "GET", "/healthz", "", &h)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	if h.Status != "ok" || h.DatasetN != 150 || h.DatasetD != 5 || h.Threshold <= 0 {
		t.Fatalf("health = %+v", h)
	}
}

// TestConcurrentQueriesRace hammers /query from many goroutines —
// the acceptance check for the Miner sharing contract; run with
// -race. Answers must match the sequential library results, and the
// hot repeated query must be served from the cache.
func TestConcurrentQueriesRace(t *testing.T) {
	s := newTestServer(t, Options{})
	h := s.Handler()
	const points = 10
	want := make([][]byte, points)
	m := s.def.view().miner
	eval, err := m.NewWorkerEvaluator()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < points; i++ {
		r, err := m.QueryWith(eval, m.Dataset().Point(i), i)
		if err != nil {
			t.Fatal(err)
		}
		want[i], _ = json.Marshal(masksToDims(r.Minimal))
	}

	const goroutines = 16
	const iters = 8
	var wg sync.WaitGroup
	errCh := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				idx := (g + it) % points
				req := httptest.NewRequest("POST", "/query",
					bytes.NewReader([]byte(fmt.Sprintf(`{"index": %d}`, idx))))
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					errCh <- fmt.Errorf("goroutine %d: status %d: %s", g, rec.Code, rec.Body.String())
					return
				}
				var resp queryResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
					errCh <- err
					return
				}
				got, _ := json.Marshal(resp.Minimal)
				if !bytes.Equal(got, want[idx]) {
					errCh <- fmt.Errorf("index %d: got %s want %s", idx, got, want[idx])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Queries != goroutines*iters {
		t.Fatalf("queries = %d, want %d", st.Queries, goroutines*iters)
	}
	if st.CacheHits == 0 {
		t.Fatal("no cache hits across repeated identical queries")
	}
	if st.CacheHits+st.CacheMisses != st.Queries {
		t.Fatalf("hits %d + misses %d != queries %d", st.CacheHits, st.CacheMisses, st.Queries)
	}
}

// TestConcurrentQueryAndScan overlaps a scan with query traffic; run
// with -race to validate the read-only sharing contract.
func TestConcurrentQueryAndScan(t *testing.T) {
	s := newTestServer(t, Options{})
	h := s.Handler()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		req := httptest.NewRequest("POST", "/scan", strings.NewReader(`{"workers": 4}`))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
	}()
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			body := fmt.Sprintf(`{"index": %d}`, g)
			req := httptest.NewRequest("POST", "/query", strings.NewReader(body))
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				t.Errorf("query during scan: status %d", rec.Code)
			}
		}(g)
	}
	wg.Wait()
}

// TestOversizedMaskSetNotPinned: the result cache pins at most 16384
// outlying masks per entry. A point far outside a d = 15 dataset in
// every column is outlying in all 2^15 - 1 = 32767 subspaces, so its
// entry keeps the answer but drops the full set.
func TestOversizedMaskSetNotPinned(t *testing.T) {
	const d = 15
	ds, err := datagen.GenerateUniform(60, d, 3)
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.NewMiner(ds, core.Config{K: 4, TQuantile: 0.9, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	registerClose(t, s)
	h := s.Handler()
	far := make([]float64, d)
	for i := range far {
		far[i] = 1000
	}
	buf, _ := json.Marshal(map[string]any{"point": far})
	body := string(buf)
	var first queryResponse
	do(t, h, "POST", "/query", body, &first)
	if first.Cached || first.OutlyingCount != 1<<d-1 {
		t.Fatalf("first query: cached %v, outlying in %d subspaces, want a fresh answer outlying in %d",
			first.Cached, first.OutlyingCount, 1<<d-1)
	}
	// Plain repeat: served from the stripped entry.
	var plain queryResponse
	do(t, h, "POST", "/query", body, &plain)
	if !plain.Cached || plain.OutlyingCount != first.OutlyingCount {
		t.Fatalf("plain repeat: cached %v, count %d; want a hit on the stripped entry", plain.Cached, plain.OutlyingCount)
	}
	// include_all cannot be served from the stripped entry: it must
	// recompute, and still return the full set.
	buf, _ = json.Marshal(map[string]any{"point": far, "include_all": true})
	var withAll queryResponse
	do(t, h, "POST", "/query", string(buf), &withAll)
	if withAll.Cached {
		t.Fatal("include_all served from an entry with no masks")
	}
	if len(withAll.Outlying) != withAll.OutlyingCount || withAll.OutlyingCount != 1<<d-1 {
		t.Fatalf("recomputed outlying has %d entries, count %d, want %d", len(withAll.Outlying), withAll.OutlyingCount, 1<<d-1)
	}
}

// TestPointTransformApplied: Options.NormStats derives the ad-hoc
// point transform — a raw-unit copy of a dataset row is answered at
// exactly that row's normalized coordinates — while index queries,
// already in dataset space, pass through untouched.
func TestPointTransformApplied(t *testing.T) {
	raw := newTestMiner(t).Dataset()
	norm, ranges, err := snapshot.Normalize(raw)
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.NewMiner(norm, core.Config{K: 4, TQuantile: 0.9, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(m, Options{NormStats: ranges})
	if err != nil {
		t.Fatal(err)
	}
	registerClose(t, s)
	buf, _ := json.Marshal(map[string]any{"point": raw.Point(5)})
	var adHoc queryResponse
	if rec := do(t, s.Handler(), "POST", "/query", string(buf), &adHoc); rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if !reflect.DeepEqual(adHoc.Point, norm.Point(5)) {
		t.Fatalf("ad-hoc point answered at %v, want the normalized row %v", adHoc.Point, norm.Point(5))
	}
	var byIndex queryResponse
	do(t, s.Handler(), "POST", "/query", `{"index": 5}`, &byIndex)
	if byIndex.Point != nil || byIndex.Index == nil || *byIndex.Index != 5 {
		t.Fatalf("index query response = %+v", byIndex)
	}
}

func TestCacheDisabled(t *testing.T) {
	s := newTestServer(t, Options{CacheSize: -1})
	h := s.Handler()
	var resp queryResponse
	do(t, h, "POST", "/query", `{"index": 2}`, &resp)
	do(t, h, "POST", "/query", `{"index": 2}`, &resp)
	if resp.Cached {
		t.Fatal("cache disabled but second query reported cached")
	}
	if s.Stats().CacheHits != 0 {
		t.Fatal("cache hits counted with caching disabled")
	}
}

func TestBatchEndpoint(t *testing.T) {
	s := newTestServer(t, Options{})
	n := s.def.view().miner.Dataset().N()
	point := s.def.view().miner.Dataset().Point(2)
	buf, _ := json.Marshal(map[string]any{"items": []map[string]any{
		{"index": 0},
		{"index": 7},
		{"point": point},
		{"index": n},            // out of range -> per-item error
		{"point": []float64{1}}, // wrong dims -> per-item error
	}})
	var resp batchResponse
	rec := do(t, s.Handler(), "POST", "/batch", string(buf), &resp)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if resp.Succeeded != 3 || resp.Failed != 2 {
		t.Fatalf("succeeded/failed = %d/%d, want 3/2", resp.Succeeded, resp.Failed)
	}
	if resp.Threshold != s.def.view().miner.Threshold() {
		t.Fatalf("threshold %v, want %v", resp.Threshold, s.def.view().miner.Threshold())
	}
	if !strings.Contains(resp.Results[3].Error, "out of range") {
		t.Fatalf("item 3 error = %q", resp.Results[3].Error)
	}
	if !strings.Contains(resp.Results[4].Error, "dims") {
		t.Fatalf("item 4 error = %q", resp.Results[4].Error)
	}
	// Every successful item must agree with the single-query path.
	m := s.def.view().miner
	eval, err := m.NewWorkerEvaluator()
	if err != nil {
		t.Fatal(err)
	}
	for i, idx := range []int{0, 7} {
		want, err := m.QueryWith(eval, m.Dataset().Point(idx), idx)
		if err != nil {
			t.Fatal(err)
		}
		got := resp.Results[i]
		if !reflect.DeepEqual(got.Minimal, masksToDims(want.Minimal)) ||
			got.IsOutlier != want.IsOutlierAnywhere ||
			got.OutlyingCount != len(want.Outlying) {
			t.Fatalf("item %d diverged from library query", i)
		}
	}
	wantExt, err := s.def.view().miner.QueryWith(eval, point, -1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resp.Results[2].Minimal, masksToDims(wantExt.Minimal)) {
		t.Fatal("external point item diverged from library query")
	}
}

func TestBatchValidation(t *testing.T) {
	s := newTestServer(t, Options{})
	// One item past the 256-item limit.
	tooMany := `{"items": [` + strings.Repeat(`{"index":0},`, 256) + `{"index":0}]}`
	cases := []struct {
		name, body string
		status     int
	}{
		{"empty batch", `{}`, http.StatusBadRequest},
		{"no items", `{"items": []}`, http.StatusBadRequest},
		{"too many items", tooMany, http.StatusBadRequest},
		{"negative workers", `{"items": [{"index":0}], "workers": -1}`, http.StatusBadRequest},
		{"unknown field", `{"items": [{"index":0}], "bogus": 1}`, http.StatusBadRequest},
	}
	for _, c := range cases {
		rec := do(t, s.Handler(), "POST", "/batch", c.body, nil)
		if rec.Code != c.status {
			t.Errorf("%s: status %d, want %d (body %s)", c.name, rec.Code, c.status, rec.Body.String())
		}
	}
	// Ambiguous and empty items fail per-item, not per-request.
	point := s.def.view().miner.Dataset().Point(0)
	buf, _ := json.Marshal(map[string]any{"items": []map[string]any{
		{"index": 0, "point": point},
		{},
	}})
	var resp batchResponse
	rec := do(t, s.Handler(), "POST", "/batch", string(buf), &resp)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if resp.Failed != 2 || resp.Succeeded != 0 {
		t.Fatalf("succeeded/failed = %d/%d, want 0/2", resp.Succeeded, resp.Failed)
	}
}

// /batch and /query share the result LRU in both directions.
func TestBatchResultCacheInterplay(t *testing.T) {
	s := newTestServer(t, Options{})
	h := s.Handler()
	// Seed index 1 through /query.
	if rec := do(t, h, "POST", "/query", `{"index": 1}`, nil); rec.Code != http.StatusOK {
		t.Fatalf("query status %d", rec.Code)
	}
	var resp batchResponse
	rec := do(t, h, "POST", "/batch", `{"items": [{"index": 1}, {"index": 2}]}`, &resp)
	if rec.Code != http.StatusOK {
		t.Fatalf("batch status %d: %s", rec.Code, rec.Body.String())
	}
	if !resp.Results[0].Cached || resp.ResultCacheHits != 1 {
		t.Fatalf("previously queried item not served from LRU: %+v", resp)
	}
	if resp.Results[1].Cached {
		t.Fatal("fresh item claimed to be cached")
	}
	// The batch-computed item must now hit on /query.
	var q queryResponse
	rec = do(t, h, "POST", "/query", `{"index": 2}`, &q)
	if rec.Code != http.StatusOK || !q.Cached {
		t.Fatalf("batch result did not seed the query cache (status %d, cached %v)", rec.Code, q.Cached)
	}
	// A fully-cached batch takes no batch slot and recomputes nothing.
	evals := s.Stats().ODEvaluations
	resp = batchResponse{}
	rec = do(t, h, "POST", "/batch", `{"items": [{"index": 1}, {"index": 2}]}`, &resp)
	if rec.Code != http.StatusOK || resp.ResultCacheHits != 2 || s.Stats().ODEvaluations != evals {
		t.Fatalf("fully-cached batch recomputed: %+v", resp)
	}
}

func TestBatchDuplicatesShareODWork(t *testing.T) {
	// Two rows, six times each: only the first occurrence of each row
	// computes, at any worker count. The result LRU is disabled so
	// every item goes through the engine.
	items := make([]map[string]any, 12)
	for i := range items {
		items[i] = map[string]any{"index": []int{4, 9}[i%2]}
	}
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			s := newTestServer(t, Options{CacheSize: -1})
			buf, _ := json.Marshal(map[string]any{"items": items, "workers": workers})
			var resp batchResponse
			rec := do(t, s.Handler(), "POST", "/batch", string(buf), &resp)
			if rec.Code != http.StatusOK {
				t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
			}
			if resp.Succeeded != len(items) {
				t.Fatalf("succeeded = %d, want %d", resp.Succeeded, len(items))
			}
			var firsts int64
			for i, r := range resp.Results {
				switch {
				case i < 2 && r.ODEvaluations == 0:
					t.Fatalf("first occurrence %d computed nothing", i)
				case i >= 2 && r.ODEvaluations != 0:
					t.Fatalf("duplicate item %d recomputed %d ODs", i, r.ODEvaluations)
				}
				firsts += r.ODEvaluations
			}
			st := s.Stats()
			if st.Batches != 1 || st.BatchItems != int64(len(items)) {
				t.Fatalf("stats batches/items = %d/%d", st.Batches, st.BatchItems)
			}
			if st.ODEvaluations != firsts {
				t.Fatalf("stats od_evaluations = %d, first occurrences computed %d", st.ODEvaluations, firsts)
			}
		})
	}
}

func TestBatchConcurrencyLimit(t *testing.T) {
	s := newTestServer(t, Options{Overload: overload.Config{ClassCaps: [3]int{overload.Batch: 1}}, CacheSize: -1})
	release := occupySlot(t, s, overload.Batch) // occupy the single batch slot
	rec := do(t, s.Handler(), "POST", "/batch", `{"items": [{"index": 0}]}`, nil)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429 (body %s)", rec.Code, rec.Body.String())
	}
	release()
}

// TestBatchTimeout: a batch whose deadline expires is answered 503 and
// frees its slot. The deadline is injected at the compute routine;
// core's TestQueryBatchCancelled and TestQueryBatchCancelMidSearch pin
// that the engine itself stops mid-search.
func TestBatchTimeout(t *testing.T) {
	s := newTestServer(t, Options{
		CacheSize: -1,
		FaultHook: func(op, _ string) (time.Duration, error) {
			if op == "batch" {
				return 0, context.DeadlineExceeded
			}
			return 0, nil
		},
	})
	rec := do(t, s.Handler(), "POST", "/batch", `{"items": [{"index": 0}]}`, nil)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503 (body %s)", rec.Code, rec.Body.String())
	}
	waitIdle(t, s)
}

// TestConcurrentBatchesRace hammers /batch from many goroutines with
// overlapping duplicate-heavy workloads plus interleaved /query
// traffic — the -race acceptance check for the batch engine's fan-out
// and its grouping of repeated items. The result LRU is disabled so
// every request exercises the engine.
func TestConcurrentBatchesRace(t *testing.T) {
	s := newTestServer(t, Options{CacheSize: -1, Overload: overload.Config{ClassCaps: [3]int{overload.Batch: 16}}})
	h := s.Handler()
	const points = 8
	want := make([][]byte, points)
	m := s.def.view().miner
	eval, err := m.NewWorkerEvaluator()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < points; i++ {
		r, err := m.QueryWith(eval, m.Dataset().Point(i), i)
		if err != nil {
			t.Fatal(err)
		}
		want[i], _ = json.Marshal(masksToDims(r.Minimal))
	}

	const goroutines = 12
	var wg sync.WaitGroup
	errCh := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			if g%4 == 3 { // interleave plain queries with the batches
				for it := 0; it < 6; it++ {
					body := fmt.Sprintf(`{"index": %d}`, (g+it)%points)
					rec := httptest.NewRecorder()
					h.ServeHTTP(rec, httptest.NewRequest("POST", "/query", strings.NewReader(body)))
					if rec.Code != http.StatusOK {
						errCh <- fmt.Errorf("goroutine %d query: status %d", g, rec.Code)
						return
					}
				}
				return
			}
			for it := 0; it < 3; it++ {
				items := make([]map[string]any, 10)
				for j := range items {
					items[j] = map[string]any{"index": (g + it + j) % points}
				}
				buf, _ := json.Marshal(map[string]any{"items": items, "workers": 2})
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest("POST", "/batch", bytes.NewReader(buf)))
				if rec.Code != http.StatusOK {
					errCh <- fmt.Errorf("goroutine %d batch: status %d: %s", g, rec.Code, rec.Body.String())
					return
				}
				var resp batchResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
					errCh <- err
					return
				}
				if resp.Failed != 0 {
					errCh <- fmt.Errorf("goroutine %d: %d items failed", g, resp.Failed)
					return
				}
				for j, item := range resp.Results {
					got, _ := json.Marshal(item.Minimal)
					if !bytes.Equal(got, want[(g+it+j)%points]) {
						errCh <- fmt.Errorf("goroutine %d item %d: got %s want %s", g, j, got, want[(g+it+j)%points])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	st := s.Stats()
	// 12 goroutines, every 4th doing queries instead: 9 batchers × 3
	// iterations.
	if st.Batches != 27 {
		t.Fatalf("batches = %d, want 27", st.Batches)
	}
}
