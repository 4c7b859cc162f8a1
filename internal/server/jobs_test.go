package server

import (
	"context"
	"encoding/json"
	"net/http"
	"reflect"
	"strconv"
	"testing"
	"time"
)

// waitJob polls GET /jobs/{id} until the job reaches the wanted state
// or the deadline lapses.
func waitJob(t *testing.T, s *Server, id, want string) jobResponse {
	t.Helper()
	h := s.Handler()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		var resp jobResponse
		rec := do(t, h, "GET", "/jobs/"+id, "", &resp)
		if rec.Code != http.StatusOK {
			t.Fatalf("GET /jobs/%s: status %d (body %s)", id, rec.Code, rec.Body.String())
		}
		if resp.State == want {
			return resp
		}
		if resp.State == "failed" || (resp.State != want && resp.State == "cancelled") {
			t.Fatalf("job %s reached %s (error %q), want %s", id, resp.State, resp.Error, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %s", id, want)
	return jobResponse{}
}

// TestScanJobLifecycle drives the happy path end to end: submit,
// observe 202 + Location, poll to done, and check that the final
// result is exactly what the synchronous /scan answers for the same
// request — plus full progress and the /stats accounting.
func TestScanJobLifecycle(t *testing.T) {
	s := newTestServer(t, Options{})
	h := s.Handler()
	body := `{"max_results": 5, "sort_by_severity": true}`

	var sync scanResponse
	if rec := do(t, h, "POST", "/scan", body, &sync); rec.Code != http.StatusOK {
		t.Fatalf("sync scan: status %d", rec.Code)
	}

	rec := do(t, h, "POST", "/jobs/scan", body, nil)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("submit: status %d, want 202 (body %s)", rec.Code, rec.Body.String())
	}
	var submitted jobResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &submitted); err != nil {
		t.Fatal(err)
	}
	if submitted.ID == "" || (submitted.State != "queued" && submitted.State != "running") {
		t.Fatalf("submit snapshot = %+v", submitted)
	}
	if loc := rec.Header().Get("Location"); loc != "/jobs/"+submitted.ID {
		t.Fatalf("Location = %q", loc)
	}

	done := waitJob(t, s, submitted.ID, "done")
	n := s.def.view().miner.Dataset().N()
	if done.Progress.Done != int64(n) || done.Progress.Total != int64(n) || done.Progress.Percent != 100 {
		t.Fatalf("final progress = %+v, want %d/%d (100%%)", done.Progress, n, n)
	}
	if done.StartedAt == "" || done.FinishedAt == "" {
		t.Fatalf("timestamps missing: %+v", done)
	}

	// The job's result must be the synchronous answer (ElapsedMs is
	// wall time and legitimately differs).
	var async scanResponse
	buf, _ := json.Marshal(done.Result)
	if err := json.Unmarshal(buf, &async); err != nil {
		t.Fatal(err)
	}
	sync.ElapsedMs, async.ElapsedMs = 0, 0
	if !reflect.DeepEqual(sync, async) {
		t.Fatalf("async result diverged from sync scan:\n async %+v\n  sync %+v", async, sync)
	}

	// The sync scan ran as a job too: both count, once each.
	st := s.Stats()
	if st.Jobs.Submitted != 2 || st.Jobs.Completed != 2 {
		t.Fatalf("job stats = %+v, want 2 submitted and completed (sync + async)", st.Jobs)
	}
	if st.Scans != 2 {
		t.Fatalf("scans = %d, want 2 (sync + job)", st.Scans)
	}

	// GET /jobs lists both retained jobs, the sync scan's first.
	var list listJobsResponse
	if rec := do(t, h, "GET", "/jobs", "", &list); rec.Code != http.StatusOK {
		t.Fatalf("list: status %d", rec.Code)
	}
	if len(list.Jobs) != 2 || list.Jobs[1].ID != submitted.ID || list.Jobs[0].Kind != "scan" || list.Counters.Completed != 2 {
		t.Fatalf("list = %+v", list)
	}
	// The listing is an index: results are served by GET /jobs/{id}
	// only (which is also what marks them fetched).
	for _, j := range list.Jobs {
		if j.Result != nil {
			t.Fatal("GET /jobs embedded a job result")
		}
	}
}

// TestScanJobOutlivesScanTimeout is the acceptance criterion: with a
// ScanTimeout so tight every synchronous scan 503s, the same scan
// submitted as a job completes and its result stays retrievable.
func TestScanJobOutlivesScanTimeout(t *testing.T) {
	s := newTestServer(t, Options{ScanTimeout: time.Nanosecond})
	h := s.Handler()
	if rec := do(t, h, "POST", "/scan", `{}`, nil); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("sync scan with 1ns deadline: status %d, want 503", rec.Code)
	}
	rec := do(t, h, "POST", "/jobs/scan", `{}`, nil)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("submit: status %d (body %s)", rec.Code, rec.Body.String())
	}
	var submitted jobResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &submitted); err != nil {
		t.Fatal(err)
	}
	done := waitJob(t, s, submitted.ID, "done")
	var async scanResponse
	buf, _ := json.Marshal(done.Result)
	if err := json.Unmarshal(buf, &async); err != nil {
		t.Fatal(err)
	}
	if async.MaxResults != 1000 {
		t.Fatalf("result = %+v, want default-clamped scan response", async)
	}
	// Retrievable again: the result is retained, not consumed.
	again := waitJob(t, s, submitted.ID, "done")
	if again.Result == nil {
		t.Fatal("second fetch lost the result")
	}
}

// TestJobQueueFullGets429WithRetryAfter: one worker busy on a slow
// scan, depth-1 queue occupied — the third submission must be turned
// away with 429 and a positive Retry-After, and counted as rejected.
func TestJobQueueFullGets429WithRetryAfter(t *testing.T) {
	s := newSlowScanServer(t, Options{JobWorkers: 1, JobQueueDepth: 1})
	h := s.Handler()
	submit := func() (*jobResponse, int, string) {
		rec := do(t, h, "POST", "/jobs/scan", `{}`, nil)
		var resp jobResponse
		if rec.Code == http.StatusAccepted {
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Fatal(err)
			}
		}
		return &resp, rec.Code, rec.Header().Get("Retry-After")
	}
	running, code, _ := submit()
	if code != http.StatusAccepted {
		t.Fatalf("first submit: %d", code)
	}
	waitJob(t, s, running.ID, "running")
	queued, code, _ := submit()
	if code != http.StatusAccepted {
		t.Fatalf("second submit: %d", code)
	}
	_, code, retry := submit()
	if code != http.StatusTooManyRequests {
		t.Fatalf("third submit: %d, want 429", code)
	}
	secs, err := strconv.Atoi(retry)
	if err != nil || secs < 1 {
		t.Fatalf("Retry-After = %q, want a positive integer", retry)
	}
	if st := s.Stats(); st.Jobs.Rejected != 1 || st.Jobs.Queued != 1 || st.Jobs.Running != 1 {
		t.Fatalf("job stats = %+v", st.Jobs)
	}
	// Cancel both so the test does not wait out the slow sweeps.
	for _, id := range []string{queued.ID, running.ID} {
		if rec := do(t, h, "DELETE", "/jobs/"+id, "", nil); rec.Code != http.StatusOK {
			t.Fatalf("cancel %s: status %d", id, rec.Code)
		}
	}
	deadline := time.Now().Add(30 * time.Second)
	for s.Stats().Jobs.Cancelled != 2 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if st := s.Stats(); st.Jobs.Cancelled != 2 {
		t.Fatalf("cancelled = %d, want 2 (%+v)", st.Jobs.Cancelled, st.Jobs)
	}
}

// TestJobCancelRunning: DELETE on a running job cancels cooperatively
// and the terminal state is observable.
func TestJobCancelRunning(t *testing.T) {
	s := newSlowScanServer(t, Options{})
	h := s.Handler()
	rec := do(t, h, "POST", "/jobs/scan", `{}`, nil)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("submit: %d", rec.Code)
	}
	var submitted jobResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &submitted); err != nil {
		t.Fatal(err)
	}
	waitJob(t, s, submitted.ID, "running")
	if rec := do(t, h, "DELETE", "/jobs/"+submitted.ID, "", nil); rec.Code != http.StatusOK {
		t.Fatalf("cancel: %d (body %s)", rec.Code, rec.Body.String())
	}
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		var resp jobResponse
		do(t, h, "GET", "/jobs/"+submitted.ID, "", &resp)
		if resp.State == "cancelled" {
			if resp.Error == "" || resp.Result != nil {
				t.Fatalf("cancelled job = %+v", resp)
			}
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("job never reached cancelled")
}

func TestJobValidationAndUnknown(t *testing.T) {
	s := newTestServer(t, Options{})
	h := s.Handler()
	if rec := do(t, h, "POST", "/jobs/scan", `{"max_results": -1}`, nil); rec.Code != http.StatusBadRequest {
		t.Fatalf("bad request: %d", rec.Code)
	}
	if rec := do(t, h, "POST", "/jobs/scan", `{"dataset": "nope"}`, nil); rec.Code != http.StatusNotFound {
		t.Fatalf("unknown dataset: %d", rec.Code)
	}
	if rec := do(t, h, "GET", "/jobs/scan-999", "", nil); rec.Code != http.StatusNotFound {
		t.Fatalf("unknown job: %d", rec.Code)
	}
	if rec := do(t, h, "DELETE", "/jobs/scan-999", "", nil); rec.Code != http.StatusNotFound {
		t.Fatalf("cancel unknown job: %d", rec.Code)
	}
}

// TestServerCloseDrainsJobs: Close lets queued/running jobs finish
// and subsequent submissions are refused.
func TestServerCloseDrainsJobs(t *testing.T) {
	s := newTestServer(t, Options{})
	h := s.Handler()
	rec := do(t, h, "POST", "/jobs/scan", `{}`, nil)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("submit: %d", rec.Code)
	}
	var submitted jobResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &submitted); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Close(ctx); err != nil {
		t.Fatalf("close: %v", err)
	}
	got := waitJob(t, s, submitted.ID, "done")
	if got.Result == nil {
		t.Fatal("drained job lost its result")
	}
	if rec := do(t, h, "POST", "/jobs/scan", `{}`, nil); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("submit after close: %d, want 503", rec.Code)
	}
}
