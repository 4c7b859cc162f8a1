package server

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"time"

	"repro/internal/jobs"
	"repro/internal/overload"
)

// This file is the job face of the whole-dataset scan. Every scan is
// a job on the bounded job subsystem (internal/jobs): it runs on the
// job worker pool, reports monotonic progress (points evaluated /
// dataset size), and holds its result for JobResultTTL. POST /scan
// submits one and waits for it (handleScan); the async endpoints hand
// the job to the client instead, so a sweep longer than any request
// deadline still completes:
//
//	POST   /jobs/scan   submit (body = the /scan body)   → 202 + job id
//	GET    /jobs        list retained jobs + counters
//	GET    /jobs/{id}   status, progress, result when done
//	DELETE /jobs/{id}   cancel (queued: immediate; running: cooperative)
//
// Admission is circuit-style: the queue depth is the budget, a full
// queue answers 429 with a Retry-After estimated from recent job run
// times and the current backlog — an honest "come back later", not a
// blind rejection.

// jobProgress is the progress section of a job response.
type jobProgress struct {
	// Done/Total are points evaluated so far vs dataset size (0/0
	// before the first report).
	Done  int64 `json:"done"`
	Total int64 `json:"total"`
	// Percent is Done/Total rounded to one decimal (0 when unknown).
	Percent float64 `json:"percent"`
}

// jobResponse is the JSON rendering of one job for every /jobs
// endpoint.
type jobResponse struct {
	ID         string      `json:"id"`
	Kind       string      `json:"kind"`
	State      string      `json:"state"`
	Progress   jobProgress `json:"progress"`
	CreatedAt  string      `json:"created_at"`
	StartedAt  string      `json:"started_at,omitempty"`
	FinishedAt string      `json:"finished_at,omitempty"`
	// ElapsedMs is run time so far (running) or final (terminal).
	ElapsedMs float64 `json:"elapsed_ms,omitempty"`
	Error     string  `json:"error,omitempty"`
	// Result is the scanResponse of a done scan job.
	Result any `json:"result,omitempty"`
}

type listJobsResponse struct {
	Jobs     []jobResponse `json:"jobs"`
	Counters JobStats      `json:"counters"`
}

// toJobStats renders manager counters for /stats and GET /jobs — the
// single mapping both endpoints share.
func toJobStats(c jobs.Counters) JobStats {
	return JobStats{
		Submitted: c.Submitted,
		Rejected:  c.Rejected,
		Queued:    c.Queued,
		Running:   c.Running,
		Completed: c.Completed,
		Failed:    c.Failed,
		Cancelled: c.Cancelled,
		Abandoned: c.Abandoned,
	}
}

func renderJob(snap jobs.Snapshot) jobResponse {
	out := jobResponse{
		ID:        snap.ID,
		Kind:      snap.Kind,
		State:     snap.State.String(),
		CreatedAt: snap.Created.UTC().Format(time.RFC3339Nano),
	}
	out.Progress = jobProgress{Done: snap.Done, Total: snap.Total}
	if snap.Total > 0 {
		out.Progress.Percent = math.Round(1000*float64(snap.Done)/float64(snap.Total)) / 10
	}
	if !snap.Started.IsZero() {
		out.StartedAt = snap.Started.UTC().Format(time.RFC3339Nano)
		end := snap.Finished
		if end.IsZero() {
			end = time.Now()
		}
		out.ElapsedMs = float64(end.Sub(snap.Started)) / float64(time.Millisecond)
	}
	if !snap.Finished.IsZero() {
		out.FinishedAt = snap.Finished.UTC().Format(time.RFC3339Nano)
	}
	if snap.Err != nil {
		out.Error = snap.Err.Error()
	}
	if snap.State == jobs.StateDone {
		out.Result = snap.Result
	}
	return out
}

// submitScan is the shared front half of POST /scan and POST
// /jobs/scan: plan the request, admit it through the dataset's guard,
// and submit the sweep to the job pool. It writes the 4xx/5xx itself
// and reports ok=false on any refusal.
func (s *Server) submitScan(w http.ResponseWriter, r *http.Request) (*scanPlan, jobs.Snapshot, bool) {
	plan, ok := s.planScan(w, r)
	if !ok {
		return nil, jobs.Snapshot{}, false
	}
	// Jobs run on their own worker pool, so the guard admits them
	// detached — no concurrency permit is held through queueing and
	// execution — but the dataset's breaker and the bulk class's share
	// of the adaptive limit still gate submission: a dataset that is
	// drowning must not keep accepting sweeps it cannot serve. The
	// job's outcome feeds back via RecordDetached below.
	if rej := plan.d.guard.AdmitDetached(overload.Bulk); rej != nil {
		s.refuse(w, plan.d.name, overload.Bulk, rej)
		return nil, jobs.Snapshot{}, false
	}
	snap, err := s.jobs.Submit("scan", func(jobCtx context.Context, report func(done, total int)) (any, error) {
		runCtx := jobCtx
		if s.opts.JobTimeout > 0 {
			var cancel context.CancelFunc
			runCtx, cancel = context.WithTimeout(jobCtx, s.opts.JobTimeout)
			defer cancel()
		}
		// The result's elapsed_ms is the scan's run time: the clock
		// starts when a worker picks the job up, not at submission —
		// queue wait is visible separately (created_at vs started_at).
		resp, err := plan.run(runCtx, time.Now(), report)
		// The detached admission's outcome lands in the breaker window
		// before the error is dressed up for the poller: a job-timeout
		// or engine failure is evidence against the dataset, while a
		// cancelled job proves nothing either way.
		plan.d.guard.RecordDetached(outcomeFor(err))
		if err != nil {
			// A deadline with the job's own context still live is the
			// JobTimeout backstop firing; name it, or the poller sees
			// a bare "context deadline exceeded" indistinguishable
			// from any other failure.
			if errors.Is(err, context.DeadlineExceeded) && jobCtx.Err() == nil {
				return nil, fmt.Errorf("job exceeded the %s job-timeout: %w", s.opts.JobTimeout, err)
			}
			return nil, err
		}
		plan.d.queries.Add(1)
		s.stats.recordScan()
		return resp, nil
	})
	if err != nil {
		s.refuse(w, plan.d.name, overload.Bulk, err)
		return nil, jobs.Snapshot{}, false
	}
	s.debugf("server: job %s admitted (dataset %s, %d workers)", snap.ID, plan.d.name, plan.workers)
	return plan, snap, true
}

// handleSubmitScanJob accepts the /scan request body and runs the
// sweep asynchronously: 202 + job id on admission.
func (s *Server) handleSubmitScanJob(w http.ResponseWriter, r *http.Request) {
	_, snap, ok := s.submitScan(w, r)
	if !ok {
		return
	}
	resp := renderJob(snap)
	w.Header().Set("Location", "/jobs/"+snap.ID)
	s.writeJSON(w, http.StatusAccepted, &resp)
}

func (s *Server) handleGetJob(w http.ResponseWriter, r *http.Request) {
	snap, ok := s.jobs.Get(r.PathValue("id"))
	if !ok {
		s.error(w, http.StatusNotFound,
			fmt.Sprintf("job %q not found (finished jobs are retained for %s)", r.PathValue("id"), s.opts.JobResultTTL))
		return
	}
	resp := renderJob(snap)
	s.writeJSON(w, http.StatusOK, &resp)
}

func (s *Server) handleCancelJob(w http.ResponseWriter, r *http.Request) {
	snap, ok := s.jobs.Cancel(r.PathValue("id"))
	if !ok {
		s.error(w, http.StatusNotFound, fmt.Sprintf("job %q not found", r.PathValue("id")))
		return
	}
	s.debugf("server: job %s cancel requested (state %s)", snap.ID, snap.State)
	resp := renderJob(snap)
	// Cancelling a job that already finished is a no-op that reports
	// the terminal state; it is not a delivery channel — only GET
	// /jobs/{id} (and the POST /scan waiter) serves the result, because
	// only those mark it fetched and an unfetched delivery would later
	// read as abandoned.
	resp.Result = nil
	s.writeJSON(w, http.StatusOK, &resp)
}

func (s *Server) handleListJobs(w http.ResponseWriter, _ *http.Request) {
	snaps, ctr := s.jobs.List()
	resp := &listJobsResponse{
		Jobs:     make([]jobResponse, len(snaps)),
		Counters: toJobStats(ctr),
	}
	for i, snap := range snaps {
		resp.Jobs[i] = renderJob(snap)
		// The listing is an index, not a delivery channel: embedding
		// every retained result would re-serialize up to MaxScanResults
		// hits per done job on every poll, and a result read here would
		// not mark the job fetched (only GET /jobs/{id} does, which is
		// what keeps the abandoned counter honest).
		resp.Jobs[i].Result = nil
	}
	s.writeJSON(w, http.StatusOK, resp)
}
