package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"repro/internal/dataio"
	"repro/internal/vector"
)

// Each run boots hosserve from the CSV at least setupStarts times and
// until the boots took setupTime, at most maxSetupStarts times (setup_s
// is their median; the last boot serves the load): a workload whose
// set-up takes a tenth of a second gets a median over many boots. It
// restarts the server restartStarts times after the SIGKILL (recovery_s
// is their median).
const (
	setupStarts    = 3
	maxSetupStarts = 15
	setupTime      = 2 * time.Second
	restartStarts  = 3
)

// A window must hold minWindowSamples primary requests, enough for a
// p90 with ten samples beyond it; a shorter one is extended by half its
// length at a time, at most maxExtensions times. Only live_ingest's
// appends, about eight a second, ever need it.
const (
	minWindowSamples = 100
	maxExtensions    = 3
)

// warmupFor is the untimed closed-loop lead-in before a window: a
// tenth of the window, at least a second (3 s before a 30 s window).
func warmupFor(measure time.Duration) time.Duration {
	return max(measure/10, time.Second)
}

// e2eResult is one workload's untraced run against a hosserve child.
type e2eResult struct {
	// Metrics are the end-to-end metrics, keyed as in BENCHMARK.json.
	Metrics map[string]float64 `json:"metrics"`
	// Report holds the same run in the per-operation names of the
	// README's glossary (query_p50_ms, append_rows_per_s, ...), each
	// read off the whole window.
	Report     map[string]float64        `json:"report"`
	SetupRuns  []float64                 `json:"setup_runs_s"`
	RestartRun []float64                 `json:"restart_runs_s"`
	Ops        map[string]latencySummary `json:"ops"`
	Attempted  int                       `json:"attempted"`
	Failed     int                       `json:"failed"`
	Errors     []string                  `json:"errors,omitempty"`
}

// drive runs a plan against a server: the pre-phase one request at a
// time, then the closed loop, extended while it holds fewer than
// minWindowSamples requests of kind primary. Both the child-process
// run and the smoke test use it.
func drive(ctx context.Context, hc *http.Client, base string, p *plan, primary opKind, warmup, measure time.Duration, f *failures) ([]answered, *window, error) {
	pre, err := runPre(ctx, hc, base, p.pre, f)
	if err != nil {
		return nil, nil, err
	}
	win, err := runClosedLoop(ctx, hc, base, p.streams, warmup, measure, f)
	for i := 0; err == nil && len(win.lat[primary]) < minWindowSamples && i < maxExtensions; i++ {
		var more *window
		if more, err = runClosedLoop(ctx, hc, base, p.streams, 0, measure/2, f); err == nil {
			win.add(more)
		}
	}
	return pre, win, err
}

// summarizeWindow fills r's request metrics, each read off the whole
// window, nearest-rank: the req_* metrics for the workload's primary
// operation, and the report in per-operation names.
func (r *e2eResult) summarizeWindow(w *workload, win *window) {
	r.Ops = map[string]latencySummary{}
	for k := range numOpKinds {
		if lat := win.lat[k]; len(lat) > 0 {
			r.Ops[k.String()] = summarize(lat)
		}
	}
	rate := func(k opKind) float64 { return float64(len(win.lat[k])) / win.seconds }
	pri := r.Ops[w.primary().String()]
	r.Metrics["req_per_s"] = rate(w.primary())
	// Not measured (and so an error) unless there are samples, and
	// enough of them beyond the p90.
	r.Metrics["req_p50_ms"], r.Metrics["req_p90_ms"] = math.NaN(), math.NaN()
	if pri.N > 0 {
		r.Metrics["req_p50_ms"] = pri.P50
	}
	if pri.P90 != nil {
		r.Metrics["req_p90_ms"] = *pri.P90
	}

	report := func(name string, v *float64) {
		if v != nil {
			r.Report[name] = *v
		}
	}
	switch w.kind {
	case kindBatch:
		b := r.Ops["batch"]
		r.Report["batch_items_per_s"] = rate(opBatch) * 2 * batchUnique
		report("batch_p50_ms", &b.P50)
		report("batch_p99_ms", b.P99)
	case kindLive:
		a, d := r.Ops["append"], r.Ops["delete"]
		r.Report["append_rows_per_s"] = rate(opAppend) * appendRows
		report("append_p50_ms", &a.P50)
		report("append_p90_ms", a.P90)
		report("delete_p50_ms", &d.P50)
		fallthrough
	default:
		q := r.Ops["query"]
		r.Report["query_rps"] = rate(opQuery)
		report("query_p50_ms", &q.P50)
		report("query_p99_ms", q.P99)
	}
}

// runE2E is one untraced run of w: boot hosserve setupStarts times from
// the CSV, drive the plan over loopback, restart after SIGKILL, and
// check the answers.
func runE2E(ctx context.Context, hosserve, workDir string, w *workload, seed int64, measure time.Duration) (*e2eResult, error) {
	in, err := makeInputs(w, w.n, seed)
	if err != nil {
		return nil, err
	}
	p := makePlan(w, in, seed)
	dir, err := os.MkdirTemp(workDir, w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	csv, dataDir := filepath.Join(dir, "data.csv"), filepath.Join(dir, "data")
	if err := dataio.SaveFile(csv, in.ds); err != nil {
		return nil, err
	}
	if err := os.Mkdir(dataDir, 0o755); err != nil {
		return nil, err
	}
	hc := newHTTPClient(w.clients())
	defer hc.CloseIdleConnections()
	f := &failures{}
	res := &e2eResult{Metrics: map[string]float64{}, Report: map[string]float64{}}

	var c *child
	defer func() { c.kill() }()
	boot := func(args []string) (float64, error) {
		c.kill()
		var d time.Duration
		c, d, err = startChild(ctx, hosserve, args, hc)
		return d.Seconds(), err
	}
	for spent := 0.0; len(res.SetupRuns) < setupStarts || spent < setupTime.Seconds() && len(res.SetupRuns) < maxSetupStarts; {
		d, err := boot(w.serveArgs(csv, dataDir))
		if err != nil {
			return nil, err
		}
		res.SetupRuns = append(res.SetupRuns, d)
		spent += d
	}
	res.Metrics["setup_s"] = median(res.SetupRuns)
	res.Report["setup_s"] = res.Metrics["setup_s"]

	pre, win, err := drive(ctx, hc, c.base, p, w.primary(), warmupFor(measure), measure, f)
	if err != nil {
		return nil, err
	}
	res.summarizeWindow(w, win)

	// Make the state durable the way an operator would before the
	// crash. live_ingest: finish the writer's cycle, compact, then
	// journal a fixed restartCycles cycles, so the replay work does not
	// depend on how many writes the window fitted. The others: save.
	if p.writer != nil {
		for !p.writer.cycleDone() {
			write(ctx, hc, c.base, p.writer.next(), f)
		}
		if err := compact(ctx, hc, c.base); err != nil {
			return nil, err
		}
		for range restartCycles * (appendsPerTrim + 1) {
			write(ctx, hc, c.base, p.writer.next(), f)
		}
	} else {
		write(ctx, hc, c.base, request{method: "POST", path: "/datasets/default/save"}, f)
	}
	// The probe rows' answers must survive the restart and match the
	// oracle over the rows every acknowledged write left behind.
	rows := []int{0, in.ds.N() / 2, in.ds.N() - 1}
	before, err := probe(ctx, hc, c.base, rows, f)
	if err != nil {
		return nil, err
	}
	if res.Metrics["rss_peak_mib"], err = c.rssPeakMB(); err != nil {
		return nil, err
	}
	res.Report["rss_peak_mb"] = res.Metrics["rss_peak_mib"]
	for range restartStarts {
		hc.CloseIdleConnections()
		d, err := boot(restartArgs(dataDir))
		if err != nil {
			return nil, err
		}
		res.RestartRun = append(res.RestartRun, d)
	}
	res.Report["recovery_s"] = median(res.RestartRun)
	after, err := probe(ctx, hc, c.base, rows, f)
	if err != nil {
		return nil, err
	}
	after.restarted = true
	c.kill()
	if after.n != before.n || after.nextID != before.nextID {
		f.fail(fmt.Sprintf("restart: n=%d next_id=%d, acknowledged n=%d next_id=%d", after.n, after.nextID, before.n, before.nextID))
	}

	// The oracle runs after the child is gone, so its CPU never
	// competes with the measurement.
	o, err := newOracle(in.ds, w)
	if err != nil {
		return nil, err
	}
	o.checkPre(in, pre, f)
	if p.writer != nil {
		ds, err := vector.FromRows(p.writer.rows())
		if err != nil {
			return nil, err
		}
		if o, err = newOracle(ds, w); err != nil {
			return nil, err
		}
	}
	for i, row := range rows {
		for _, a := range []probed{before, after} {
			if err := o.checkQuery(row, a.bodies[i]); err != nil {
				f.fail(fmt.Sprintf("final state (restarted=%v): %v", a.restarted, err))
			}
		}
	}
	res.Attempted, res.Failed, res.Errors = f.attempted, f.failed, f.first
	res.Report["error_rate"] = float64(res.Failed) / float64(max(res.Attempted, 1))
	return res, nil
}

// write sends one request outside the timed window and records it.
func write(ctx context.Context, hc *http.Client, base string, r request, f *failures) {
	status, body, err := send(ctx, hc, base, r, nil)
	f.record(r, status, body, err)
}

// probed is the durable state a server reports: its size, next stable
// id and its answers for the probe rows.
type probed struct {
	n         int
	nextID    int64
	bodies    [][]byte
	restarted bool
}

func probe(ctx context.Context, hc *http.Client, base string, rows []int, f *failures) (probed, error) {
	var out probed
	_, body, err := send(ctx, hc, base, getRequest("/healthz"), nil)
	if err != nil {
		return out, err
	}
	var health struct {
		N int `json:"dataset_n"`
	}
	if err := json.Unmarshal(body, &health); err != nil {
		return out, fmt.Errorf("decoding /healthz: %w", err)
	}
	if _, body, err = send(ctx, hc, base, getRequest("/stats"), nil); err != nil {
		return out, err
	}
	var st struct {
		Datasets []struct {
			Name string `json:"name"`
			Live struct {
				NextID int64 `json:"next_id"`
			} `json:"live"`
		} `json:"datasets"`
	}
	if err := json.Unmarshal(body, &st); err != nil {
		return out, fmt.Errorf("decoding /stats: %w", err)
	}
	out.n = health.N
	for _, d := range st.Datasets {
		if d.Name == "default" {
			out.nextID = d.Live.NextID
		}
	}
	for _, row := range rows {
		r := queryRequest(row)
		status, body, err := send(ctx, hc, base, r, nil)
		f.record(r, status, body, err)
		out.bodies = append(out.bodies, body)
	}
	return out, ctx.Err()
}

// compact folds the default dataset's WAL into a fresh snapshot and
// waits for the job to finish.
func compact(ctx context.Context, hc *http.Client, base string) error {
	status, body, err := send(ctx, hc, base, request{method: "POST", path: "/datasets/default/compact"}, nil)
	if err != nil {
		return err
	}
	if status != http.StatusAccepted {
		return fmt.Errorf("compact: status %d: %s", status, body)
	}
	var job struct {
		ID    string `json:"id"`
		State string `json:"state"`
		Error string `json:"error"`
	}
	for {
		if err := json.Unmarshal(body, &job); err != nil {
			return fmt.Errorf("compact: %w", err)
		}
		switch job.State {
		case "done":
			return nil
		case "failed", "cancelled":
			return fmt.Errorf("compaction job %s %s: %s", job.ID, job.State, job.Error)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
		if _, body, err = send(ctx, hc, base, getRequest("/jobs/"+job.ID), nil); err != nil {
			return err
		}
	}
}
