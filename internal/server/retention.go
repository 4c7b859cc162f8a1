package server

import (
	"context"
	"fmt"
	"net/http"
	"time"
)

// This file is the time-based retention subsystem: rows carry ingest
// stamps (view.stamps), every dataset carries an expiry policy, and a
// background sweeper turns the two into exact, WAL-journaled deletes:
//
//	GET /datasets/{name}/retention   current policy
//	PUT /datasets/{name}/retention   {"max_age":"24h","max_rows":50000}
//
// The process-wide defaults come from -retention-age/-retention-rows;
// the endpoint overrides them per dataset at runtime. Sweeps run as
// async jobs (kind "retention") through the same deleteRangeLocked
// path as DELETE /datasets/{name}/rows — same rebuild exactness, same
// durability ordering, same epoch discipline — and are observable in
// GET /jobs and the per-dataset /stats retention counters.

// retentionConfig is one dataset's expiry policy. Zero fields disable
// their dimension.
type retentionConfig struct {
	// MaxAge expires rows whose ingest stamp is older than this.
	MaxAge time.Duration
	// MaxRows caps the row count; a sweep deletes the oldest overflow.
	MaxRows int
}

func (c retentionConfig) enabled() bool { return c.MaxAge > 0 || c.MaxRows > 0 }

// retentionCfg reads the entry's current policy.
func (d *dataset) retentionCfg() retentionConfig {
	d.retMu.Lock()
	defer d.retMu.Unlock()
	return d.retention
}

// retentionBody is the PUT request: a Go duration string and a row
// cap; empty/zero disables that dimension.
type retentionBody struct {
	MaxAge  string `json:"max_age"`
	MaxRows int    `json:"max_rows"`
}

// retentionInfo renders a policy (GET response, PUT echo).
type retentionInfo struct {
	MaxAge  string `json:"max_age,omitempty"`
	MaxRows int    `json:"max_rows,omitempty"`
	Enabled bool   `json:"enabled"`
}

func renderRetention(cfg retentionConfig) retentionInfo {
	info := retentionInfo{MaxRows: cfg.MaxRows, Enabled: cfg.enabled()}
	if cfg.MaxAge > 0 {
		info.MaxAge = cfg.MaxAge.String()
	}
	return info
}

func (s *Server) handleGetRetention(w http.ResponseWriter, r *http.Request) {
	d, ok := s.resolveDataset(w, r.PathValue("name"))
	if !ok {
		return
	}
	resp := renderRetention(d.retentionCfg())
	s.writeJSON(w, http.StatusOK, &resp)
}

func (s *Server) handleSetRetention(w http.ResponseWriter, r *http.Request) {
	d, ok := s.resolveDataset(w, r.PathValue("name"))
	if !ok {
		return
	}
	var req retentionBody
	if !s.decodeBody(w, r, &req) {
		return
	}
	if req.MaxRows < 0 {
		s.error(w, http.StatusBadRequest, fmt.Sprintf("max_rows = %d", req.MaxRows))
		return
	}
	cfg := retentionConfig{MaxRows: req.MaxRows}
	if req.MaxAge != "" {
		age, err := time.ParseDuration(req.MaxAge)
		if err != nil {
			s.error(w, http.StatusBadRequest, fmt.Sprintf("max_age: %v", err))
			return
		}
		if age < 0 {
			s.error(w, http.StatusBadRequest, fmt.Sprintf("max_age = %s", age))
			return
		}
		cfg.MaxAge = age
	}
	d.retMu.Lock()
	d.retention = cfg
	d.retMu.Unlock()
	resp := renderRetention(cfg)
	s.writeJSON(w, http.StatusOK, &resp)
}

// retentionLoop is the background sweeper: every RetentionInterval it
// submits one "retention" job per dataset with an enabled policy. It
// runs for the server's whole life and exits when Close runs.
func (s *Server) retentionLoop() {
	defer close(s.retDone)
	t := time.NewTicker(s.opts.RetentionInterval)
	defer t.Stop()
	for {
		select {
		case <-s.retStop:
			return
		case <-t.C:
			s.sweepRetention()
		}
	}
}

// sweepRetention submits retention jobs for every eligible dataset
// and returns how many it submitted. The retaining flag keeps a slow
// sweep from stacking duplicate jobs, same as compacting does for
// compactions; a full job queue just means the next tick asks again.
func (s *Server) sweepRetention() int {
	submitted := 0
	for _, d := range s.reg.list() {
		if !d.retentionCfg().enabled() {
			continue
		}
		if !d.retaining.CompareAndSwap(false, true) {
			continue
		}
		if _, err := s.jobs.Submit("retention", s.retentionJob(d)); err != nil {
			d.retaining.Store(false)
			s.debugf("server: retention sweep of %s not submitted: %v", d.name, err)
			continue
		}
		submitted++
	}
	return submitted
}

// retentionSweepResult is a sweep job's result body under GET /jobs.
type retentionSweepResult struct {
	Dataset string `json:"dataset"`
	Deleted int    `json:"deleted"`
	N       int    `json:"n"`
}

// retentionJob is one dataset's sweep: compute the expired prefix
// under the writer lock and push it through the shared delete path —
// exact (core.Miner.WithoutRows), WAL-journaled and committed, one
// epoch swap. The policy is re-read inside the job so
// a PUT landing between tick and run is honoured.
func (s *Server) retentionJob(d *dataset) func(ctx context.Context, report func(done, total int)) (any, error) {
	return func(ctx context.Context, report func(done, total int)) (any, error) {
		defer d.retaining.Store(false)
		cfg := d.retentionCfg()
		d.mut.Lock()
		defer d.mut.Unlock()
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		report(0, 1)
		v := d.view()
		p := expiredPrefix(v, cfg, time.Now())
		d.retentionSweeps.Add(1)
		if p == 0 {
			report(1, 1)
			return &retentionSweepResult{Dataset: d.name, N: v.miner.Dataset().N()}, nil
		}
		nv, removed, status, errMsg := s.deleteRangeLocked(d, v, v.ids[0], v.ids[p])
		if status != 0 {
			return nil, fmt.Errorf("retention sweep of %s: %s", d.name, errMsg)
		}
		d.retentionExpired.Add(int64(removed))
		report(1, 1)
		s.debugf("server: retention swept %d rows from %s (epoch %d)", removed, d.name, nv.epoch)
		return &retentionSweepResult{Dataset: d.name, Deleted: removed, N: nv.miner.Dataset().N()}, nil
	}
}

// expiredPrefix returns how many leading rows of v the policy expires:
// every row older than MaxAge, plus however many more the MaxRows cap
// requires. Rows are append-ordered with non-decreasing stamps (the
// view invariant), so both dimensions reduce to a prefix — which is
// what lets the sweep express itself as one contiguous ID range
// through the shared delete path. The prefix is clamped so at least
// core.Config.MinRows rows survive — the smallest dataset the miner's
// configuration accepts — because retention must degrade to "keep the
// newest rows" on an idle dataset rather than fail the sweep outright.
func expiredPrefix(v *view, cfg retentionConfig, now time.Time) int {
	n := len(v.ids)
	p := 0
	if cfg.MaxAge > 0 {
		cutoff := now.Add(-cfg.MaxAge).UnixNano()
		for p < n && v.stamps[p] <= cutoff {
			p++
		}
	}
	if cfg.MaxRows > 0 && n-cfg.MaxRows > p {
		p = n - cfg.MaxRows
	}
	if floor := v.miner.Config().MinRows(); n-p < floor {
		p = n - floor
	}
	if p < 0 {
		return 0
	}
	return p
}
