package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/overload"
	"repro/internal/snapshot"
	"repro/internal/wal"
)

// This file is the live-mutation face of the registry: datasets stop
// being frozen at load time and accept streaming appends and
// id-addressed deletions while serving queries.
//
//	POST   /datasets/{name}/append   {"rows": [[..],..]} → new epoch
//	DELETE /datasets/{name}/rows     {"from_id","to_id"} or {"keep_last"}
//	POST   /datasets/{name}/compact  fold WAL deltas into a fresh .snap (async job)
//
// Consistency model. Each mutation derives a complete replacement
// view with nextView — core.Miner.WithAppendedBatch reuses the
// incremental X-tree and shard append paths, so the result is
// bit-identical to a from-scratch rebuild — and commitLocked swaps the
// dataset's view pointer once the delta is durable. In-flight queries
// hold the view they resolved and never observe torn state; the epoch
// counter in /stats and /datasets is the number of swaps.
//
// Group commit. Concurrent /append requests do not each pay the
// rebuild: every handler enqueues its rows on the entry's pending
// queue and races for the writer lock, and whoever wins drains the
// whole queue as ONE mutation — one per-request validation pass, one
// batched index rebuild, one WAL batch frame, one fsync, one epoch
// swap. Each caller is unblocked only after its rows are durable and
// visible, so the acknowledgment contract is unchanged; only the cost
// is amortized. The epoch counter therefore advances once per drain,
// not once per request (appends vs append_batches in /stats).
//
// Durability. With -data-dir and -wal, the first mutation persists the
// pre-mutation state as <name>.snap and opens <name>.wal beside it
// (internal/wal); every mutation appends a CRC-framed batch frame
// AND commits it (per the configured wal.SyncPolicy) BEFORE the new
// view becomes visible. A restart replays base + WAL through the same
// nextView to the same state; compaction folds the deltas into a
// fresh base and rotates the log. A crash between those two steps is
// safe either way: the stale log fails its BaseCRC binding against
// the new base and is ignored, because everything it carried is
// already in the snapshot.

// view is one immutable epoch of a dataset's queryable state. Every
// field is fixed at construction; mutations build a new view. The
// result cache lives here, not on the entry, because it is keyed to
// this miner's rows and threshold — answers from epoch N must never
// serve epoch N+1.
type view struct {
	miner *core.Miner
	cache *resultCache
	// norm mirrors dataset.normStats (see there).
	norm  []snapshot.ColumnRange
	epoch int64
	// ids[i] is the stable ID of dataset row i — ascending, and what
	// delete-by-range addresses. nextID is the next ID an append takes.
	// stamps[i] is row i's ingest time (Unix nanoseconds), parallel to
	// ids and non-decreasing — rows only ever append at the end and
	// delete preserves order, so "older than" is always a prefix, which
	// is what lets the retention sweeper expire by ID range.
	ids    []int64
	stamps []int64
	nextID int64
}

// resolveQueryTarget turns a request's (index, point) pair — exactly
// one must be set — into the evaluation point and self-exclusion
// index, rescaling ad-hoc vectors of a normalized dataset. It
// is the single definition of request-level target validation, shared
// by /query and every /batch item. A non-empty errMsg is a client
// error.
func (v *view) resolveQueryTarget(index *int, point []float64) (pt []float64, exclude int, errMsg string) {
	ds := v.miner.Dataset()
	switch {
	case index != nil && point != nil:
		return nil, -1, "set exactly one of \"index\" and \"point\""
	case index != nil:
		idx := *index
		if idx < 0 || idx >= ds.N() {
			return nil, -1, fmt.Sprintf("index %d out of range [0,%d)", idx, ds.N())
		}
		return ds.Point(idx), idx, ""
	case point != nil:
		if len(point) != ds.Dim() {
			return nil, -1, fmt.Sprintf("point has %d dims, dataset has %d", len(point), ds.Dim())
		}
		if len(v.norm) > 0 {
			point = snapshot.ScalePoint(v.norm, point)
		}
		return point, -1, ""
	default:
		return nil, -1, "set one of \"index\" (dataset row) or \"point\" (vector)"
	}
}

// walActive reports whether mutations are write-ahead logged.
func (s *Server) walActive() bool { return s.opts.WAL && s.opts.DataDir != "" }

// walPath is the delta-log path for a dataset name.
func (s *Server) walPath(name string) string {
	return filepath.Join(s.opts.DataDir, name+walExt)
}

// walExt is the delta-log file suffix under DataDir, beside snapExt.
const walExt = ".wal"

// ---- request/response bodies ----

type appendRequest struct {
	Rows [][]float64 `json:"rows"`
}

type appendResponse struct {
	Appended int   `json:"appended"`
	N        int   `json:"n"`
	Epoch    int64 `json:"epoch"`
	// FirstID is the stable ID of the first appended row; the rest
	// follow contiguously. IDs address DELETE /datasets/{name}/rows.
	FirstID  int64 `json:"first_id"`
	WALBytes int64 `json:"wal_bytes,omitempty"`
}

type deleteRowsRequest struct {
	// Either an explicit stable-ID range [FromID, ToID) …
	FromID *int64 `json:"from_id,omitempty"`
	ToID   *int64 `json:"to_id,omitempty"`
	// … or retention: delete everything but the newest KeepLast rows.
	KeepLast *int `json:"keep_last,omitempty"`
}

type deleteRowsResponse struct {
	Deleted  int   `json:"deleted"`
	N        int   `json:"n"`
	Epoch    int64 `json:"epoch"`
	WALBytes int64 `json:"wal_bytes,omitempty"`
}

// ---- handlers ----

// appendOp is one queued /append request: its pre-transformed rows
// and the channel its handler waits on. done is buffered so the
// draining handler can deliver an outcome to an op whose own handler
// has not reached the writer lock yet, without blocking on it.
type appendOp struct {
	rows [][]float64
	done chan appendOutcome
}

// appendOutcome is one op's result, decided under the drain: either a
// success body or an error status + message.
type appendOutcome struct {
	resp   *appendResponse
	status int
	errMsg string
}

func (s *Server) handleAppendRows(w http.ResponseWriter, r *http.Request) {
	d, ok := s.resolveDataset(w, r.PathValue("name"))
	if !ok {
		return
	}
	var req appendRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	if len(req.Rows) == 0 {
		s.error(w, http.StatusBadRequest, "\"rows\" is empty")
		return
	}
	// Appended rows arrive in the same units as ad-hoc query vectors;
	// a normalized dataset rescales them identically. The WAL records
	// the post-transform values, so replay applies them literally.
	// Transforming here — before the queue — keeps per-request work out
	// of the serialized drain.
	rows := req.Rows
	if len(d.normStats) > 0 {
		rows = make([][]float64, len(req.Rows))
		for i, row := range req.Rows {
			rows[i] = snapshot.ScalePoint(d.normStats, row)
		}
	}

	// Enqueue, then race for the writer lock. Whoever wins drains the
	// whole pending queue as one batch; an op that finds its outcome
	// already delivered when it acquires the lock was coalesced into an
	// earlier drain. Either way the response is written only after this
	// request's rows are durable and visible — group commit at the HTTP
	// layer.
	op := &appendOp{rows: rows, done: make(chan appendOutcome, 1)}
	d.pendMu.Lock()
	d.pending = append(d.pending, op)
	d.pendMu.Unlock()

	d.mut.Lock()
	select {
	case out := <-op.done:
		d.mut.Unlock()
		s.writeAppendOutcome(w, out)
		return
	default:
	}
	s.drainAppendsLocked(d)
	d.mut.Unlock()
	s.writeAppendOutcome(w, <-op.done)
}

func (s *Server) writeAppendOutcome(w http.ResponseWriter, out appendOutcome) {
	switch {
	case out.resp != nil:
		s.writeJSON(w, http.StatusOK, out.resp)
	case out.status == http.StatusNotFound:
		s.notFound(w, out.errMsg)
	default:
		s.error(w, out.status, out.errMsg)
	}
}

// drainAppendsLocked applies every queued append as one amortized
// mutation; the caller holds d.mut. Per-op validation runs first
// (core.ValidateRows plus the cumulative load limit), so a malformed
// request fails alone instead of poisoning the batch. The surviving
// ops become one append record each, and nextView applies the run
// through one core.WithAppendedBatch — one shard routing pass, one
// X-tree unpack/insert/repack, one threshold re-resolution.
// commitLocked then journals them as one WAL batch frame, makes them
// durable with one Commit and visible with one epoch swap. Every
// drained op's outcome is delivered before this returns.
func (s *Server) drainAppendsLocked(d *dataset) {
	d.pendMu.Lock()
	ops := d.pending
	d.pending = nil
	d.pendMu.Unlock()
	if len(ops) == 0 {
		return
	}
	v := d.view()
	dim := v.miner.Dataset().Dim()

	accepted := make([]*appendOp, 0, len(ops))
	total := 0
	for _, op := range ops {
		if err := core.ValidateRows(op.rows, dim); err != nil {
			op.done <- appendOutcome{status: http.StatusBadRequest, errMsg: err.Error()}
			continue
		}
		if n := v.miner.Dataset().N() + total + len(op.rows); n > s.opts.MaxLoadPoints {
			op.done <- appendOutcome{status: http.StatusBadRequest, errMsg: fmt.Sprintf(
				"append would grow the dataset to %d points, exceeding the load limit %d", n, s.opts.MaxLoadPoints)}
			continue
		}
		accepted = append(accepted, op)
		total += len(op.rows)
	}
	if len(accepted) == 0 {
		return
	}
	recs := make([]wal.Record, len(accepted))
	now := time.Now().UnixNano()
	next := v.nextID
	for i, op := range accepted {
		recs[i] = wal.Record{Type: wal.RecordAppend, FirstID: next, Rows: op.rows, Stamp: now}
		next += int64(len(op.rows))
	}
	nv, err := s.nextView(d, v, v.epoch+1, recs)
	if err == nil {
		err = s.commitLocked(d, v, nv, recs)
	}
	if err != nil {
		// Every batch already passed ValidateRows, so this is an engine
		// refusal, a WAL failure or an entry evicted under the requests,
		// not a malformed request.
		status := http.StatusInternalServerError
		if errors.Is(err, ErrDatasetNotFound) {
			status = http.StatusNotFound
		}
		for _, op := range accepted {
			op.done <- appendOutcome{status: status, errMsg: err.Error()}
		}
		return
	}
	d.appends.Add(int64(len(accepted)))
	d.appendedRows.Add(int64(total))
	d.appendBatches.Add(1)
	n := nv.miner.Dataset().N()
	firstID := v.nextID
	for _, op := range accepted {
		op.done <- appendOutcome{resp: &appendResponse{
			Appended: len(op.rows),
			N:        n,
			Epoch:    nv.epoch,
			FirstID:  firstID,
			WALBytes: d.walBytes.Load(),
		}}
		firstID += int64(len(op.rows))
	}
}

func (s *Server) handleDeleteRows(w http.ResponseWriter, r *http.Request) {
	d, ok := s.resolveDataset(w, r.PathValue("name"))
	if !ok {
		return
	}
	var req deleteRowsRequest
	if !s.decodeBody(w, r, &req) {
		return
	}

	d.mut.Lock()
	defer d.mut.Unlock()
	if err := d.aliveLocked(); err != nil {
		s.notFound(w, err.Error())
		return
	}
	v := d.view()
	var fromID, toID int64
	switch {
	case req.KeepLast != nil:
		if req.FromID != nil || req.ToID != nil {
			s.error(w, http.StatusBadRequest, "set either \"keep_last\" or \"from_id\"+\"to_id\", not both")
			return
		}
		k := *req.KeepLast
		if k <= 0 {
			// keep_last = 0 would mean "delete every row", which the
			// engine refuses anyway (a dataset cannot go empty); it is a
			// client error here, not the index panic it used to be.
			s.error(w, http.StatusBadRequest,
				fmt.Sprintf("keep_last = %d; must keep at least 1 row", k))
			return
		}
		if k >= len(v.ids) {
			s.error(w, http.StatusBadRequest,
				fmt.Sprintf("keep_last = %d retains all %d rows; nothing to delete", k, len(v.ids)))
			return
		}
		fromID, toID = v.ids[0], v.ids[len(v.ids)-k]
	case req.FromID != nil && req.ToID != nil:
		fromID, toID = *req.FromID, *req.ToID
		if fromID < 0 || toID < fromID {
			s.error(w, http.StatusBadRequest, fmt.Sprintf("invalid ID range [%d,%d)", fromID, toID))
			return
		}
	default:
		s.error(w, http.StatusBadRequest, "set \"from_id\"+\"to_id\" (stable ID range, end exclusive) or \"keep_last\"")
		return
	}
	nv, removed, status, errMsg := s.deleteRangeLocked(d, v, fromID, toID)
	if status != 0 {
		s.error(w, status, errMsg)
		return
	}
	s.writeJSON(w, http.StatusOK, &deleteRowsResponse{
		Deleted:  removed,
		N:        nv.miner.Dataset().N(),
		Epoch:    nv.epoch,
		WALBytes: d.walBytes.Load(),
	})
}

// deleteRangeLocked is the one delete path: it removes every row of
// d's view v whose stable ID falls in [fromID, toID), deriving the next
// epoch with nextView and committing it with commitLocked (journal and
// Commit before the swap). Both the DELETE handler and the retention
// sweeper go through it, so exactness (WithoutRows is a full rebuild
// of the survivors) and durability ordering are argued once. The
// caller holds d.mut. A non-zero status reports the failure and the
// view is unchanged.
func (s *Server) deleteRangeLocked(d *dataset, v *view, fromID, toID int64) (nv *view, removed, status int, errMsg string) {
	for _, id := range v.ids {
		if id >= fromID && id < toID {
			removed++
		}
	}
	if removed == 0 {
		return nil, 0, http.StatusBadRequest, fmt.Sprintf("no rows with IDs in [%d,%d)", fromID, toID)
	}
	recs := []wal.Record{{Type: wal.RecordDelete, FromID: fromID, ToID: toID, Stamp: time.Now().UnixNano()}}
	nv, err := s.nextView(d, v, v.epoch+1, recs)
	if err != nil {
		return nil, 0, http.StatusBadRequest, err.Error()
	}
	if err := s.commitLocked(d, v, nv, recs); err != nil {
		return nil, 0, http.StatusInternalServerError, err.Error()
	}
	d.deletes.Add(1)
	d.deletedRows.Add(int64(removed))
	return nv, removed, 0, ""
}

// nextView is the one epoch derivation: it applies WAL records, in
// journal order, to view v and returns the view for epoch holding the
// resulting miner, stable row IDs, ingest stamps and next ID. The
// append drain, the delete path and WAL replay all derive through it,
// so a restart rebuilds exactly the state that was served. Each run of
// consecutive appends is applied with one WithAppendedBatch call; a
// delete that matches no row is a no-op. Each appended row's stamp is
// its record's stamp floored at the newest surviving stamp, so stamps
// stay non-decreasing even if the clock steps backwards — the
// retention sweeper's prefix expiry relies on that. v is not modified.
func (s *Server) nextView(d *dataset, v *view, epoch int64, recs []wal.Record) (*view, error) {
	m, ids, stamps, nextID := v.miner, v.ids, v.stamps, v.nextID
	var err error
	for i := 0; i < len(recs); {
		if rec := recs[i]; rec.Type == wal.RecordDelete {
			i++
			keep := make([]int, 0, len(ids))
			for j, id := range ids {
				if id < rec.FromID || id >= rec.ToID {
					keep = append(keep, j)
				}
			}
			if len(keep) == len(ids) {
				continue
			}
			if m, err = m.WithoutRows(keep); err != nil {
				return nil, err
			}
			kept, keptStamps := make([]int64, len(keep)), make([]int64, len(keep))
			for j, g := range keep {
				kept[j], keptStamps[j] = ids[g], stamps[g]
			}
			ids, stamps = kept, keptStamps
			continue
		}
		run := i
		var batches [][][]float64
		total := 0
		for ; i < len(recs) && recs[i].Type != wal.RecordDelete; i++ {
			batches = append(batches, recs[i].Rows)
			total += len(recs[i].Rows)
		}
		if m, err = m.WithAppendedBatch(batches...); err != nil {
			return nil, err
		}
		ids = append(make([]int64, 0, len(ids)+total), ids...)
		stamps = append(make([]int64, 0, len(stamps)+total), stamps...)
		for _, rec := range recs[run:i] {
			stamp := rec.Stamp
			if n := len(stamps); n > 0 && stamps[n-1] > stamp {
				stamp = stamps[n-1]
			}
			for j := range rec.Rows {
				ids = append(ids, rec.FirstID+int64(j))
				stamps = append(stamps, stamp)
			}
			nextID = max(nextID, rec.FirstID+int64(len(rec.Rows)))
		}
	}
	return s.newView(d, m, epoch, ids, stamps, nextID), nil
}

// commitLocked makes nv, derived from v by recs, the serving epoch —
// durable before visible. With WAL persistence on it engages the log
// (the first mutation persists v as the base snapshot), journals recs
// as one batch frame carrying their stamp, commits it under the sync
// policy and mirrors the log counters, all before the swap; a failure
// leaves v serving and the dataset unchanged. It then offers the log
// to auto-compaction. Both live mutation paths commit through it. The
// caller holds d.mut.
func (s *Server) commitLocked(d *dataset, v, nv *view, recs []wal.Record) error {
	if err := d.aliveLocked(); err != nil {
		return err
	}
	if s.walActive() {
		if err := s.ensureWALLocked(d, v); err != nil {
			return fmt.Errorf("wal: %w", err)
		}
		if err := d.wal.AppendBatch(recs[0].Stamp, recs); err != nil {
			return err
		}
		if err := d.wal.Commit(); err != nil {
			return fmt.Errorf("wal: %w", err)
		}
		d.mirrorWAL()
	}
	d.cur.Store(nv)
	s.maybeCompact(d)
	return nil
}

// retire ends the entry's life in the registry: under mut it closes
// the entry's log and marks the entry retired, so no handle on
// <name>.wal outlives it. Eviction, a failed registration and
// Server.Close call it. Work that still holds the entry — a queued
// compaction, an append drain, a row delete, a retention sweep, a
// save — then fails in commitLocked or persistLocked with the
// ErrDatasetNotFound of an unknown dataset, and never touches the data
// directory the name's next entry owns.
func (d *dataset) retire() {
	d.mut.Lock()
	defer d.mut.Unlock()
	d.retired = true
	if d.wal != nil {
		_ = d.wal.Close()
		d.wal = nil
	}
}

// aliveLocked refuses work on a retired entry. The caller holds d.mut.
func (d *dataset) aliveLocked() error {
	if d.retired {
		return fmt.Errorf("%w: %q was evicted", ErrDatasetNotFound, d.name)
	}
	return nil
}

// mirrorWAL copies the log's size, frame count and fsync count into
// the entry's atomic /stats shadows. The caller holds d.mut.
func (d *dataset) mirrorWAL() {
	d.walBytes.Store(d.wal.Size())
	d.walRecords.Store(d.wal.Records())
	d.walSyncs.Store(d.wal.Syncs())
}

// handleCompact submits a compaction job: fold the dataset's WAL
// deltas into a fresh base snapshot and rotate the log. 202 + job id.
func (s *Server) handleCompact(w http.ResponseWriter, r *http.Request) {
	d, ok := s.resolveDataset(w, r.PathValue("name"))
	if !ok {
		return
	}
	if !s.walActive() {
		s.error(w, http.StatusBadRequest, "WAL persistence is disabled (start hosserve with -data-dir and -wal)")
		return
	}
	snap, err := s.jobs.Submit("compact", s.compactJob(d))
	if err != nil {
		s.refuse(w, d.name, overload.Bulk, err)
		return
	}
	resp := renderJob(snap)
	w.Header().Set("Location", "/jobs/"+snap.ID)
	s.writeJSON(w, http.StatusAccepted, &resp)
}

// ---- WAL machinery (caller holds d.mut unless noted) ----

// ensureWALLocked engages persistence on first mutation: the current
// (pre-mutation) state becomes the base snapshot and an empty log
// bound to it opens for deltas.
func (s *Server) ensureWALLocked(d *dataset, v *view) error {
	if d.wal != nil {
		return nil
	}
	if !validDatasetName(d.name) {
		return fmt.Errorf("name %q is not snapshot-safe", d.name)
	}
	_, _, err := s.persistLocked(d, v)
	return err
}

// persistLocked writes the view's state to <name>.snap and — when WAL
// persistence is on — rotates <name>.wal to an empty log bound to the
// new base. It is the one write path shared by first-mutation setup,
// explicit saves and compaction, so the snapshot+log pair can never
// disagree about which base the deltas extend. Once the base is
// replaced the old log is detached whether or not its successor opens:
// it is bound to the replaced base, so nothing appended to it would
// replay, and the next mutation must re-persist (ensureWALLocked) or
// fail instead of being acknowledged into it.
func (s *Server) persistLocked(d *dataset, v *view) (string, int64, error) {
	if err := d.aliveLocked(); err != nil {
		return "", 0, err
	}
	snap, err := snapshot.Capture(d.name, d.prov, v.miner)
	if err != nil {
		return "", 0, err
	}
	snap.NormStats = d.normStats
	path := filepath.Join(s.opts.DataDir, d.name+snapExt)
	if err := snapshot.SaveFile(path, snap); err != nil {
		return "", 0, err
	}
	if d.wal != nil {
		_ = d.wal.Close()
		d.wal = nil
	}
	st, err := os.Stat(path)
	if err != nil {
		return "", 0, err
	}
	if s.walActive() {
		crc, err := wal.FileCRC32(path)
		if err != nil {
			return "", 0, err
		}
		if d.wal, err = wal.Create(s.walPath(d.name), wal.Header{
			Dim:     v.miner.Dataset().Dim(),
			BaseCRC: crc,
			NextID:  v.nextID,
			BaseIDs: v.ids,
		}, s.opts.WALSync); err != nil {
			return "", 0, err
		}
		d.mirrorWAL()
	}
	return path, st.Size(), nil
}

// maybeCompact submits an auto-compaction job when the log has grown
// past WALCompactBytes. Best-effort: a full job queue just means the
// next mutation asks again.
func (s *Server) maybeCompact(d *dataset) {
	limit := s.opts.WALCompactBytes
	if d.wal == nil || limit <= 0 || d.walBytes.Load() < limit {
		return
	}
	if !d.compacting.CompareAndSwap(false, true) {
		return
	}
	if _, err := s.jobs.Submit("compact", s.compactJob(d)); err != nil {
		d.compacting.Store(false)
		s.debugf("server: auto-compaction of %s not submitted: %v", d.name, err)
	}
}

// compactJob folds the current view into a fresh base snapshot and
// rotates the WAL. The crash windows are covered by the BaseCRC
// binding: a new snapshot with the old log is detected stale on
// restart, and the data the old log carried is inside the new base.
func (s *Server) compactJob(d *dataset) func(ctx context.Context, report func(done, total int)) (any, error) {
	return func(ctx context.Context, report func(done, total int)) (any, error) {
		defer d.compacting.Store(false)
		d.mut.Lock()
		defer d.mut.Unlock()
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		report(0, 1)
		v := d.view()
		path, size, err := s.persistLocked(d, v)
		if err != nil {
			return nil, err
		}
		d.compactions.Add(1)
		report(1, 1)
		s.debugf("server: compacted dataset %s into %s (%d bytes, epoch %d)", d.name, path, size, v.epoch)
		return &saveDatasetResponse{Saved: d.name, File: path, Bytes: size}, nil
	}
}

// attachWALLocked replays <name>.wal onto a freshly restored entry —
// the restoring paths (open, AttachDefaultWAL). The entry must not be
// serving yet (its view is still the bare restored base). Returns the
// number of replayed records. Failure modes:
//   - no log, or a log bound to a different base (stale after a crash
//     mid-compaction): nothing to do, serve the base;
//   - torn tail: replay stops at the last valid record, the tail is
//     truncated, the dataset serves everything up to it — logged, not
//     fatal (satellite: crash-mid-append recovery);
//   - corrupt header: error; the caller serves the base and says so.
func (s *Server) attachWALLocked(d *dataset, snapPath string) (int, error) {
	if !s.walActive() {
		return 0, nil
	}
	wp := s.walPath(d.name)
	if _, err := os.Stat(wp); errors.Is(err, os.ErrNotExist) {
		return 0, nil
	}
	crc, err := wal.FileCRC32(snapPath)
	if err != nil {
		return 0, err
	}
	lg, rep, err := wal.Open(wp, s.opts.WALSync)
	if err != nil {
		return 0, err
	}
	v := d.view()
	h := rep.Header
	if h.BaseCRC != crc {
		_ = lg.Close()
		s.debugf("server: %s is bound to a different base snapshot (stale after compaction?), ignoring it", wp)
		return 0, fmt.Errorf("%w: %s was written against a different %s", wal.ErrBaseMismatch, wp, snapPath)
	}
	if h.Dim != v.miner.Dataset().Dim() || len(h.BaseIDs) != v.miner.Dataset().N() {
		_ = lg.Close()
		return 0, fmt.Errorf("%w: %s header shape (%d ids, dim %d) does not match the snapshot (%d rows, dim %d)",
			wal.ErrWAL, wp, len(h.BaseIDs), h.Dim, v.miner.Dataset().N(), v.miner.Dataset().Dim())
	}
	if rep.Torn {
		s.debugf("server: %s had a torn trailing record; truncated to the last valid record (%d replayed)", wp, len(rep.Records))
	}
	// Ingest stamps do not survive a restart for base rows (the snap
	// format does not carry them), so every base row re-stamps at
	// replay time; replayed appends keep their journaled batch stamp,
	// floored by nextView exactly as a live append is (legacy
	// single-record frames carry stamp 0 and floor the same way).
	// Conservative in retention terms: a row can only expire later
	// than its policy allows, never earlier.
	base := &view{miner: v.miner, ids: h.BaseIDs, stamps: make([]int64, len(h.BaseIDs)), nextID: h.NextID}
	now := time.Now().UnixNano()
	for j := range base.stamps {
		base.stamps[j] = now
	}
	// The epoch counts the replayed records.
	nv, err := s.nextView(d, base, int64(len(rep.Records)), rep.Records)
	if err != nil {
		_ = lg.Close()
		return 0, fmt.Errorf("%s: replay: %w", wp, err)
	}
	d.cur.Store(nv)
	d.wal = lg
	d.mirrorWAL()
	return len(rep.Records), nil
}

// AttachDefaultWAL replays the default dataset's delta log on top of
// the default.snap the process restored from — the attach step of
// open, for the entry New built. hosserve calls it only on the
// snapshot-restore boot path. After -gen/-data it must not be called:
// a lingering default.wal is bound to the default.snap still on disk,
// so its BaseCRC check would pass, and only a shape mismatch would
// stop its deltas landing on a base they were never written against.
// Returns the number of replayed records. Errors mean the base is
// serving without its deltas; the caller decides whether that is
// fatal.
func (s *Server) AttachDefaultWAL() (int, error) {
	d := s.def
	d.mut.Lock()
	defer d.mut.Unlock()
	return s.attachWALLocked(d, filepath.Join(s.opts.DataDir, d.name+snapExt))
}
