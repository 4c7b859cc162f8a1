package server

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/snapshot"
)

// This file is the persistence face of the registry: datasets and
// their preprocessing artifacts (normalized data, threshold, priors,
// serialized X-tree index) move between the registry and the -data-dir
// snapshot directory, so a restart serves yesterday's datasets without
// regenerating or re-indexing anything:
//
//	POST /datasets/{name}/save   write <data-dir>/<name>.snap
//	POST /datasets/load          {"name":..,"file":"x.snap"} register from disk
//	WarmStart()                  register every *.snap at boot, as jobs
//
// Warm starting runs on the async job pool (kind "warmstart"), so a
// directory of large snapshots loads in the background with observable
// progress under GET /jobs while the listener is already accepting
// traffic for the default dataset — readiness is not held hostage to
// restoring. A load and a warm start open their snapshot through
// the same routine (open), so a full snapshot replays the entry's own
// <name>.wal either way.

// snapExt is the snapshot file suffix under DataDir.
const snapExt = ".snap"

type saveDatasetResponse struct {
	Saved string `json:"saved"`
	File  string `json:"file"`
	Bytes int64  `json:"bytes"`
}

// handleSaveDataset persists one registry entry to the data dir. For
// an entry with a live WAL this is a compaction: the snapshot absorbs
// the deltas and the log rotates to an empty one bound to the new
// base — saving the snapshot alone would orphan every later delta,
// since the old log's BaseCRC binding would fail on restart.
func (s *Server) handleSaveDataset(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	d, ok := s.resolveDataset(w, name)
	if !ok {
		return
	}
	if s.opts.DataDir == "" {
		s.error(w, http.StatusBadRequest, "snapshot persistence is disabled (start hosserve with -data-dir)")
		return
	}
	if !validDatasetName(d.name) {
		// Only reachable for a default entry with an exotic name; every
		// loaded entry was validated at admission.
		s.error(w, http.StatusBadRequest, fmt.Sprintf("name %q is not snapshot-safe", d.name))
		return
	}
	d.mut.Lock()
	path, size, err := s.persistLocked(d, d.view())
	d.mut.Unlock()
	if err != nil {
		// 404 when the entry was evicted under the request, else 500.
		s.registryError(w, err)
		return
	}
	s.debugf("server: saved dataset %s to %s (%d bytes)", d.name, path, size)
	s.writeJSON(w, http.StatusOK, &saveDatasetResponse{Saved: d.name, File: path, Bytes: size})
}

// snapshotPath resolves a client-supplied snapshot file name inside
// DataDir. Only bare names are accepted: path separators or dot-dot
// would turn a JSON field into a filesystem walk.
func (s *Server) snapshotPath(file string) (string, error) {
	if s.opts.DataDir == "" {
		return "", fmt.Errorf("file loads are disabled (start hosserve with -data-dir)")
	}
	if file == "" || file != filepath.Base(file) || strings.HasPrefix(file, ".") {
		return "", fmt.Errorf("\"file\" must be a bare file name inside the data directory")
	}
	return filepath.Join(s.opts.DataDir, file), nil
}

// open is the one way a snapshot becomes a registry entry: POST
// /datasets/load, generated or from a file, and warm start all call
// it. snap.Miner restores a full snapshot, refusing every miner
// parameter set names, or mines a dataset-only one under cfg. While
// the entry is still invisible, a full snapshot's <name>.wal is
// offered for replay. The log attaches only when it is bound to the
// bytes at path (attachWALLocked), so a load under another name, or a
// log written against another base, serves the base alone. A log that
// does not attach is logged, not fatal: the base serves without its
// deltas. The caller registers the entry, and retires it if that
// fails.
func (s *Server) open(name, path string, snap *snapshot.Snapshot, cfg core.Config, set []string) (*dataset, error) {
	m, err := snap.Miner(cfg, set)
	if err != nil {
		return nil, err
	}
	d := s.newDatasetEntry(name, m, snap.NormStats, snap.Provenance)
	if !snap.HasState() {
		return d, nil
	}
	d.mut.Lock()
	replayed, err := s.attachWALLocked(d, path)
	d.mut.Unlock()
	if err != nil {
		s.debugf("server: opening %s from %s: WAL not attached: %v", name, path, err)
	} else if replayed > 0 {
		s.debugf("server: opening %s from %s: replayed %d WAL records", name, path, replayed)
	}
	return d, nil
}

// WarmStart registers every snapshot in DataDir as a background job on
// the async pool and returns the number of jobs submitted. Snapshots
// whose name is already registered — the default dataset the process
// booted with, typically — are skipped silently; every other failure
// (corrupt file, config mismatch, registry full) surfaces as a failed
// job under GET /jobs, where an operator can read exactly which file
// did not come back. Call it after New and before serving traffic;
// the default dataset answers requests while restores run.
func (s *Server) WarmStart() (int, error) {
	if s.opts.DataDir == "" {
		return 0, nil
	}
	entries, err := os.ReadDir(s.opts.DataDir)
	if err != nil {
		return 0, err
	}
	var files []string
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), snapExt) || strings.HasPrefix(e.Name(), ".") {
			continue
		}
		files = append(files, e.Name())
	}
	sort.Strings(files)
	submitted := 0
	for _, file := range files {
		// The file stem IS the registry name on this path — skip-check
		// and registration use the same key, so a renamed file serves
		// under its new stem instead of oscillating between "already
		// registered" and a permanently failing job. Names already
		// serving (the default dataset's own snapshot on every restart)
		// are skipped without burning a failed job on them.
		stem := strings.TrimSuffix(file, snapExt)
		if _, ok := s.reg.resolve(stem); ok {
			s.debugf("server: warm start skipping %s (%q already registered)", file, stem)
			continue
		}
		path := filepath.Join(s.opts.DataDir, file)
		if _, err := s.jobs.Submit("warmstart", s.warmStartJob(path, stem)); err != nil {
			// Queue full or draining: report how far we got — the
			// operator can raise -job-queue or load the rest by hand.
			return submitted, fmt.Errorf("warm start stalled at %s: %w", file, err)
		}
		s.debugf("server: warm start submitted %s", file)
		submitted++
	}
	return submitted, nil
}

// warmStartJob is one background load: read, open, register under
// the file's stem, with coarse progress after each phase.
func (s *Server) warmStartJob(path, stem string) func(ctx context.Context, report func(done, total int)) (any, error) {
	return func(ctx context.Context, report func(done, total int)) (any, error) {
		const steps = 3
		start := time.Now()
		if !validDatasetName(stem) || stem == DefaultDatasetName {
			return nil, fmt.Errorf("%s: file stem %q is not a registrable dataset name", path, stem)
		}
		snap, err := snapshot.LoadFile(path)
		if err != nil {
			return nil, err
		}
		report(1, steps)
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if !snap.HasState() {
			return nil, fmt.Errorf("%s: dataset-only snapshot; load it with POST /datasets/load {\"file\": ...} and miner parameters", path)
		}
		if snap.Name != stem {
			// Registration keys on the stem (see WarmStart); note the
			// drift so operators can re-save under a consistent name.
			s.debugf("server: warm start %s: stored name %q differs from file stem, registering as %q", path, snap.Name, stem)
		}
		d, err := s.open(stem, path, snap, core.Config{}, nil)
		if err != nil {
			return nil, err
		}
		report(2, steps)
		if err = ctx.Err(); err == nil {
			err = s.reg.add(d)
		}
		if err != nil {
			d.retire()
			return nil, err
		}
		report(3, steps)
		s.debugf("server: warm start registered %q from %s in %s",
			stem, path, time.Since(start).Round(time.Millisecond))
		info := d.info()
		return &info, nil
	}
}
