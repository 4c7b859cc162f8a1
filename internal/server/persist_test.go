package server

import (
	"net/http"
	"os"
	"path/filepath"
	"testing"
)

// TestFailedRotationDetachesWAL: a compaction that replaces the base
// snapshot but cannot create the successor log must not leave the old
// log attached. The old log is bound to the replaced base, so a
// mutation acknowledged into it would be lost on restart. Here a
// directory squats on default.wal, so the rotation's rename fails:
// mutations then re-persist or fail, and a restart serves every
// acknowledged row.
func TestFailedRotationDetachesWAL(t *testing.T) {
	dir := t.TempDir()
	s1 := newTestServer(t, Options{DataDir: dir, WAL: true, CacheSize: -1})
	h1 := s1.Handler()
	base := s1.Stats().Datasets[0].N
	acked := 0
	appendRows := func(seed int64) int {
		var resp appendResponse
		rec := do(t, h1, "POST", "/datasets/default/append", appendJSON(5, 5, seed), &resp)
		if rec.Code == http.StatusOK {
			acked += resp.Appended
		}
		return rec.Code
	}
	if code := appendRows(70); code != http.StatusOK {
		t.Fatalf("first append: %d", code)
	}

	wp := filepath.Join(dir, "default.wal")
	if err := os.Remove(wp); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(wp, "squatter"), 0o755); err != nil {
		t.Fatal(err)
	}
	if rec := do(t, h1, "POST", "/datasets/default/compact", "", nil); rec.Code != http.StatusAccepted {
		t.Fatalf("compact: %d (%s)", rec.Code, rec.Body.String())
	}
	waitJobsSettled(t, s1)
	live := s1.Stats().Datasets[0].Live
	if live.Compactions != 0 {
		t.Fatalf("compaction succeeded %d times with default.wal unwritable", live.Compactions)
	}
	// No log is attached any more, so /stats must not report one.
	if live.WALBytes != 0 || live.WALRecords != 0 || live.WALSyncs != 0 {
		t.Fatalf("detached log still reported: wal_bytes=%d wal_records=%d wal_syncs=%d",
			live.WALBytes, live.WALRecords, live.WALSyncs)
	}
	// The log cannot be rotated, so this append may not be acknowledged
	// into the detached one.
	if code := appendRows(71); code != http.StatusInternalServerError {
		t.Fatalf("append with no usable log: %d, want 500", code)
	}

	// Once the path is free the next mutation re-persists and journals.
	if err := os.RemoveAll(wp); err != nil {
		t.Fatal(err)
	}
	if code := appendRows(72); code != http.StatusOK {
		t.Fatalf("append after the path was freed: %d", code)
	}
	s2, _ := restartFromSnapshot(t, dir, Options{WAL: true, CacheSize: -1})
	if got, want := s2.Stats().Datasets[0].N, base+acked; got != want {
		t.Fatalf("restart serves %d rows, want %d (%d base + %d acknowledged)", got, want, base, acked)
	}
}
