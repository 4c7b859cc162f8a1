package wal

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestCreateBarePath: a log path with no directory part (what
// filepath.Join gives for a data directory of ".") is created in the
// working directory. The temp file lives beside the log, never in
// $TMPDIR — here a missing directory, so any use of it fails — and
// nothing but the log is left behind.
func TestCreateBarePath(t *testing.T) {
	dir := t.TempDir()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = os.Chdir(wd) })
	t.Setenv("TMPDIR", filepath.Join(dir, "missing"))

	l, err := Create("x.wal", testHeader(), SyncPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "x.wal" {
		t.Fatalf("directory holds %v, want just x.wal", entries)
	}
	rep, err := replayFile(filepath.Join(dir, "x.wal"))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep.Header, testHeader()) {
		t.Fatalf("header %+v, want %+v", rep.Header, testHeader())
	}
}
