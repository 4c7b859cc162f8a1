package main

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

func inDir(t *testing.T, dir string) {
	t.Helper()
	old, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = os.Chdir(old) })
}

func TestStandaloneFlagsViolation(t *testing.T) {
	inDir(t, "testdata/vetmod")
	var stderr bytes.Buffer
	if code := run(nil, &stderr); code != 1 {
		t.Fatalf("exit = %d, want 1; stderr:\n%s", code, stderr.String())
	}
	out := stderr.String()
	if !strings.Contains(out, "vetmod.go:") || !strings.Contains(out, "viewpin:") {
		t.Fatalf("diagnostic missing position or analyzer name:\n%s", out)
	}
}

func TestStandaloneCleanTree(t *testing.T) {
	inDir(t, "testdata/cleanmod")
	var stderr bytes.Buffer
	if code := run([]string{"./..."}, &stderr); code != 0 {
		t.Fatalf("exit = %d, want 0; stderr:\n%s", code, stderr.String())
	}
}

func TestStandaloneLoadError(t *testing.T) {
	inDir(t, t.TempDir())
	var stderr bytes.Buffer
	if code := run([]string{"./..."}, &stderr); code != 2 {
		t.Fatalf("exit = %d, want 2 on load failure", code)
	}
}
