package load_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analysis/load"
)

func writeTree(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	for name, src := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func TestLoadMultiPackageModule(t *testing.T) {
	dir := writeTree(t, map[string]string{
		"go.mod": "module demo\n\ngo 1.23\n",
		"root.go": `package demo

import (
	"fmt"

	"demo/sub"
)

func Hello() string { return fmt.Sprintf("%d", sub.Two()) }
`,
		"sub/sub.go": `package sub

func Two() int { return 2 }
`,
		"root_test.go": `package demo

import "testing"

func TestHello(t *testing.T) { _ = Hello() }
`,
		// A package of test files alone has nothing to analyze.
		"onlytests/only_test.go": "package onlytests\n",
	})

	pkgs, err := load.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 2 {
		t.Fatalf("got %d packages, want 2 (root + sub; onlytests has no non-test file)", len(pkgs))
	}
	byPath := map[string]*load.Package{}
	for _, p := range pkgs {
		byPath[p.Path] = p
	}
	root := byPath["demo"]
	if root == nil {
		t.Fatalf("demo package missing: %v", byPath)
	}
	if len(root.Files) != 1 {
		t.Errorf("test files must be excluded: got %d files", len(root.Files))
	}
	if root.Pkg == nil || root.Pkg.Name() != "demo" {
		t.Errorf("typed package missing: %v", root.Pkg)
	}
	// The type info must be populated through export-data imports:
	// Hello's fmt.Sprintf call resolves to the fmt package.
	if root.Info == nil || len(root.Info.Uses) == 0 {
		t.Error("types.Info not populated")
	}
	if byPath["demo/sub"] == nil {
		t.Error("demo/sub not loaded as a target")
	}
}

func TestLoadExplicitPattern(t *testing.T) {
	dir := writeTree(t, map[string]string{
		"go.mod":     "module demo\n\ngo 1.23\n",
		"root.go":    "package demo\n\nfunc A() {}\n",
		"sub/sub.go": "package sub\n\nfunc B() {}\n",
	})
	pkgs, err := load.Load(dir, "./sub")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 || pkgs[0].Path != "demo/sub" {
		t.Fatalf("pattern ./sub loaded %v", pkgs)
	}
}

func TestLoadErrorNoModule(t *testing.T) {
	_, err := load.Load(t.TempDir())
	if err == nil {
		t.Fatal("loading an empty directory should fail")
	}
	if !strings.Contains(err.Error(), "go list") {
		t.Errorf("error should surface go list output, got: %v", err)
	}
}

func TestLoadErrorBrokenSource(t *testing.T) {
	for name, bad := range map[string]string{
		"type error":   "package demo\n\nfunc Broken() { return 3 }\n",
		"syntax error": "package demo\n\nfunc {\n",
	} {
		dir := writeTree(t, map[string]string{
			"go.mod":  "module demo\n\ngo 1.23\n",
			"bad.go":  bad,
			"good.go": "package demo\n\nfunc Fine() {}\n",
		})
		if _, err := load.Load(dir); err == nil {
			t.Errorf("%s: package should fail to load", name)
		}
	}
}
