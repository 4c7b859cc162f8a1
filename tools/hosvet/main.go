// Command hosvet is the repo's static-analysis gate. It bundles the
// analyzers under internal/analysis — viewpin, durability, statslock,
// hotpath, determinism, lostcancel — into one vet-style binary that
// enforces the invariants the compiler cannot see: one pinned epoch
// view per request path, WAL-commit-before-publish, single-lock stats
// commits, allocation-free hot paths, and a deterministic engine
// core.
//
// Two modes:
//
//	hosvet ./...                      # standalone, like staticcheck
//	go vet -vettool=$(which hosvet) ./...   # unit-checker protocol
//
// Standalone mode loads the packages matched by the patterns and
// exits 1 with positioned diagnostics if any invariant is violated,
// 2 on load errors. The vettool mode implements the cmd/go unit
// protocol: a -V=full version handshake, then one JSON config file
// per compile unit.
package main

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"runtime"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/determinism"
	"repro/internal/analysis/durability"
	"repro/internal/analysis/hotpath"
	"repro/internal/analysis/load"
	"repro/internal/analysis/lostcancel"
	"repro/internal/analysis/statslock"
	"repro/internal/analysis/viewpin"
)

// version participates in go vet's action caching: bump it whenever
// an analyzer's behavior changes, or stale results may be replayed.
const version = "hosvet version 5"

func analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		viewpin.Analyzer,
		durability.Analyzer,
		statslock.Analyzer,
		hotpath.Analyzer,
		determinism.Analyzer,
		lostcancel.Analyzer,
	}
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	for _, a := range args {
		if a == "-V=full" || a == "-V" || a == "--V=full" {
			fmt.Fprintln(stdout, version)
			return 0
		}
		if a == "-flags" || a == "--flags" {
			// cmd/go asks which flags the tool supports; hosvet has
			// none beyond the protocol itself.
			fmt.Fprintln(stdout, "[]")
			return 0
		}
	}
	if len(args) == 1 && strings.HasSuffix(args[0], ".cfg") {
		return runUnit(args[0], stderr)
	}
	return runStandalone(args, stderr)
}

func runStandalone(patterns []string, stderr io.Writer) int {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := load.Load(".", patterns...)
	if err != nil {
		fmt.Fprintf(stderr, "hosvet: %v\n", err)
		return 2
	}
	bad := false
	for _, p := range pkgs {
		for _, d := range analysis.Run(analyzers(), p.Fset, p.Files, p.Pkg, p.Info) {
			fmt.Fprintln(stderr, d)
			bad = true
		}
	}
	if bad {
		return 1
	}
	return 0
}

// vetConfig is the JSON compile-unit description cmd/go hands a
// -vettool (the x/tools unitchecker wire format).
type vetConfig struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoFiles                   []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

func runUnit(cfgPath string, stderr io.Writer) int {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		fmt.Fprintf(stderr, "hosvet: %v\n", err)
		return 2
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintf(stderr, "hosvet: parsing %s: %v\n", cfgPath, err)
		return 2
	}
	// hosvet exports no facts, but cmd/go requires the vetx output to
	// exist for its action cache.
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, []byte{}, 0o666); err != nil {
			fmt.Fprintf(stderr, "hosvet: %v\n", err)
			return 2
		}
	}
	if cfg.VetxOnly {
		return 0
	}
	diags, err := checkUnit(&cfg)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return 0
		}
		fmt.Fprintf(stderr, "hosvet: %v\n", err)
		return 2
	}
	if len(diags) == 0 {
		return 0
	}
	for _, d := range diags {
		fmt.Fprintln(stderr, d)
	}
	return 1
}

func checkUnit(cfg *vetConfig) ([]analysis.Diagnostic, error) {
	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		// The invariants target production code; test variants of a
		// package legitimately break several of them.
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, nil
	}
	lookup := func(path string) (io.ReadCloser, error) {
		if mapped, ok := cfg.ImportMap[path]; ok {
			path = mapped
		}
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	tc := types.Config{
		Importer: importer.ForCompiler(fset, "gc", lookup),
		Sizes:    types.SizesFor("gc", runtime.GOARCH),
	}
	pkg, err := tc.Check(cfg.ImportPath, fset, files, info)
	if err != nil {
		return nil, err
	}
	return analysis.Run(analyzers(), fset, files, pkg, info), nil
}
