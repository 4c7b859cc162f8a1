// Command hosvet is the repo's static-analysis gate. It bundles the
// analyzers under internal/analysis — viewpin, durability, statslock,
// hotpath, determinism — into one vet-style binary that enforces the
// invariants the compiler cannot see: one pinned epoch view per
// request path, WAL-commit-before-publish, single-lock stats commits,
// allocation-free hot paths, and a deterministic engine core.
//
// Usage:
//
//	hosvet [packages]    # default ./..., like staticcheck
//
// hosvet loads the packages matched by the patterns and exits 1 with
// positioned diagnostics if any invariant is violated, 2 on load
// errors.
package main

import (
	"fmt"
	"io"
	"os"

	"repro/internal/analysis"
	"repro/internal/analysis/determinism"
	"repro/internal/analysis/durability"
	"repro/internal/analysis/hotpath"
	"repro/internal/analysis/load"
	"repro/internal/analysis/statslock"
	"repro/internal/analysis/viewpin"
)

func analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		viewpin.Analyzer,
		durability.Analyzer,
		statslock.Analyzer,
		hotpath.Analyzer,
		determinism.Analyzer,
	}
}

func main() {
	os.Exit(run(os.Args[1:], os.Stderr))
}

func run(patterns []string, stderr io.Writer) int {
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
