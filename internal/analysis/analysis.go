// Package analysis is the repo-local static-analysis framework behind
// tools/hosvet. It mirrors the shape of golang.org/x/tools/go/analysis
// — an Analyzer owns a Run function over a type-checked Pass and
// reports positioned Diagnostics — but is built on the standard
// library alone (go/ast + go/types + export data from `go list
// -export`), because this module deliberately has zero external
// dependencies.
//
// The analyzers themselves live in subpackages (viewpin, durability,
// statslock, hotpath, determinism); each encodes one invariant of this
// codebase that the compiler cannot see and that was previously
// guarded only by tests that catch violations after the fact. Generic
// checks such as lostcancel stay with go vet. tools/hosvet bundles the
// analyzers into one standalone binary gated in CI.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one named invariant check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics ("viewpin").
	Name string
	// Doc is the one-paragraph contract the analyzer enforces.
	Doc string
	// Run inspects the pass and reports violations via Pass.Reportf.
	Run func(*Pass)
}

// Pass is one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files holds the package's non-test syntax trees, comments
	// included (directives like //hos:hotpath live there).
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info

	diags *[]Diagnostic
}

// Diagnostic is one positioned finding.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String renders the diagnostic the way go vet does:
// path:line:col: analyzer: message.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// NewPass binds an analyzer to a package and a shared diagnostic sink.
func NewPass(a *Analyzer, fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, sink *[]Diagnostic) *Pass {
	return &Pass{Analyzer: a, Fset: fset, Files: files, Pkg: pkg, Info: info, diags: sink}
}

// Reportf records one diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Run executes every analyzer over one package and returns the
// findings sorted by position.
func Run(analyzers []*Analyzer, fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info) []Diagnostic {
	var diags []Diagnostic
	for _, a := range analyzers {
		a.Run(NewPass(a, fset, files, pkg, info, &diags))
	}
	Sort(diags)
	return diags
}

// Sort orders diagnostics by file, line, column, analyzer.
func Sort(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
}

// ---- shared helpers used by several analyzers ----

// HasDirective reports whether the comment group carries the given
// //hos: directive (e.g. name "hotpath" matches "//hos:hotpath") and
// returns any argument text following it.
func HasDirective(doc *ast.CommentGroup, name string) (arg string, ok bool) {
	if doc == nil {
		return "", false
	}
	prefix := "//hos:" + name
	for _, c := range doc.List {
		if c.Text == prefix {
			return "", true
		}
		if rest, found := strings.CutPrefix(c.Text, prefix+" "); found {
			return strings.TrimSpace(rest), true
		}
	}
	return "", false
}

// IsAtomicPointerTo reports whether t (after pointer indirection) is
// sync/atomic.Pointer[E] with an element type named elem.
func IsAtomicPointerTo(t types.Type, elem string) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Name() != "Pointer" || obj.Pkg() == nil || obj.Pkg().Path() != "sync/atomic" {
		return false
	}
	args := named.TypeArgs()
	if args == nil || args.Len() != 1 {
		return false
	}
	en, ok := args.At(0).(*types.Named)
	return ok && en.Obj().Name() == elem
}

// NamedType returns the named type behind t, unwrapping pointers and
// aliases, or nil.
func NamedType(t types.Type) *types.Named {
	t = types.Unalias(t)
	if ptr, ok := t.(*types.Pointer); ok {
		t = types.Unalias(ptr.Elem())
	}
	named, _ := t.(*types.Named)
	return named
}

// PkgFunc returns (pkgpath, funcname) when call's function is a
// selector on an imported package, else ("", "").
func PkgFunc(info *types.Info, call *ast.CallExpr) (string, string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", ""
	}
	pn, ok := info.Uses[id].(*types.PkgName)
	if !ok {
		return "", ""
	}
	return pn.Imported().Path(), sel.Sel.Name
}

// CalleeInPkg returns the *types.Func that call invokes when it
// resolves to a function or method declared in pkg, else nil. Used by
// analyzers that follow same-package helper calls.
func CalleeInPkg(info *types.Info, pkg *types.Package, call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		obj = info.Uses[fun]
	case *ast.SelectorExpr:
		obj = info.Uses[fun.Sel]
	}
	f, ok := obj.(*types.Func)
	if !ok || f.Pkg() != pkg {
		return nil
	}
	return f
}

// FuncScopes yields every function body in the file as an independent
// scope: each FuncDecl, and each FuncLit not nested inside another
// FuncLit of the same declaration is yielded with its own body. A
// function literal is a separate execution context (a job closure, a
// goroutine body), so invariants like "one view load per request path"
// apply to it independently of its enclosing declaration.
type FuncScope struct {
	// Decl is the enclosing declaration (for naming); nil only for
	// file-scope var initializers (not yielded).
	Decl *ast.FuncDecl
	// Lit is non-nil when the scope is a function literal.
	Lit *ast.FuncLit
	// Body is the scope's statement block.
	Body *ast.BlockStmt
}

// Name returns a human-readable scope name for diagnostics.
func (s FuncScope) Name() string {
	if s.Decl == nil {
		return "func literal"
	}
	if s.Lit != nil {
		return "func literal in " + s.Decl.Name.Name
	}
	return s.Decl.Name.Name
}

// Scopes returns every function scope in the file: each declared
// function (with literals excluded from its own scope) and each
// top-level-within-a-declaration function literal.
func Scopes(file *ast.File) []FuncScope {
	var out []FuncScope
	for _, decl := range file.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		out = append(out, FuncScope{Decl: fd, Body: fd.Body})
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if lit, ok := n.(*ast.FuncLit); ok {
				// Each literal gets its own scope; InspectShallow in
				// analyzers stops at literal boundaries, so every body
				// is analyzed exactly once.
				out = append(out, FuncScope{Decl: fd, Lit: lit, Body: lit.Body})
			}
			return true
		})
	}
	return out
}

// InspectShallow walks the scope's body without descending into
// nested function literals — those are separate Scopes entries.
func InspectShallow(body *ast.BlockStmt, fn func(ast.Node) bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if n == nil {
			return false
		}
		return fn(n)
	})
}
