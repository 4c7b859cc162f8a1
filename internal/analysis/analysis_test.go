package analysis_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/load"
)

const testSrc = `package m

import (
	"fmt"
	"sync/atomic"
)

type view struct{ n int }
type other struct{ n int }

type D struct {
	cur   atomic.Pointer[view]
	curO  atomic.Pointer[other]
	plain *view
	count int
}

//hos:statslock mu
type S struct{ n int }

//hos:hotpath
func hot() {}

func helper() int { return 1 }

func f(d *D) *view {
	fmt.Println("x")
	helper()
	g := func() int {
		inner := func() int { return 2 }
		return inner()
	}
	_ = g()
	return d.cur.Load()
}
`

func loadTestPkg(t *testing.T) *load.Package {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte("module m\n\ngo 1.23\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "m.go"), []byte(testSrc), 0o644); err != nil {
		t.Fatal(err)
	}
	pkgs, err := load.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("got %d packages, want 1", len(pkgs))
	}
	return pkgs[0]
}

func findFunc(file *ast.File, name string) *ast.FuncDecl {
	for _, decl := range file.Decls {
		if fd, ok := decl.(*ast.FuncDecl); ok && fd.Name.Name == name {
			return fd
		}
	}
	return nil
}

func TestHasDirective(t *testing.T) {
	p := loadTestPkg(t)
	file := p.Files[0]
	if _, ok := analysis.HasDirective(findFunc(file, "hot").Doc, "hotpath"); !ok {
		t.Error("hotpath directive on hot() not found")
	}
	if _, ok := analysis.HasDirective(findFunc(file, "f").Doc, "hotpath"); ok {
		t.Error("f() has no directive but one was found")
	}
	var found bool
	for _, decl := range file.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.TYPE {
			continue
		}
		if arg, ok := analysis.HasDirective(gd.Doc, "statslock"); ok {
			if arg != "mu" {
				t.Errorf("statslock arg = %q, want mu", arg)
			}
			found = true
		}
	}
	if !found {
		t.Error("statslock directive on S not found")
	}
	if _, ok := analysis.HasDirective(nil, "hotpath"); ok {
		t.Error("nil doc group reported a directive")
	}
}

func structField(t *testing.T, pkg *types.Package, typeName, field string) types.Type {
	t.Helper()
	obj := pkg.Scope().Lookup(typeName)
	st := obj.Type().Underlying().(*types.Struct)
	for i := 0; i < st.NumFields(); i++ {
		if st.Field(i).Name() == field {
			return st.Field(i).Type()
		}
	}
	t.Fatalf("no field %s.%s", typeName, field)
	return nil
}

func TestIsAtomicPointerTo(t *testing.T) {
	p := loadTestPkg(t)
	if !analysis.IsAtomicPointerTo(structField(t, p.Pkg, "D", "cur"), "view") {
		t.Error("cur should be atomic.Pointer[view]")
	}
	if analysis.IsAtomicPointerTo(structField(t, p.Pkg, "D", "curO"), "view") {
		t.Error("curO element is other, not view")
	}
	if analysis.IsAtomicPointerTo(structField(t, p.Pkg, "D", "plain"), "view") {
		t.Error("plain *view is not an atomic pointer")
	}
	if analysis.IsAtomicPointerTo(structField(t, p.Pkg, "D", "count"), "view") {
		t.Error("int is not an atomic pointer")
	}
}

func TestNamedType(t *testing.T) {
	p := loadTestPkg(t)
	if n := analysis.NamedType(structField(t, p.Pkg, "D", "plain")); n == nil || n.Obj().Name() != "view" {
		t.Errorf("NamedType(*view) = %v, want view", n)
	}
	if n := analysis.NamedType(structField(t, p.Pkg, "D", "count")); n != nil {
		t.Errorf("NamedType(int) = %v, want nil", n)
	}
}

func calls(file *ast.File) []*ast.CallExpr {
	var out []*ast.CallExpr
	ast.Inspect(file, func(n ast.Node) bool {
		if c, ok := n.(*ast.CallExpr); ok {
			out = append(out, c)
		}
		return true
	})
	return out
}

func TestCallHelpers(t *testing.T) {
	p := loadTestPkg(t)
	var fmtCall, helperCall *ast.CallExpr
	for _, c := range calls(p.Files[0]) {
		if pkg, name := analysis.PkgFunc(p.Info, c); pkg == "fmt" && name == "Println" {
			fmtCall = c
		}
		if id, ok := c.Fun.(*ast.Ident); ok && id.Name == "helper" {
			helperCall = c
		}
	}
	if fmtCall == nil {
		t.Fatal("fmt.Println call not identified")
	}
	if pkg, name := analysis.PkgFunc(p.Info, fmtCall); pkg != "fmt" || name != "Println" {
		t.Errorf("PkgFunc = (%q, %q), want (fmt, Println)", pkg, name)
	}
	if helperCall == nil {
		t.Fatal("helper call not found")
	}
	if pkg, _ := analysis.PkgFunc(p.Info, helperCall); pkg != "" {
		t.Errorf("PkgFunc on plain ident call = %q, want empty", pkg)
	}
	if f := analysis.CalleeInPkg(p.Info, p.Pkg, helperCall); f == nil || f.Name() != "helper" {
		t.Errorf("CalleeInPkg(helper) = %v", f)
	}
	if f := analysis.CalleeInPkg(p.Info, p.Pkg, fmtCall); f != nil {
		t.Errorf("CalleeInPkg(fmt.Println) = %v, want nil (other package)", f)
	}
}

func TestScopesAndInspectShallow(t *testing.T) {
	p := loadTestPkg(t)
	var names []string
	for _, sc := range analysis.Scopes(p.Files[0]) {
		names = append(names, sc.Name())
	}
	joined := strings.Join(names, ",")
	// f contributes its own scope plus two nested literal scopes (the
	// inner literal must be yielded even though it nests in another).
	if !strings.Contains(joined, "f") || strings.Count(joined, "func literal in f") != 2 {
		t.Fatalf("scopes = %v", names)
	}
	// Shallow inspection of f must not see the literals' bodies: the
	// fmt call and the Load are visible, the 'return 2' inside the
	// inner literal is not.
	var sawLoad, sawInnerReturn bool
	for _, sc := range analysis.Scopes(p.Files[0]) {
		if sc.Name() != "f" || sc.Lit != nil {
			continue
		}
		analysis.InspectShallow(sc.Body, func(n ast.Node) bool {
			if c, ok := n.(*ast.CallExpr); ok {
				if sel, ok := c.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Load" {
					sawLoad = true
				}
			}
			if r, ok := n.(*ast.ReturnStmt); ok && len(r.Results) == 1 {
				if lit, ok := r.Results[0].(*ast.BasicLit); ok && lit.Value == "2" {
					sawInnerReturn = true
				}
			}
			return true
		})
	}
	if !sawLoad {
		t.Error("shallow walk missed the Load call in f's own body")
	}
	if sawInnerReturn {
		t.Error("shallow walk descended into a nested function literal")
	}
}

func TestRunSortAndString(t *testing.T) {
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "z.go", "package z\n\nfunc a() {}\n\nfunc b() {}\n", parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	backwards := &analysis.Analyzer{
		Name: "backwards",
		Doc:  "reports declarations in reverse order",
		Run: func(pass *analysis.Pass) {
			for i := len(pass.Files[0].Decls) - 1; i >= 0; i-- {
				pass.Reportf(pass.Files[0].Decls[i].Pos(), "decl %d", i)
			}
		},
	}
	diags := analysis.Run([]*analysis.Analyzer{backwards}, fset, []*ast.File{file}, nil, nil)
	if len(diags) != 2 {
		t.Fatalf("got %d diagnostics, want 2", len(diags))
	}
	if diags[0].Pos.Line > diags[1].Pos.Line {
		t.Errorf("diagnostics not sorted by position: %v", diags)
	}
	want := "z.go:3:1: backwards: decl 0"
	if got := diags[0].String(); got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

func TestSortOrdersAcrossFilesAndAnalyzers(t *testing.T) {
	mk := func(file string, line, col int, an string) analysis.Diagnostic {
		return analysis.Diagnostic{Pos: token.Position{Filename: file, Line: line, Column: col}, Analyzer: an}
	}
	diags := []analysis.Diagnostic{
		mk("b.go", 1, 1, "x"),
		mk("a.go", 2, 2, "z"),
		mk("a.go", 2, 2, "a"),
		mk("a.go", 2, 1, "x"),
		mk("a.go", 1, 9, "x"),
	}
	analysis.Sort(diags)
	got := []string{}
	for _, d := range diags {
		got = append(got, d.String())
	}
	want := []string{
		"a.go:1:9: x: ",
		"a.go:2:1: x: ",
		"a.go:2:2: a: ",
		"a.go:2:2: z: ",
		"b.go:1:1: x: ",
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sort order mismatch at %d: got %v", i, got)
		}
	}
}
