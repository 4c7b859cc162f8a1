// Package hotpath keeps the benchmarked query paths allocation-free.
// Functions annotated with a
//
//	//hos:hotpath
//
// doc directive must not contain constructs that allocate in steady
// state: make/new, slice and map literals, &struct{} literals,
// fmt calls, goroutine launches, appends to fresh slices, escaping
// function literals, explicit conversions to interface types, and
// non-constant string concatenation.
//
// Two guard shapes are exempt, because the zero-alloc contract is
// steady-state, not first-call: a warm-up guard (an if whose
// condition nil-checks or cap/len-compares, under which scratch
// buffers are grown once) and a cold guard (an if body that ends in
// return or panic — an early-exit error path never taken in the
// benchmark loop).
//
// A meta-check defends the annotation itself: methods named after the
// benchmarked zero-alloc entry points (QueryWith, QueryBatch, KNN,
// AtLeast) must carry the directive, so the contract cannot silently
// rot when files are refactored.
package hotpath

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis"
)

const doc = "hotpath: //hos:hotpath functions must not contain allocating constructs"

// Analyzer is the hotpath pass.
var Analyzer = &analysis.Analyzer{
	Name: "hotpath",
	Doc:  doc,
	Run:  run,
}

// hotRoots are the method names of the benchmarked zero-alloc entry
// points; a method with one of these names and no annotation is a
// contract drift.
var hotRoots = map[string]bool{
	"QueryWith":  true,
	"QueryBatch": true,
	"KNN":        true,
	"AtLeast":    true,
}

func run(pass *analysis.Pass) {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if _, annotated := analysis.HasDirective(fd.Doc, "hotpath"); !annotated {
				if hotRoots[fd.Name.Name] && fd.Recv != nil {
					pass.Reportf(fd.Name.Pos(),
						"benchmarked zero-alloc entry point %s is missing the //hos:hotpath annotation",
						fd.Name.Name)
				}
				continue
			}
			checkFunc(pass, fd)
		}
	}
}

type span struct{ lo, hi token.Pos }

func checkFunc(pass *analysis.Pass, fd *ast.FuncDecl) {
	exempt := exemptSpans(pass, fd.Body)
	inExempt := func(p token.Pos) bool {
		for _, s := range exempt {
			if s.lo <= p && p < s.hi {
				return true
			}
		}
		return false
	}
	report := func(pos token.Pos, format string, args ...any) {
		if !inExempt(pos) {
			args = append(args, fd.Name.Name)
			pass.Reportf(pos, format+" in //hos:hotpath function %s", args...)
		}
	}

	parents := parentMap(fd.Body)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			report(n.Pos(), "starts a goroutine")
		case *ast.CallExpr:
			checkCall(pass, n, report)
		case *ast.CompositeLit:
			t := pass.Info.TypeOf(n)
			switch types.Unalias(t).Underlying().(type) {
			case *types.Slice:
				report(n.Pos(), "slice literal allocates")
				return false
			case *types.Map:
				report(n.Pos(), "map literal allocates")
				return false
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := n.X.(*ast.CompositeLit); ok {
					report(n.Pos(), "address of composite literal allocates")
					return false
				}
			}
		case *ast.FuncLit:
			if escapes(parents, n) {
				report(n.Pos(), "function literal escapes (closure allocates)")
			}
		case *ast.BinaryExpr:
			if n.Op == token.ADD && isNonConstString(pass, n) {
				report(n.Pos(), "non-constant string concatenation allocates")
			}
		}
		return true
	})
}

func checkCall(pass *analysis.Pass, call *ast.CallExpr, report func(token.Pos, string, ...any)) {
	if id, ok := call.Fun.(*ast.Ident); ok {
		if b, ok := pass.Info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make", "new":
				report(call.Pos(), "allocates with "+b.Name())
			case "append":
				if len(call.Args) > 0 && isFreshSlice(pass, call.Args[0]) {
					report(call.Pos(), "append to a fresh slice allocates")
				}
			}
			return
		}
	}
	if pkg, name := analysis.PkgFunc(pass.Info, call); pkg == "fmt" {
		report(call.Pos(), "calls fmt."+name+", which allocates")
		return
	}
	// Explicit conversion of a concrete value to an interface type
	// boxes the value.
	if tv, ok := pass.Info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		if types.IsInterface(tv.Type.Underlying()) {
			if at := pass.Info.TypeOf(call.Args[0]); at != nil && !types.IsInterface(at.Underlying()) {
				report(call.Pos(), "conversion to interface allocates")
			}
		}
	}
}

// isFreshSlice reports whether the append base is a brand-new slice
// (nil, a conversion of nil such as []T(nil), or a composite literal)
// — growth is then guaranteed, not amortized over a recycled buffer.
func isFreshSlice(pass *analysis.Pass, e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name == "nil"
	case *ast.CompositeLit:
		return true
	case *ast.CallExpr:
		if tv, ok := pass.Info.Types[e.Fun]; ok && tv.IsType() && len(e.Args) == 1 {
			return isFreshSlice(pass, e.Args[0])
		}
	}
	return false
}

func isNonConstString(pass *analysis.Pass, b *ast.BinaryExpr) bool {
	tv, ok := pass.Info.Types[b]
	if !ok {
		return false
	}
	basic, ok := tv.Type.Underlying().(*types.Basic)
	if !ok || basic.Info()&types.IsString == 0 {
		return false
	}
	return tv.Value == nil
}

// escapes decides whether a function literal outlives the statement
// that creates it. Allowed: binding to a local variable and passing
// directly as an argument to an ordinary call (the callee runs it
// synchronously — the EachUnknownInLayer visitor pattern), and
// immediately-invoked literals. Everything else — stored into
// fields/slices/maps, returned, deferred, passed to builtins like
// append, launched with go — escapes.
func escapes(parents map[ast.Node]ast.Node, lit *ast.FuncLit) bool {
	switch p := parents[lit].(type) {
	case *ast.CallExpr:
		if p.Fun == lit {
			// Immediately invoked: gostmt/defer on it is flagged at
			// the statement level already.
			gp := parents[p]
			_, isGo := gp.(*ast.GoStmt)
			_, isDefer := gp.(*ast.DeferStmt)
			return isGo || isDefer
		}
		// Argument position: fine for ordinary calls, an escape for
		// builtins (append, ...).
		if id, ok := p.Fun.(*ast.Ident); ok && id.Obj == nil && isBuiltinName(id.Name) {
			return true
		}
		return false
	case *ast.AssignStmt:
		for i, rhs := range p.Rhs {
			if rhs == lit && i < len(p.Lhs) {
				if _, ok := p.Lhs[i].(*ast.Ident); ok {
					return false
				}
			}
		}
		return true
	}
	return true
}

func isBuiltinName(name string) bool {
	switch name {
	case "append", "copy", "delete", "print", "println":
		return true
	}
	return false
}

// parentMap records each node's immediate parent.
func parentMap(root ast.Node) map[ast.Node]ast.Node {
	parents := make(map[ast.Node]ast.Node)
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return false
		}
		if len(stack) > 0 {
			parents[n] = stack[len(stack)-1]
		}
		stack = append(stack, n)
		return true
	})
	return parents
}

// exemptSpans collects the body ranges of warm-up and cold guards.
func exemptSpans(pass *analysis.Pass, body *ast.BlockStmt) []span {
	var spans []span
	ast.Inspect(body, func(n ast.Node) bool {
		ifs, ok := n.(*ast.IfStmt)
		if !ok {
			return true
		}
		if isColdGuard(ifs) || isWarmupGuard(pass, ifs.Cond) {
			spans = append(spans, span{ifs.Body.Pos(), ifs.Body.End()})
		}
		return true
	})
	return spans
}

// isColdGuard matches early-exit bodies: the last statement returns
// or panics, so the block is off the steady-state loop.
func isColdGuard(ifs *ast.IfStmt) bool {
	if len(ifs.Body.List) == 0 {
		return false
	}
	switch last := ifs.Body.List[len(ifs.Body.List)-1].(type) {
	case *ast.ReturnStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := last.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok {
				return id.Name == "panic"
			}
		}
	}
	return false
}

// isWarmupGuard matches scratch-growth conditions: nil checks and
// cap/len comparisons. Allocation under such a guard happens once per
// scratch lifetime, not per query.
func isWarmupGuard(pass *analysis.Pass, cond ast.Expr) bool {
	found := false
	ast.Inspect(cond, func(n ast.Node) bool {
		b, ok := n.(*ast.BinaryExpr)
		if !ok {
			return true
		}
		switch b.Op {
		case token.EQL, token.NEQ:
			if isNilIdent(b.X) || isNilIdent(b.Y) {
				found = true
			}
		case token.LSS, token.GTR, token.LEQ, token.GEQ:
			if isCapLenCall(b.X) || isCapLenCall(b.Y) {
				found = true
			}
		}
		return !found
	})
	return found
}

func isNilIdent(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "nil"
}

func isCapLenCall(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := call.Fun.(*ast.Ident)
	return ok && (id.Name == "cap" || id.Name == "len")
}
