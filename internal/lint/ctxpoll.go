package lint

import (
	"go/ast"
	"go/types"
)

// ctxPackages are the packages whose exported context-taking entry points
// must stay cancellable: a fit that takes a ctx but never polls it inside
// its iteration loop hangs SIGTERM drains and breaks the contract that
// cancellation surfaces ErrInterrupted at an iteration boundary. The serve
// package joined the scope with the deadline-aware request lifecycle: a
// serve-path loop that ignores its request context outlives the caller's
// deadline and turns honest 504s into hangs.
var ctxPackages = []string{
	"internal/core",
	"internal/serve",
}

var checkCtxPoll = Check{
	Name: "ctxpoll",
	Doc:  "exported context-taking functions in cancellation-scoped packages must observe their context in top-level loops",
	run:  runCtxPoll,
}

func runCtxPoll(pass *Pass) {
	if !pathIn(pass.Pkg.Path, ctxPackages) {
		return
	}
	info := pass.Pkg.Info
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !fn.Name.IsExported() {
				continue
			}
			ctxObj, hasCtx := contextParam(info, fn)
			if !hasCtx {
				continue
			}
			loops := topLevelLoops(fn.Body)
			if len(loops) == 0 {
				continue
			}
			polled := false
			for _, loop := range loops {
				if ctxObj != nil && usesObject(info, loop, ctxObj) {
					polled = true
					break
				}
			}
			if !polled {
				pass.Reportf(loops[0], "check ctx.Err() (or select on ctx.Done()) once per iteration, or pass ctx to a cancellable callee",
					"%s takes a context.Context but its top-level loops never observe it", fn.Name.Name)
			}
		}
	}
}

// contextParam returns the object of the first context.Context parameter.
// The object is nil for an unnamed or blank ctx parameter — which can never
// be polled, so any loop in such a function is a finding.
func contextParam(info *types.Info, fn *ast.FuncDecl) (types.Object, bool) {
	for _, field := range fn.Type.Params.List {
		if !isContextType(info.TypeOf(field.Type)) {
			continue
		}
		for _, name := range field.Names {
			if name.Name != "_" {
				return info.Defs[name], true
			}
		}
		return nil, true
	}
	return nil, false
}

func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}

// topLevelLoops collects for/range statements that are direct statements of
// the function body — the iteration structure a cancellation check must
// break out of.
func topLevelLoops(body *ast.BlockStmt) []ast.Stmt {
	var loops []ast.Stmt
	for _, stmt := range body.List {
		switch s := stmt.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			loops = append(loops, s)
		}
	}
	return loops
}
