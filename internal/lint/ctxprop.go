package lint

import (
	"go/ast"
	"go/types"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
)

// ctxServicePkgs names the service-layer packages (by package name) held to
// the context-propagation contract: work that can block must be cancellable
// from the request that started it, so deadlines and drains propagate from
// cdpd's handlers all the way into a running simulation.
var ctxServicePkgs = map[string]bool{
	"jobq":        true, // worker pool: per-job cancellation and timeouts
	"simcache":    true, // singleflight waiters
	"api":         true, // HTTP handlers and the job functions they build
	"experiments": true, // matrix sweeps cancelled between cells
	"cluster":     true, // heartbeat loop, forwards, lease sweeper
}

// Ctxprop enforces context hygiene in the service packages:
//
//   - context.Background() and context.TODO() are forbidden: an ambient
//     context silently detaches the work under it from every deadline and
//     drain above it. The only legitimate uses are process lifecycle roots,
//     which must be declared by a `simlint:rootctx` directive on the
//     enclosing function so each root is named, documented, and greppable.
//   - time.Sleep is forbidden: a bare sleep cannot be interrupted by
//     cancellation; block on a timer channel together with ctx.Done()
//     instead (see faultinject.Sleep for the pattern).
//   - A context.Context parameter must come first in the parameter list,
//     the convention every caller in this codebase relies on.
//
// Package main (flag parsing, signal roots) and test files are outside the
// contract.
var Ctxprop = &analysis.Analyzer{
	Name: "ctxprop",
	Doc: "forbid ambient contexts (context.Background/TODO) and " +
		"uncancellable sleeps in the service packages; require ctx-first signatures",
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      runCtxprop,
}

const rootctxMarker = "simlint:rootctx"

func runCtxprop(pass *analysis.Pass) (interface{}, error) {
	if pass.Pkg.Name() == "main" || !ctxServicePkgs[pass.Pkg.Name()] {
		return nil, nil
	}
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)

	roots := rootctxFuncs(pass)

	nodeFilter := []ast.Node{(*ast.CallExpr)(nil), (*ast.FuncDecl)(nil)}
	ins.WithStack(nodeFilter, func(n ast.Node, push bool, stack []ast.Node) bool {
		if !push {
			return true
		}
		switch n := n.(type) {
		case *ast.FuncDecl:
			checkCtxFirst(pass, n)
		case *ast.CallExpr:
			checkCtxCall(pass, n, stack, roots)
		}
		return true
	})
	return nil, nil
}

// rootctxFuncs collects the function declarations carrying a
// `simlint:rootctx` directive in their doc comment.
func rootctxFuncs(pass *analysis.Pass) map[*ast.FuncDecl]bool {
	out := map[*ast.FuncDecl]bool{}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if ok && hasDirective(fd.Doc, rootctxMarker) {
				out[fd] = true
			}
		}
	}
	return out
}

// checkCtxCall reports forbidden ambient-context constructors and bare
// sleeps.
func checkCtxCall(pass *analysis.Pass, call *ast.CallExpr, stack []ast.Node, roots map[*ast.FuncDecl]bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	obj, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || obj.Pkg() == nil {
		return
	}
	if sig, ok := obj.Type().(*types.Signature); !ok || sig.Recv() != nil {
		return
	}
	switch obj.Pkg().Path() {
	case "context":
		if obj.Name() != "Background" && obj.Name() != "TODO" {
			return
		}
		if inRootctx(stack, roots) {
			return
		}
		report(pass, call.Pos(), call.End(),
			"context.%s() detaches this work from every caller deadline and drain; thread a context.Context parameter, "+
				"or declare a documented lifecycle root with a `simlint:rootctx` directive on the enclosing function",
			obj.Name())
	case "time":
		if obj.Name() != "Sleep" {
			return
		}
		report(pass, call.Pos(), call.End(),
			"time.Sleep cannot be cancelled; select on a time.Timer together with ctx.Done() instead")
	}
}

// inRootctx reports whether the innermost enclosing function declaration is
// a declared rootctx root. Function literals inside a root share its
// exemption: the root's doc governs the whole declaration.
func inRootctx(stack []ast.Node, roots map[*ast.FuncDecl]bool) bool {
	for i := len(stack) - 1; i >= 0; i-- {
		if fd, ok := stack[i].(*ast.FuncDecl); ok {
			return roots[fd]
		}
	}
	return false
}

// checkCtxFirst requires a context.Context parameter, when present, to be
// the first parameter.
func checkCtxFirst(pass *analysis.Pass, decl *ast.FuncDecl) {
	if decl.Type.Params == nil {
		return
	}
	idx := 0
	for _, field := range decl.Type.Params.List {
		n := len(field.Names)
		if n == 0 {
			n = 1
		}
		if isContextType(pass, field.Type) && idx > 0 {
			report(pass, field.Pos(), field.Type.End(),
				"context.Context must be the first parameter of %s", decl.Name.Name)
			return
		}
		idx += n
	}
}

func isContextType(pass *analysis.Pass, expr ast.Expr) bool {
	t := pass.TypesInfo.TypeOf(expr)
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}
