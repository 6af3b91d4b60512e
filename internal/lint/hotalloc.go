package lint

import (
	"go/ast"
	"go/types"
	"reflect"
	"strings"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
)

// HotFunc locates one `simlint:hotpath` function for tools layered on the
// analyzer (cmd/allocheck matches compiler escape diagnostics against these
// ranges).
type HotFunc struct {
	Name      string // receiver-qualified, e.g. "(*MemSystem).Load"
	File      string // absolute path as resolved by the file set
	StartLine int
	EndLine   int
}

// HotallocResult is the hotalloc analyzer's per-package result.
type HotallocResult struct {
	Funcs []HotFunc
}

// Hotalloc polices functions marked `simlint:hotpath` — the per-µop fast
// paths whose allocation behaviour the 16,497 allocs/run invariant (PR 2,
// BENCH_1/BENCH_2) depends on. Two layers share the marker:
//
//   - This analyzer rejects syntactically obvious allocation sites inside a
//     hotpath body at lint time: make/new calls, map and slice literals,
//     &composite literals, function literals (a closure allocates its
//     environment), and go/defer statements. Plain value composite
//     literals (simtrace.Event{...} passed by value) are fine and not
//     flagged. A deliberate slow-path allocation would carry a
//     `//simlint:allow hotalloc` marker so the exception stays visible.
//   - cmd/allocheck compiles the package with -gcflags=-m and diffs the
//     compiler's actual escape decisions inside these functions against a
//     checked-in baseline, catching the allocations no syntactic check can
//     see (escaping parameters, interface conversions, string growth).
var Hotalloc = &analysis.Analyzer{
	Name: "hotalloc",
	Doc: "reject obvious allocation sites (make/new, map/slice/&composite " +
		"literals, closures, go/defer) inside functions marked simlint:hotpath",
	Requires:   []*analysis.Analyzer{inspect.Analyzer},
	ResultType: reflect.TypeOf((*HotallocResult)(nil)),
	Run:        runHotalloc,
}

const hotpathMarker = "simlint:hotpath"

func runHotalloc(pass *analysis.Pass) (interface{}, error) {
	res := &HotallocResult{}
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)

	nodeFilter := []ast.Node{(*ast.FuncDecl)(nil)}
	ins.Preorder(nodeFilter, func(n ast.Node) {
		decl := n.(*ast.FuncDecl)
		if decl.Body == nil || !isHotpath(decl) {
			return
		}
		start := pass.Fset.Position(decl.Pos())
		end := pass.Fset.Position(decl.Body.End())
		res.Funcs = append(res.Funcs, HotFunc{
			Name:      funcDisplayName(decl),
			File:      start.Filename,
			StartLine: start.Line,
			EndLine:   end.Line,
		})
		checkHotBody(pass, decl)
	})
	return res, nil
}

func isHotpath(decl *ast.FuncDecl) bool {
	return hasDirective(decl.Doc, hotpathMarker)
}

// funcDisplayName renders a declaration as it appears in compiler
// diagnostics: method names receiver-qualified, e.g. "(*MemSystem).Load".
func funcDisplayName(decl *ast.FuncDecl) string {
	if decl.Recv == nil || len(decl.Recv.List) == 0 {
		return decl.Name.Name
	}
	recv := decl.Recv.List[0].Type
	var b strings.Builder
	switch t := recv.(type) {
	case *ast.StarExpr:
		b.WriteString("(*")
		b.WriteString(typeName(t.X))
		b.WriteString(")")
	default:
		b.WriteString(typeName(recv))
	}
	b.WriteString(".")
	b.WriteString(decl.Name.Name)
	return b.String()
}

func typeName(expr ast.Expr) string {
	switch t := expr.(type) {
	case *ast.Ident:
		return t.Name
	case *ast.IndexExpr: // generic receiver
		return typeName(t.X)
	case *ast.IndexListExpr:
		return typeName(t.X)
	default:
		return "?"
	}
}

// checkHotBody reports the syntactic allocation sites inside one hotpath
// function.
func checkHotBody(pass *analysis.Pass, decl *ast.FuncDecl) {
	name := funcDisplayName(decl)
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			report(pass, n.Pos(), n.Type.End(),
				"closure inside hotpath function %s allocates its environment on every execution; "+
					"hoist it to a prebuilt field or restructure the fast path around it", name)
			return false // the literal body is the slow path, not the hot one
		case *ast.CallExpr:
			if id, ok := n.Fun.(*ast.Ident); ok && (id.Name == "make" || id.Name == "new") && isBuiltin(pass, id) {
				report(pass, n.Pos(), n.End(),
					"%s inside hotpath function %s allocates per call; preallocate in the constructor or reuse a scratch buffer",
					id.Name, name)
			}
		case *ast.UnaryExpr:
			if cl, ok := allocatingCompositeLit(pass, n); ok {
				report(pass, cl.Pos(), cl.End(),
					"&composite literal inside hotpath function %s escapes per call; pool it or store by value", name)
				return false
			}
		case *ast.CompositeLit:
			if isRefLiteral(pass, n) {
				report(pass, n.Pos(), n.End(),
					"map/slice literal inside hotpath function %s allocates per call; preallocate in the constructor", name)
			}
		case *ast.GoStmt:
			report(pass, n.Pos(), n.Call.End(),
				"go statement inside hotpath function %s spawns a goroutine per call", name)
		case *ast.DeferStmt:
			report(pass, n.Pos(), n.Call.End(),
				"defer inside hotpath function %s costs a deferred-call record per call; unwind inline", name)
		}
		return true
	})
}

func isBuiltin(pass *analysis.Pass, id *ast.Ident) bool {
	_, ok := pass.TypesInfo.Uses[id].(*types.Builtin)
	return ok
}

// allocatingCompositeLit matches &T{...}.
func allocatingCompositeLit(pass *analysis.Pass, u *ast.UnaryExpr) (*ast.CompositeLit, bool) {
	if u.Op.String() != "&" {
		return nil, false
	}
	cl, ok := u.X.(*ast.CompositeLit)
	return cl, ok
}

// isRefLiteral reports whether a composite literal builds a map or slice
// (reference types whose backing store is heap-allocated). Value struct and
// array literals stay on the stack and are allowed.
func isRefLiteral(pass *analysis.Pass, cl *ast.CompositeLit) bool {
	t := pass.TypesInfo.TypeOf(cl)
	if t == nil {
		return false
	}
	switch t.Underlying().(type) {
	case *types.Map, *types.Slice:
		return true
	}
	return false
}
