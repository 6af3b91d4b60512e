package lint

import (
	"go/ast"
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

// Hotalloc finds the functions marked `simlint:hotpath` — the per-µop
// fast paths whose allocation behaviour the allocs/run ceiling of
// TestSimAllocCeiling (alloc_test.go) depends on — and returns their
// ranges, which cmd/allocheck matches against the compiler's escape
// decisions. Allocation itself is the compiler's call: a make, new,
// closure or literal the compiler keeps on the stack allocates nothing,
// and one it moves to the heap fails allocheck.
//
// The analyzer rejects one shape on its own: a go statement inside a
// hotpath body. It spawns a goroutine on every execution, and when it
// calls a named function the compiler reports no escape, so neither
// allocheck nor the ceiling (which sees only the paths its frozen run
// reaches) would catch it. A deliberate one would carry a
// `//simlint:allow hotalloc` marker so the exception stays visible.
var Hotalloc = &analysis.Analyzer{
	Name:       "hotalloc",
	Doc:        "collect functions marked simlint:hotpath for cmd/allocheck, and reject go statements inside them",
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

// checkHotBody reports the go statements inside one hotpath function.
func checkHotBody(pass *analysis.Pass, decl *ast.FuncDecl) {
	name := funcDisplayName(decl)
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		if g, ok := n.(*ast.GoStmt); ok {
			report(pass, g.Pos(), g.Call.End(),
				"go statement inside hotpath function %s spawns a goroutine per call", name)
		}
		return true
	})
}
