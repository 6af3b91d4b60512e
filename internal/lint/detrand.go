package lint

import (
	"go/ast"
	"go/types"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
)

// detCriticalPkgs names the determinism-critical packages by package name:
// two identical simulations must produce bit-identical stats, so these
// packages may not consult any ambient source of nondeterminism.
var detCriticalPkgs = map[string]bool{
	"sim":      true, // event-driven memory system
	"cpu":      true, // out-of-order core model
	"bus":      true, // arbiters and front-side bus
	"core":     true, // content-directed prefetcher
	"prefetch": true, // the prefetcher zoo's engines
	"registry": true, // engine construction must be spec-deterministic
}

// wallClockFuncs are time-package functions that read the wall clock.
var wallClockFuncs = map[string]bool{"Now": true, "Since": true, "Until": true}

// randConstructors are math/rand functions that build explicitly-seeded
// local generators; those are deterministic and allowed. Everything else
// at package level draws from (or reseeds) the shared global source.
var randConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

// Detrand forbids the three ambient nondeterminism sources Go makes easy
// to reach for — the wall clock, the global math/rand source, and map
// iteration order — inside the determinism-critical simulator packages.
var Detrand = &analysis.Analyzer{
	Name: "detrand",
	Doc: "forbid time.Now, the global math/rand source, and ordering-sensitive " +
		"map iteration in determinism-critical simulator packages",
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      runDetrand,
}

func runDetrand(pass *analysis.Pass) (interface{}, error) {
	if !detCriticalPkgs[pass.Pkg.Name()] {
		return nil, nil
	}
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)

	nodeFilter := []ast.Node{
		(*ast.SelectorExpr)(nil),
		(*ast.RangeStmt)(nil),
	}
	ins.Preorder(nodeFilter, func(n ast.Node) {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			checkForbiddenRef(pass, n)
		case *ast.RangeStmt:
			checkMapRange(pass, n)
		}
	})
	return nil, nil
}

// checkForbiddenRef flags any use (not just call) of a wall-clock reader
// or a global math/rand function: passing time.Now as a value is exactly
// as nondeterministic as calling it.
func checkForbiddenRef(pass *analysis.Pass, sel *ast.SelectorExpr) {
	obj, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || obj.Pkg() == nil {
		return
	}
	if sig, ok := obj.Type().(*types.Signature); !ok || sig.Recv() != nil {
		return // methods (e.g. on a local *rand.Rand) are fine
	}
	switch obj.Pkg().Path() {
	case "time":
		if wallClockFuncs[obj.Name()] {
			report(pass, sel.Pos(), sel.End(),
				"time.%s reads the wall clock; determinism-critical package %q must derive all time from simulated cycles",
				obj.Name(), pass.Pkg.Name())
		}
	case "math/rand", "math/rand/v2":
		if !randConstructors[obj.Name()] {
			report(pass, sel.Pos(), sel.End(),
				"rand.%s uses the global math/rand source; use an explicitly-seeded local rand.New(rand.NewSource(seed)) instead",
				obj.Name())
		}
	}
}

// checkMapRange flags `for k := range m` / `for k, v := range m` over map
// types: Go randomises iteration order per run, so any per-iteration effect
// (scheduling, counter updates, slice appends) diverges between runs. A
// bodyless count (`for range m`) is order-insensitive and allowed.
func checkMapRange(pass *analysis.Pass, rng *ast.RangeStmt) {
	if rng.Key == nil && rng.Value == nil {
		return
	}
	tv, ok := pass.TypesInfo.Types[rng.X]
	if !ok {
		return
	}
	t := tv.Type
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if _, ok := t.Underlying().(*types.Map); !ok {
		return
	}
	report(pass, rng.Pos(), rng.X.End(),
		"map iteration order is nondeterministic; iterate a sorted key slice (or insertion-order FIFO) instead")
}
