package lint

import (
	"encoding/json"
	"fmt"
	"go/token"
	"go/types"
	"io"
	"path/filepath"
	"sort"

	"golang.org/x/tools/go/analysis"
)

// Analyzers is the simlint suite, in reporting order.
var Analyzers = []*analysis.Analyzer{Detrand, Eventmono, Statsreg, Cfgcheck, Tracegate, Lockcheck, Ctxprop, Faultpoint, Hotalloc}

// Diagnostic is one analyzer finding with resolved position.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Run loads the packages matched by patterns under dir and applies every
// analyzer in the suite, returning the findings sorted by position. When
// the pattern set covers the whole repository ("./...") and the faultpoint
// analyzer is in the suite, catalog entries no loaded package references
// are reported as orphans — a partial run cannot see every call site, so
// the cross-package check only arms on full coverage.
func Run(dir string, patterns []string, analyzers []*analysis.Analyzer) ([]Diagnostic, error) {
	if err := analysis.Validate(analyzers); err != nil {
		return nil, err
	}
	pkgs, err := Load(dir, patterns)
	if err != nil {
		return nil, err
	}
	var diags []Diagnostic
	usage := &FaultpointUsage{Used: map[string]bool{}, Catalog: map[string]token.Pos{}}
	var catalogFset *token.FileSet
	for _, pkg := range pkgs {
		ds, results, err := RunPackageResults(pkg, analyzers)
		if err != nil {
			return nil, err
		}
		diags = append(diags, ds...)
		if u, ok := results[Faultpoint].(*FaultpointUsage); ok && u != nil {
			for p := range u.Used {
				usage.Used[p] = true
			}
			for p, pos := range u.Catalog {
				usage.Catalog[p] = pos
				catalogFset = pkg.Fset
			}
		}
	}
	if wholeRepo(patterns) && catalogFset != nil {
		diags = append(diags, orphanDiagnostics(catalogFset, usage)...)
	}
	sortDiagnostics(diags)
	return diags, nil
}

func wholeRepo(patterns []string) bool {
	for _, p := range patterns {
		if p == "./..." || p == "all" {
			return true
		}
	}
	return false
}

// orphanDiagnostics flags catalog entries with no call site in the run.
func orphanDiagnostics(fset *token.FileSet, usage *FaultpointUsage) []Diagnostic {
	var out []Diagnostic
	for name, pos := range usage.Catalog {
		if usage.Used[name] {
			continue
		}
		out = append(out, Diagnostic{
			Analyzer: "faultpoint",
			Pos:      fset.Position(pos),
			Message: fmt.Sprintf("orphaned catalog entry: fault point %q is declared but no non-test code can fire it; "+
				"remove the entry or wire the point in", name),
		})
	}
	return out
}

func sortDiagnostics(diags []Diagnostic) {
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

// RunPackage applies the analyzers (and their requirements, in dependency
// order) to one loaded package.
func RunPackage(pkg *Package, analyzers []*analysis.Analyzer) ([]Diagnostic, error) {
	diags, _, err := RunPackageResults(pkg, analyzers)
	return diags, err
}

// RunPackageResults is RunPackage, additionally returning each analyzer's
// result value so suite-level checks (faultpoint orphans) and layered tools
// (cmd/allocheck over hotalloc's ranges) can consume them.
func RunPackageResults(pkg *Package, analyzers []*analysis.Analyzer) ([]Diagnostic, map[*analysis.Analyzer]interface{}, error) {
	var diags []Diagnostic
	results := map[*analysis.Analyzer]interface{}{}
	ran := map[*analysis.Analyzer]bool{}

	var exec func(a *analysis.Analyzer) error
	exec = func(a *analysis.Analyzer) error {
		if ran[a] {
			return nil
		}
		ran[a] = true
		for _, req := range a.Requires {
			if err := exec(req); err != nil {
				return err
			}
		}
		pass := newPass(a, pkg, results, &diags)
		res, err := a.Run(pass)
		if err != nil {
			return fmt.Errorf("%s on %s: %v", a.Name, pkg.ImportPath, err)
		}
		results[a] = res
		return nil
	}
	for _, a := range analyzers {
		if err := exec(a); err != nil {
			return nil, nil, err
		}
	}
	return diags, results, nil
}

// newPass assembles the analysis.Pass for one (analyzer, package) pair.
// simlint's analyzers use no facts, so the fact hooks are inert stubs.
func newPass(a *analysis.Analyzer, pkg *Package, results map[*analysis.Analyzer]interface{}, out *[]Diagnostic) *analysis.Pass {
	resultOf := map[*analysis.Analyzer]interface{}{}
	for _, req := range a.Requires {
		resultOf[req] = results[req]
	}
	pass := &analysis.Pass{
		Analyzer:   a,
		Fset:       pkg.Fset,
		Files:      pkg.Files,
		Pkg:        pkg.Types,
		TypesInfo:  pkg.TypesInfo,
		TypesSizes: sizes(),
		ResultOf:   resultOf,
		Report: func(d analysis.Diagnostic) {
			*out = append(*out, Diagnostic{
				Analyzer: a.Name,
				Pos:      pkg.Fset.Position(d.Pos),
				Message:  d.Message,
			})
		},
		ImportObjectFact:  func(types.Object, analysis.Fact) bool { return false },
		ImportPackageFact: func(*types.Package, analysis.Fact) bool { return false },
		ExportObjectFact:  func(types.Object, analysis.Fact) {},
		ExportPackageFact: func(analysis.Fact) {},
		AllObjectFacts:    func() []analysis.ObjectFact { return nil },
		AllPackageFacts:   func() []analysis.PackageFact { return nil },
	}
	if pkg.Module != nil {
		pass.Module = &analysis.Module{Path: pkg.Module.Path, GoVersion: pkg.Module.GoVersion}
	}
	return pass
}

// jsonDiagnostic is the machine-readable finding shape (-json). File is
// repo-relative so CI artifacts are stable across checkouts.
type jsonDiagnostic struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Message  string `json:"message"`
}

// Main is the cmd/simlint entry point: run the suite over the patterns
// (default "./...") and print every finding, as a JSON array when jsonOut
// is set. A finding is waived only at its site, by a `simlint:allow`
// comment (suppress.go). Exit status 0 means clean, 1 means findings, 2
// means the load or an analyzer failed.
func Main(w io.Writer, dir string, args []string, jsonOut bool) int {
	patterns := args
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	diags, err := Run(dir, patterns, Analyzers)
	if err != nil {
		fmt.Fprintf(w, "simlint: %v\n", err)
		return 2
	}
	if jsonOut {
		out := make([]jsonDiagnostic, 0, len(diags))
		for _, d := range diags {
			out = append(out, jsonDiagnostic{
				Analyzer: d.Analyzer,
				File:     relTo(dir, d.Pos.Filename),
				Line:     d.Pos.Line,
				Column:   d.Pos.Column,
				Message:  d.Message,
			})
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintf(w, "simlint: %v\n", err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Fprintln(w, d)
		}
	}
	if len(diags) > 0 {
		return 1
	}
	return 0
}

// relTo renders filename relative to dir when possible, for stable JSON
// output.
func relTo(dir, filename string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return filename
	}
	rel, err := filepath.Rel(abs, filename)
	if err != nil || rel == "" {
		return filename
	}
	return rel
}
