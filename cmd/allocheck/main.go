// Command allocheck gates the allocation behaviour of `simlint:hotpath`
// functions on the compiler's real escape analysis, so a heap escape on
// the per-µop fast paths fails CI before a benchmark ever runs:
//
//	go run ./cmd/allocheck
//
// It locates hotpath functions with the hotalloc analyzer, compiles the
// repository with `go build -gcflags=-m`, and prints every "escapes to
// heap" / "moved to heap" diagnostic that falls inside a hotpath body,
// attributed to its function. The gate tolerates none: a value that must
// live on the heap belongs off the hot path. Exit status 0 means no
// hotpath function allocates, 1 means at least one does, 2 means the
// build or load failed.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"

	"golang.org/x/tools/go/analysis"

	"repro/internal/lint"
)

func main() {
	flag.Parse() // allocheck takes no flags; any flag exits 2
	os.Exit(run())
}

func run() int {
	dir, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(os.Stderr, "allocheck: %v\n", err)
		return 2
	}

	funcs, err := hotpathFuncs(dir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "allocheck: %v\n", err)
		return 2
	}
	if len(funcs) == 0 {
		fmt.Fprintln(os.Stderr, "allocheck: no simlint:hotpath functions found; nothing to check")
		return 2
	}

	// -gcflags=-m replays from the build cache, so repeated runs are cheap
	// and no -a rebuild is needed. The diagnostics go to stderr.
	cmd := exec.Command("go", "build", "-gcflags=-m", "./...")
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	if err != nil {
		fmt.Fprintf(os.Stderr, "allocheck: go build -gcflags=-m failed: %v\n%s", err, out)
		return 2
	}
	escapes := lint.ParseEscapes(dir, out, funcs)
	for _, e := range escapes {
		fmt.Printf("allocheck: %s: %d× %q\n", e.Func, e.Count, e.Message)
	}
	if len(escapes) > 0 {
		fmt.Printf("allocheck: FAIL — heap escapes in hotpath functions (%d checked)\n", len(funcs))
		return 1
	}
	fmt.Printf("allocheck: ok — %d hotpath functions, no heap escapes\n", len(funcs))
	return 0
}

// hotpathFuncs runs the hotalloc analyzer over the repository and collects
// every simlint:hotpath function's file/line range.
func hotpathFuncs(dir string) ([]lint.HotFunc, error) {
	pkgs, err := lint.Load(dir, []string{"./..."})
	if err != nil {
		return nil, err
	}
	var funcs []lint.HotFunc
	for _, pkg := range pkgs {
		_, results, err := lint.RunPackageResults(pkg, []*analysis.Analyzer{lint.Hotalloc})
		if err != nil {
			return nil, err
		}
		if res, ok := results[lint.Hotalloc].(*lint.HotallocResult); ok && res != nil {
			funcs = append(funcs, res.Funcs...)
		}
	}
	return funcs, nil
}
