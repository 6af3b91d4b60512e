// Command simlint runs the simulator-specific static-analysis suite of
// internal/lint over the repository:
//
//	go run ./cmd/simlint ./...
//	go run ./cmd/simlint -json ./...
//
// It exits 0 when clean, 1 when any analyzer reports a finding, and 2 when
// loading or analysis fails. A finding is waived only at its site, with a
// `//simlint:allow <analyzer> -- rationale` comment. See internal/lint for
// the analyzer catalogue and the `simlint:allow` / `simlint:novalidate` /
// `simlint:guardedby` / `simlint:holds` / `simlint:rootctx` /
// `simlint:hotpath` markers.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/lint"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit findings as a JSON array (repo-relative file paths)")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: simlint [flags] [packages]\n\nFlags:\n")
		flag.PrintDefaults()
		fmt.Fprintf(flag.CommandLine.Output(), "\nAnalyzers:\n")
		for _, a := range lint.Analyzers {
			fmt.Fprintf(flag.CommandLine.Output(), "  %-10s %s\n", a.Name, a.Doc)
		}
	}
	flag.Parse()
	os.Exit(lint.Main(os.Stdout, ".", flag.Args(), *jsonOut))
}
