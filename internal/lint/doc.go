// Package lint implements simlint, the simulator-specific static-analysis
// suite backing the repository's determinism, stats-hygiene, and
// service-layer correctness contracts.
//
// The paper's results are only reproducible if two runs of the same trace
// produce bit-identical statistics, so the determinism-critical packages
// (internal/sim, internal/cpu, internal/bus, internal/core) are held to a
// mechanical standard that ordinary review cannot sustain as the codebase
// grows. The first five analyzers, written against
// golang.org/x/tools/go/analysis, enforce it:
//
//   - detrand forbids wall-clock reads (time.Now and friends), the global
//     math/rand source, and ordering-sensitive map iteration inside the
//     determinism-critical packages.
//   - eventmono flags scheduler.schedule call sites whose cycle argument is
//     not recognisably derived from the tracked simulation time, closing
//     the event-heap monotonicity contract statically.
//   - statsreg cross-checks stats.Counters: every field must be reset at
//     the warm-up boundary (package stats) and emitted by the report
//     package, so counters cannot silently drift out of the report.
//   - cfgcheck requires every exported sim.Config field to be covered by
//     Config.Validate (fields for which any value is valid carry an
//     explicit `simlint:novalidate` marker).
//   - tracegate requires every simtrace emission to be guarded by
//     Enabled(), preserving the zero-cost-when-disabled contract.
//
// Four more analyzers gate the service layer (cdpd and the packages under
// it), where the failure modes are concurrency and cancellation rather
// than determinism:
//
//   - lockcheck enforces `simlint:guardedby <mutex>` field annotations: an
//     annotated field may only be accessed after the named sibling mutex is
//     acquired in the same function, with the ...Locked naming convention
//     and `simlint:holds <mutex>` directives declaring caller-holds
//     functions (see lockcheck.go for the conservative approximation).
//   - ctxprop forbids ambient contexts (context.Background/TODO) and bare
//     time.Sleep in the service packages and requires ctx-first signatures;
//     process lifecycle roots are declared with `simlint:rootctx`.
//   - faultpoint validates fault-injection call sites against the live
//     internal/faultinject catalog and grammar, and on whole-repo runs
//     flags cataloged points no production code can fire.
//   - hotalloc collects the functions marked `simlint:hotpath` and rejects
//     go statements inside them; cmd/allocheck fails on any heap escape
//     the compiler reports in the same functions (see allocheck.go).
//
// A diagnostic is waived only at its site, with a trailing or immediately
// preceding comment of the form
//
//	//simlint:allow <analyzer>... [-- rationale]
//
// which keeps exceptions visible and greppable. There is no file of
// accepted findings: the suite decides from the code alone. `-json` emits
// findings machine-readably for CI artifacts.
//
// The container this repository grows in has no module proxy access, so
// the go/analysis framework is vendored from the Go toolchain distribution
// under third_party/ and the standard drivers (multichecker, unitchecker's
// `go vet -vettool` mode) that depend on golang.org/x/tools/go/packages are
// replaced by a small driver in this package that loads packages with
// `go list -export -deps -json` and gc export data. The analyzers
// themselves are ordinary analysis.Analyzer values and would run unchanged
// under the upstream drivers.
package lint
