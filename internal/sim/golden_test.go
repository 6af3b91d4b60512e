package sim

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/report"
	"repro/internal/workloads"
)

// updateEngineGoldens regenerates the per-engine golden counter files:
//
//	go test ./internal/sim -run TestEngineGoldenCounters -update-engines
//
// The stride/cdp/markov files were captured BEFORE the Prefetcher-interface
// refactor; they are the proof that routing those engines through the
// interface changed nothing. Regenerate only for a deliberate model change,
// never to absorb drift from a refactor.
var updateEngineGoldens = flag.Bool("update-engines", false,
	"rewrite testdata/golden/engines/<name>.txt files")

// goldenOps pins the trace budget the engine goldens were generated with.
const goldenOps = 120_000

// goldenBase mirrors the service's config derivation (api.buildSim): the
// warm-up and MPTU bucketing come from the µop budget.
func goldenBase() Config {
	cfg := Default()
	cfg.WarmupOps = uint64(goldenOps / 8)
	cfg.MPTUBucketOps = uint64(goldenOps / 48)
	return cfg
}

// engineGoldenConfigs is the fixed pre-refactor engine matrix. The goldens
// of the two interface-native entrants (pangloss, bestoffset) are
// regression anchors captured at introduction rather than equivalence
// witnesses.
func engineGoldenConfigs() map[string]Config {
	base := goldenBase()
	return map[string]Config{
		"stride":     base,
		"cdp":        base.WithContent(core.DefaultConfig),
		"markov":     base.WithMarkov(512*1024, base.L2),
		"pangloss":   base.WithEngine("pangloss"),
		"bestoffset": base.WithEngine("bestoffset"),
	}
}

// renderEngineGolden is the byte-compared serialization: the measured
// region, then every counter the report layer knows how to print.
func renderEngineGolden(benchmark string, res *Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "benchmark %s\nconfig %s\n", benchmark, res.Config.Name)
	fmt.Fprintf(&b, "retired %d measured_uops %d\n", res.Core.Retired, res.MeasuredUops)
	fmt.Fprintf(&b, "cycles %d measured_cycles %d\n", res.Core.Cycles, res.MeasuredCycles)
	fmt.Fprintf(&b, "tlb %d/%d\n\n", res.TLBHits, res.TLBMisses)
	b.WriteString(report.CountersReport(res.Counters))
	return b.String()
}

func engineGoldenPath(name string) string {
	return filepath.Join("testdata", "golden", "engines", name+".txt")
}

// TestEngineGoldenCounters runs one small benchmark per engine
// configuration and compares the rendered counter block byte-for-byte
// against the checked-in golden. stride/cdp/markov goldens predate the
// Prefetcher-interface refactor, so a pass here means the interface rewire
// is behaviourally invisible.
func TestEngineGoldenCounters(t *testing.T) {
	spec, err := workloads.ByName("tpcc-1")
	if err != nil {
		t.Fatal(err)
	}
	ck := workloads.Checkpoint(spec, goldenOps)
	for name, cfg := range engineGoldenConfigs() {
		t.Run(name, func(t *testing.T) {
			got := renderEngineGolden(spec.Name, Run(ck, cfg))
			path := engineGoldenPath(name)
			if *updateEngineGoldens {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (regenerate with -update-engines): %v", err)
			}
			if got != string(want) {
				t.Errorf("engine %s counters drifted from %s:\n%s", name, path, diffHead(string(want), got))
			}
		})
	}
}

// diffHead points at the first line of divergence so a failure names the
// counter, not just "bytes differ".
func diffHead(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(w) && i < len(g); i++ {
		if w[i] != g[i] {
			return fmt.Sprintf("line %d:\n  want: %s\n  got:  %s", i+1, w[i], g[i])
		}
	}
	return fmt.Sprintf("length differs: want %d lines, got %d", len(w), len(g))
}
