// Package repro_test hosts the benchmark harness: one testing.B benchmark
// per table and figure of the paper (regenerating its rows/series at a
// reduced trace budget), plus micro-benchmarks of the hot paths.
//
//	go test -bench=. -benchmem
//
// Full-scale regeneration (paper-sized sweeps over all fifteen benchmarks)
// is `go run ./cmd/experiments all`.
package repro_test

import (
	"encoding/binary"
	"math/rand"
	"testing"

	"repro/internal/api"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// benchOpt keeps each experiment benchmark to a few seconds: short traces,
// one benchmark per suite for the sweeps.
func benchOpt() experiments.Options {
	return experiments.Options{Ops: 150_000, Reps: true}
}

func runExperiment(b *testing.B, id string) {
	b.Helper()
	r, err := experiments.Get(id)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		rep, err := r.Run(benchOpt())
		if err != nil {
			b.Fatal(err)
		}
		if rep.Text == "" {
			b.Fatalf("experiment %s produced no output", id)
		}
	}
}

// BenchmarkTable1Config regenerates Table 1 (the machine description).
func BenchmarkTable1Config(b *testing.B) { runExperiment(b, "table1") }

// BenchmarkFig1MPTUTrace regenerates Figure 1 (MPTU warm-up trace, 4 MB UL2).
func BenchmarkFig1MPTUTrace(b *testing.B) { runExperiment(b, "fig1") }

// BenchmarkTable2Workloads regenerates Table 2 (per-benchmark MPTU at 1/4 MB).
func BenchmarkTable2Workloads(b *testing.B) { runExperiment(b, "table2") }

// BenchmarkFig7CompareFilter regenerates Figure 7 (compare/filter tuning).
func BenchmarkFig7CompareFilter(b *testing.B) { runExperiment(b, "fig7") }

// BenchmarkFig8AlignScan regenerates Figure 8 (align bits and scan step).
func BenchmarkFig8AlignScan(b *testing.B) { runExperiment(b, "fig8") }

// BenchmarkFig9DepthVsWidth regenerates Figure 9 (depth vs next-line count).
func BenchmarkFig9DepthVsWidth(b *testing.B) { runExperiment(b, "fig9") }

// BenchmarkFig10Distribution regenerates Figure 10 (UL2 request distribution).
func BenchmarkFig10Distribution(b *testing.B) { runExperiment(b, "fig10") }

// BenchmarkTLBSweep regenerates the Section 4.2.2 DTLB size sweep.
func BenchmarkTLBSweep(b *testing.B) { runExperiment(b, "tlb") }

// BenchmarkTable3MarkovConfigs regenerates Table 3 (Markov configurations).
func BenchmarkTable3MarkovConfigs(b *testing.B) { runExperiment(b, "table3") }

// BenchmarkFig11MarkovVsContent regenerates Figure 11 (Markov comparison).
func BenchmarkFig11MarkovVsContent(b *testing.B) { runExperiment(b, "fig11") }

// BenchmarkLimitStudyPollution regenerates the Section 3.5 limit study.
func BenchmarkLimitStudyPollution(b *testing.B) { runExperiment(b, "limit") }

// ---------------------------------------------------------------------------
// Micro-benchmarks of the mechanism's hot paths.

// BenchmarkScanLine measures the virtual-address-matching line scan at the
// paper's 8.4.1.2 operating point.
func BenchmarkScanLine(b *testing.B) {
	m := core.DefaultMatch
	line := make([]byte, 64)
	rng := rand.New(rand.NewSource(1))
	for off := 0; off+4 <= 64; off += 4 {
		binary.LittleEndian.PutUint32(line[off:], rng.Uint32())
	}
	binary.LittleEndian.PutUint32(line[8:], 0x1020_3040)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := m.ScanLine(0x1000_0000, line); len(got) == 0 {
			b.Fatal("planted pointer not found")
		}
	}
}

// BenchmarkIsCandidate measures the single-word heuristic.
func BenchmarkIsCandidate(b *testing.B) {
	m := core.DefaultMatch
	var hits int
	for i := 0; i < b.N; i++ {
		if m.IsCandidate(0x1040_2030, uint32(i)<<1) {
			hits++
		}
	}
	_ = hits
}

// BenchmarkCacheLookup measures the UL2 lookup path.
func BenchmarkCacheLookup(b *testing.B) {
	c := cache.New(cache.Config{SizeBytes: 1 << 20, Ways: 8, LineSize: 64})
	for a := uint32(0); a < 1<<20; a += 64 {
		c.Fill(a, cache.Line{})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Lookup(uint32(i*64)&(1<<20-1), true)
	}
}

// BenchmarkAdaptiveAblation compares the fixed 8.4.1.2 heuristic against
// the adaptive controller (the paper's future-work extension) on the same
// workload, reporting each variant's measured cycles.
func BenchmarkAdaptiveAblation(b *testing.B) {
	spec, err := workloads.ByName("specjbb-vsnet")
	if err != nil {
		b.Fatal(err)
	}
	ck := workloads.Checkpoint(spec, 200_000)
	fixed := sim.Default().WithContent(core.DefaultConfig)
	fixed.WarmupOps = 25_000
	adaptiveCfg := core.DefaultConfig
	ac := core.DefaultAdaptive
	adaptiveCfg.Adaptive = &ac
	adaptive := sim.Default().WithContent(adaptiveCfg)
	adaptive.WarmupOps = 25_000

	b.Run("fixed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			r := sim.Run(ck, fixed)
			b.ReportMetric(float64(r.MeasuredCycles), "cycles")
		}
	})
	b.Run("adaptive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			r := sim.Run(ck, adaptive)
			b.ReportMetric(float64(r.MeasuredCycles), "cycles")
		}
	})
}

// BenchmarkSimulatorUopsPerSecond measures end-to-end simulation throughput
// on the tpcc-1 workload with the full content-prefetcher machine.
func BenchmarkSimulatorUopsPerSecond(b *testing.B) {
	spec, err := workloads.ByName("tpcc-1")
	if err != nil {
		b.Fatal(err)
	}
	ck := workloads.Checkpoint(spec, 150_000)
	cfg := sim.Default().WithContent(core.DefaultConfig)
	cfg.WarmupOps = 20_000
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := sim.Run(ck, cfg)
		if res.Core.Retired == 0 {
			b.Fatal("nothing retired")
		}
	}
	b.ReportMetric(float64(ck.Trace.Len()), "uops/op")
}

// BenchmarkSimulatorMemoryBound measures simulation throughput where the
// core backs up on memory: creation at 20,000 µops on the default machine,
// configured as the daemon configures {"benchmark":"creation","ops":20000}
// (the shape of a cdpd-cluster miss). Its cold start fills the 48-entry
// load buffer, which BenchmarkSimulatorUopsPerSecond's run never does.
func BenchmarkSimulatorMemoryBound(b *testing.B) {
	spec, cfg, ops, err := api.ResolveSim(api.SimRequest{Benchmark: "creation", Ops: 20_000})
	if err != nil {
		b.Fatal(err)
	}
	ck := workloads.Checkpoint(spec, ops)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := sim.Run(ck, cfg)
		if res.Core.Retired == 0 {
			b.Fatal("nothing retired")
		}
	}
	b.ReportMetric(float64(ck.Trace.Len()), "uops/op")
}
