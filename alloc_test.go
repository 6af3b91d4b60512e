package repro_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// simAllocCeiling is the checked-in allocation count of one frozen hot-path
// simulation: tpcc-1 at 150,000 µops with a 20,000-µop warm-up on the
// content-prefetcher machine, the run BenchmarkSimulatorUopsPerSecond
// times. The ratchet allows zero growth: an allocation added to the
// simulator's per-access paths fails here before a benchmark runs. Lower
// it when a change removes allocations.
const simAllocCeiling = 865

// TestSimAllocCeiling is the allocations-per-run ratchet beside
// cmd/allocheck's escape gate: allocheck proves no hot-path function
// escapes a value to the heap, and this counts what one whole run
// allocates, construction included.
func TestSimAllocCeiling(t *testing.T) {
	spec, err := workloads.ByName("tpcc-1")
	if err != nil {
		t.Fatal(err)
	}
	ck := workloads.Checkpoint(spec, 150_000)
	cfg := sim.Default().WithContent(core.DefaultConfig)
	cfg.WarmupOps = 20_000
	allocs := testing.AllocsPerRun(3, func() { sim.Run(ck, cfg) })
	t.Logf("%.0f allocations per run (ceiling %d)", allocs, simAllocCeiling)
	if allocs > simAllocCeiling {
		t.Fatalf("one frozen tpcc-1 run allocates %.0f times, above the ceiling of %d", allocs, simAllocCeiling)
	}
}
