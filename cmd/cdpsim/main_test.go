package main

import (
	"flag"
	"testing"

	"repro/internal/api"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// TestStrideBaselineKeepsTheMachine: -baseline measures the machine the
// flags describe, with only its prefetchers reduced to the stride baseline.
func TestStrideBaselineKeepsTheMachine(t *testing.T) {
	cfg := sim.Default()
	cfg.Core.ROBSize = 64
	cfg.L2 = cache.Config{SizeBytes: 512 * 1024, Ways: 4, LineSize: sim.LineSize}
	cfg.TLB.Entries = 8
	cfg.WarmupOps, cfg.MPTUBucketOps = 1234, 56
	cfg.InjectBadPrefetches = true
	cfg = cfg.WithContent(core.DefaultConfig).WithMarkov(512*1024, cfg.L2).WithEngine("pangloss")

	want := sim.Default()
	want.Core, want.L2, want.TLB = cfg.Core, cfg.L2, cfg.TLB
	want.WarmupOps, want.MPTUBucketOps = cfg.WarmupOps, cfg.MPTUBucketOps
	if got := strideBaseline(cfg); got != want {
		t.Fatalf("baseline of %+v\n= %+v\nwant %+v", cfg, got, want)
	}
}

// TestEngineFlagRefusesCDP: -engine refuses the content prefetcher, in any
// spelling, with one line that names the -cdp flag a user can set; CI greps
// the line's `engine "cdp" scans fills`.
func TestEngineFlagRefusesCDP(t *testing.T) {
	const want = `cdpsim: engine "cdp" scans fills; enable the content prefetcher with -cdp instead`
	for _, list := range []string{"cdp", "cdp:depth=2", "pangloss+cdp"} {
		err := checkEngineFlag(list)
		if err == nil || err.Error() != want {
			t.Errorf("checkEngineFlag(%q) = %v, want %q", list, err, want)
		}
	}
	for _, list := range []string{"pangloss", "bestoffset:degree=2", "stride", "quake3"} {
		if err := checkEngineFlag(list); err != nil {
			t.Errorf("checkEngineFlag(%q) = %v, want nil (left to sim.Config.Validate)", list, err)
		}
	}
}

// TestMachineMatchesTheService: cdpsim's machine for -ops 20000 b2c is the
// one POST /v1/sim resolves for the same benchmark and budget. Both scale
// warm-up and MPTU bucketing with the budget, not with the generated
// trace, which overshoots it.
func TestMachineMatchesTheService(t *testing.T) {
	if err := flag.Set("ops", "20000"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { flag.Set("ops", "0") })
	got, err := machine()
	if err != nil {
		t.Fatal(err)
	}
	_, want, _, err := api.ResolveSim(api.SimRequest{Benchmark: "b2c", Ops: 20_000})
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("cdpsim -ops 20000 b2c runs\n%+v\nPOST /v1/sim resolves\n%+v", got, want)
	}
	spec, err := workloads.ByName("b2c")
	if err != nil {
		t.Fatal(err)
	}
	if n := workloads.Checkpoint(spec, 20_000).Trace.Len(); n == 20_000 {
		t.Errorf("b2c's trace is exactly its budget; the test no longer covers an overshoot")
	}
}
