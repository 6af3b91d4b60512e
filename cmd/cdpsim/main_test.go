package main

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/sim"
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
