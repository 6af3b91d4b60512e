package main

import (
	"encoding/json"
	"flag"
	"os"
	"testing"

	"repro/internal/sim"
)

var update = flag.Bool("update", false, "rewrite testdata/hotloop_digests.json from sim.Run")

// TestHotloopDigests checks the stored digests against sim.Run for every
// sim-hotloop simulation; -update regenerates them.
func TestHotloopDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 30 full-length simulations")
	}
	sims, _ := hotloopSims()
	got := map[string]simDigest{}
	for _, s := range sims {
		res := sim.Run(s.ck, s.machine.cfg)
		got[s.key()] = digestOf(res.Core.Cycles, res.Core.Retired, res.Counters)
	}
	if *update {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("testdata/hotloop_digests.json", append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := loadDigests()
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("%d stored digests for %d sims", len(want), len(got))
	}
	for k, g := range got {
		if want[k] != g {
			t.Errorf("%s: sim.Run gives %+v, stored %+v", k, g, want[k])
		}
	}
}
