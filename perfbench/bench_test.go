package main

import (
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/sim"
	"repro/internal/workloads"
)

func TestTailPercentile(t *testing.T) {
	cases := []struct {
		n      int
		want   float64
		wantOK bool
	}{
		{5, 0, false},
		{20, 50, true},   // p50 leaves 10 beyond
		{40, 75, true},   // p75 leaves 10 beyond
		{99, 75, true},   // p90 would leave 9
		{100, 90, true},  // p90 leaves exactly 10
		{199, 90, true},  // p95 would leave 9
		{200, 95, true},  // p95 leaves 10
		{999, 95, true},  // p99 would leave 9
		{2000, 99, true}, // p99.9 would leave 2
		{10000, 99.9, true},
	}
	for _, c := range cases {
		p, ok := tailPercentile(c.n)
		if p != c.want || ok != c.wantOK {
			t.Errorf("tailPercentile(%d) = %g, %v; want %g, %v", c.n, p, ok, c.want, c.wantOK)
		}
		if ok {
			if beyond := c.n - rankOf(p, c.n); beyond < minBeyond {
				t.Errorf("n=%d p%g: only %d samples beyond", c.n, p, beyond)
			}
		}
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 1..100, reversed
	}
	s := summarize(xs)
	if s.n != 100 || s.p50 != 50 || s.tailP != 90 || s.tail != 90 || !s.tailOK {
		t.Errorf("summarize(1..100) = %+v", s)
	}
}

func TestGenClusterDeterministic(t *testing.T) {
	a, b := genCluster(7, 1000), genCluster(7, 1000)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed produced different requests")
	}
	if c := genCluster(8, 1000); reflect.DeepEqual(a.seq, c.seq) {
		t.Fatal("a different seed produced the same request sequence")
	}
	if len(a.seq) != 1000 || len(a.hot) != hotKeys {
		t.Fatalf("got %d requests and %d hot keys", len(a.seq), len(a.hot))
	}
	keys := map[string]bool{}
	for _, h := range a.hot {
		keys[jobID(h)] = true
	}
	if len(keys) != hotKeys {
		t.Fatalf("hot set has %d distinct keys, want %d", len(keys), hotKeys)
	}
	for i, req := range a.seq {
		id := jobID(req)
		if id == "invalid" {
			t.Fatalf("request %d does not resolve: %+v", i, req)
		}
		if a.miss[i] == keys[id] {
			t.Fatalf("request %d: miss=%v but hot-set membership=%v", i, a.miss[i], keys[id])
		}
		if a.miss[i] {
			keys[id] = true // a later request with this key would not be a miss
		}
	}
	for blk := 0; blk < len(a.seq); blk += blockSize {
		misses := 0
		for _, m := range a.miss[blk : blk+blockSize] {
			if m {
				misses++
			}
		}
		if misses != 2 {
			t.Fatalf("block at %d has %d misses, want 2", blk, misses)
		}
	}
}

// TestMemPortFidelity checks that the wrapped core/memory-system assembly
// reproduces sim.Run exactly on a short trace, for every machine.
func TestMemPortFidelity(t *testing.T) {
	spec, err := workloads.ByName("b2c")
	if err != nil {
		t.Fatal(err)
	}
	ck := workloads.Checkpoint(spec, 60_000)
	for _, m := range hotloopMachines() {
		cfg := m.cfg
		cfg.WarmupOps = 10_000
		want := sim.Run(ck, cfg)
		got, err := runPorted(ck, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got.core != want.Core {
			t.Errorf("%s: core result %+v, sim.Run %+v", m.name, got.core, want.Core)
		}
		if *got.counters != *want.Counters {
			t.Errorf("%s: counters differ from sim.Run's", m.name)
		}
		p := got.port
		if p.tickCalls == 0 || p.accessCalls == 0 || p.nextEventCalls == 0 {
			t.Errorf("%s: wrapper saw %+v", m.name, p)
		}
		if p.tickSamples != p.tickCalls/sampleEvery || p.accessSamples != p.accessCalls/sampleEvery {
			t.Errorf("%s: %d/%d Tick and %d/%d access calls sampled", m.name,
				p.tickSamples, p.tickCalls, p.accessSamples, p.accessCalls)
		}
	}
}

// TestMetricNames checks every metric name against the allowed character
// set and BENCHMARK.json against the metrics the program reports.
func TestMetricNames(t *testing.T) {
	for _, list := range [][]declaredMetric{endToEnd, perLayer} {
		seen := map[string]bool{}
		for _, m := range list {
			if !metricName.MatchString(m.name) {
				t.Errorf("metric name %q uses characters outside letters, digits, _, . and -", m.name)
			}
			if seen[m.name] {
				t.Errorf("metric %q declared twice", m.name)
			}
			seen[m.name] = true
		}
	}
	// A renamed experiment must not leave a stale metric behind; a new one
	// that simulates fails the traced run until its metric is declared.
	ids := map[string]bool{}
	for _, id := range experiments.IDs() {
		ids[id] = true
	}
	for _, m := range perLayer {
		if id, ok := strings.CutPrefix(m.name, "experiments."); ok {
			if id, _, _ = strings.Cut(id, "."); !ids[id] {
				t.Errorf("metric %s names no registered experiment", m.name)
			}
		}
	}

	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name string `json:"name"`
			Unit string `json:"unit"`
		} `json:"end_to_end"`
		PerLayer []struct {
			Name string `json:"name"`
			Unit string `json:"unit"`
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	check := func(what string, got []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}, want []declaredMetric) {
		if len(got) != len(want) {
			t.Fatalf("BENCHMARK.json lists %d %s metrics, the program %d", len(got), what, len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s metric %d: BENCHMARK.json %s (%s), program %s (%s)",
					what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", bench.EndToEnd, endToEnd)
	check("per_layer", bench.PerLayer, perLayer)
	if len(bench.Workloads) != len(benchWorkloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(bench.Workloads), len(benchWorkloads))
	}
	for i, w := range benchWorkloads {
		if bench.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %s, program %s", i, bench.Workloads[i].Name, w.name)
		}
	}
}
