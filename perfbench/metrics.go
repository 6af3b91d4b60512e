package main

import "regexp"

// declaredMetric is one metric BENCHMARK.json lists. README.md records
// which end-to-end metric each per-layer metric should move.
type declaredMetric struct {
	name string
	unit string
}

// endToEnd are the metrics a user of the simulator or the service sees.
// Every workload reports every one of them; an "operation" is one sim on
// sim-hotloop, one experiment on matrix-sweep and one request on
// cdpd-cluster.
var endToEnd = []declaredMetric{
	{"setup_s", "s"},
	{"sims_per_s", "1/s"},
	{"requests_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_tail_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the traced run's metrics, one layer each, named after the
// module that owns the layer.
var perLayer = []declaredMetric{
	{"workloads.generate_s", "s"},
	{"sim.construct_ms", "ms"},
	{"cpu.self_ms", "ms"},
	{"sim.tick_ms", "ms"},
	{"sim.access_ms", "ms"},
	{"sim.tick_calls", "count"},
	{"sim.access_calls", "count"},
	{"sim.nextevent_calls", "count"},
	{"sim.uops_per_s", "1/s"},
	{"sim.uops_per_s.stride", "1/s"},
	{"sim.uops_per_s.cdp", "1/s"},
	{"sim.uops_per_s.markov", "1/s"},
	{"sim.uops_per_s.pangloss", "1/s"},
	{"sim.uops_per_s.bestoffset", "1/s"},
	{"experiments.fig1.sims_per_s", "1/s"},
	{"experiments.table2.sims_per_s", "1/s"},
	{"experiments.fig4.sims_per_s", "1/s"},
	{"experiments.fig7.sims_per_s", "1/s"},
	{"experiments.fig8.sims_per_s", "1/s"},
	{"experiments.fig9.sims_per_s", "1/s"},
	{"experiments.limit.sims_per_s", "1/s"},
	{"experiments.fig10.sims_per_s", "1/s"},
	{"experiments.fig11.sims_per_s", "1/s"},
	{"experiments.tlb.sims_per_s", "1/s"},
	{"sim.allocs_per_sim", "count"},
	{"sim.alloc_mb_per_sim", "MB"},
	{"gc.cycles", "count"},
	{"gc.cpu_fraction", "ratio"},
	{"cache.l2_misses", "count"},
	{"tlb.walks", "count"},
	{"core.lines_scanned", "count"},
	{"prefetch.issued", "count"},
	{"prefetch.useful_ratio", "ratio"},
	{"bus.prefetch_dropped", "count"},
	{"cluster.coordinator_p50_ms", "ms"},
	{"cluster.coordinator_tail_ms", "ms"},
	{"api.worker_p50_ms", "ms"},
	{"api.worker_tail_ms", "ms"},
	{"client.net_p50_ms", "ms"},
	{"client.hit_p50_ms", "ms"},
	{"client.miss_p50_ms", "ms"},
	{"client.miss_tail_ms", "ms"},
	{"simcache.lookup_p50_ms", "ms"},
	{"jobq.queue_wait_p50_ms", "ms"},
	{"jobq.queue_wait_p99_ms", "ms"},
	{"sim.run_p50_ms", "ms"},
	{"sim.run_p99_ms", "ms"},
	{"simcache.hit_ratio", "ratio"},
	{"simcache.collapsed", "count"},
	{"cluster.journal_writes", "count"},
	{"cluster.journal_write_errors", "count"},
	{"simcache.spill_writes", "count"},
	{"simcache.spill_errors", "count"},
	{"api.checkpoint_writes", "count"},
	{"api.checkpoint_write_errors", "count"},
	{"cluster.steals", "count"},
	{"cluster.hedges", "count"},
	{"jobq.failed", "count"},
	{"trace.spans", "count"},
	{"trace.samples", "count"},
	{"trace.overhead_pct", "%"},
}

// metricName is the character set BENCHMARK.json allows in a name.
var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func isDeclared(list []declaredMetric, name string) bool {
	for _, d := range list {
		if d.name == name {
			return true
		}
	}
	return false
}
