package api

import (
	"fmt"
	"math"
	"net/http"
	"runtime"
	"time"

	"repro/internal/benchio"
	"repro/internal/sim"
	"repro/internal/simcache"
)

// handleMetrics is GET /metrics in the Prometheus text exposition format:
// queue occupancy, cache effectiveness, simulator throughput since the
// server started, and process memory.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	qs := s.queue.Stats()
	cs := s.cache.Stats()
	sims := sim.Runs() - s.startSims
	uptime := time.Since(s.started).Seconds()
	simsPerSec := 0.0
	if uptime > 0 {
		simsPerSec = float64(sims) / uptime
	}
	hitRate := 0.0
	if lookups := cs.Hits + cs.Misses; lookups > 0 {
		hitRate = float64(cs.Hits) / float64(lookups)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	p := func(name, help, typ string, v any) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s %v\n", name, help, name, typ, name, v)
	}
	p("cdpd_queue_depth", "Jobs queued and waiting for a worker.", "gauge", qs.Depth)
	p("cdpd_queue_capacity", "Maximum queued jobs before 429s.", "gauge", qs.Capacity)
	p("cdpd_workers", "Fixed worker pool size.", "gauge", qs.Workers)
	p("cdpd_jobs_running", "Jobs currently executing.", "gauge", qs.Running)
	p("cdpd_worker_utilization", "Fraction of workers busy.", "gauge",
		float64(qs.Running)/float64(qs.Workers))
	p("cdpd_jobs_completed_total", "Jobs finished successfully.", "counter", qs.Completed)
	p("cdpd_jobs_failed_total", "Jobs that returned an error or panicked.", "counter", qs.Failed)
	p("cdpd_jobs_canceled_total", "Jobs canceled before or while running.", "counter", qs.Canceled)

	p("cdpd_cache_hits_total", "Result-cache lookups served from a resident entry.", "counter", cs.Hits)
	p("cdpd_cache_misses_total", "Result-cache lookups that computed.", "counter", cs.Misses)
	p("cdpd_cache_collapsed_total", "Lookups that joined an in-flight computation.", "counter", cs.Collapsed)
	p("cdpd_cache_evictions_total", "Entries evicted by the byte bound.", "counter", cs.Evictions)
	p("cdpd_cache_entries", "Resident cache entries.", "gauge", cs.Entries)
	p("cdpd_cache_bytes", "Resident cache payload bytes.", "gauge", cs.Bytes)
	p("cdpd_cache_max_bytes", "Cache byte bound.", "gauge", cs.MaxBytes)
	p("cdpd_cache_hit_rate", "Hits over hits+misses since start.", "gauge", hitRate)

	// The colder cache tiers exist only when the server was built around a
	// tiered cache (cluster workers, or a standalone daemon with
	// -cache-dir); a plain in-memory cache exports nothing here.
	if tc, ok := s.cache.(interface{ TierStats() simcache.TierStats }); ok {
		ts := tc.TierStats()
		p("cdpd_cache_disk_hits_total", "Result-cache lookups served from the disk spill tier.", "counter", ts.DiskHits)
		p("cdpd_cache_disk_misses_total", "Disk-tier probes that found no entry.", "counter", ts.DiskMisses)
		p("cdpd_cache_spill_writes_total", "Results persisted to the disk spill tier.", "counter", ts.SpillWrites)
		p("cdpd_cache_spill_errors_total", "Disk spills that failed (result still served).", "counter", ts.SpillErrors)
		p("cdpd_cache_disk_quarantined_total", "Torn or corrupt disk-tier entries renamed aside and treated as misses.", "counter", ts.DiskQuarantines)
		p("cdpd_cache_peer_hits_total", "Result-cache lookups served by a cluster peer.", "counter", ts.PeerHits)
		p("cdpd_cache_peer_misses_total", "Peer-tier probes no peer could serve.", "counter", ts.PeerMisses)
	}

	p("cdpd_sims_total", "Simulations completed since the server started.", "counter", sims)
	p("cdpd_sims_per_second", "Simulation throughput since start.", "gauge", simsPerSec)
	p("cdpd_uptime_seconds", "Seconds since the server started.", "gauge", uptime)

	overloaded := 0
	if s.overloaded() {
		overloaded = 1
	}
	p("cdpd_shed_total", "Low-priority submissions rejected at the shed watermark.", "counter",
		s.shedTotal.Load())
	p("cdpd_overloaded", "1 while queued depth exceeds the readiness watermark.", "gauge", overloaded)
	p("cdpd_checkpoint_writes_total", "Boundary snapshots persisted to the checkpoint store.", "counter",
		s.ckptWrites.Load())
	p("cdpd_checkpoint_write_errors_total", "Snapshot or request persists that failed.", "counter",
		s.ckptWriteErrs.Load())
	p("cdpd_jobs_resumed_total", "Jobs resumed from a persisted snapshot after restart.", "counter",
		s.resumedJobs.Load())
	p("cdpd_sim_ns_per_op_ewma", "Smoothed simulation cost in ns per µop (0 until first completion).", "gauge",
		math.Float64frombits(s.ewmaNsPerOp.Load()))

	s.queueWait.write(w, "cdpd_queue_wait_seconds",
		"Time from submission accepted to the job function starting.")
	s.runDur.write(w, "cdpd_run_duration_seconds",
		"One simulation end to end, checkpoint generation included.")
	s.cacheLookup.write(w, "cdpd_cache_lookup_seconds",
		"Result-cache probe latency on the submit path.")

	p("cdpd_goroutines", "Live goroutines.", "gauge", runtime.NumGoroutine())
	p("cdpd_heap_alloc_bytes", "Bytes of allocated heap objects.", "gauge", ms.HeapAlloc)
	p("cdpd_heap_sys_bytes", "Heap memory obtained from the OS.", "gauge", ms.HeapSys)
	p("cdpd_gc_total", "Completed GC cycles.", "counter", ms.NumGC)
	peakRSS, _ := benchio.PeakRSS() // 0 when unavailable, as the help says
	p("cdpd_peak_rss_kb", "Peak resident set size in KiB (0 when unavailable).", "gauge", peakRSS)

	// The conventional always-1 info gauge: labels carry the identity, so
	// dashboards can join any series against the toolchain that produced
	// it.
	fmt.Fprintf(w, "# HELP cdpd_build_info Build identity; value is always 1.\n"+
		"# TYPE cdpd_build_info gauge\n"+
		"cdpd_build_info{go_version=%q} 1\n",
		runtime.Version())
}
