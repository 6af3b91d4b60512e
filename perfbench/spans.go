package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one operation
// share an ID; Parent names the enclosing span's layer.
type span struct {
	Name    string `json:"name"`
	ID      string `json:"id"`
	Parent  string `json:"parent,omitempty"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// spanLog keeps spans in memory until the run ends.
type spanLog struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span // simlint:guardedby mu
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

func (l *spanLog) add(name, id, parent string, start, end time.Time) {
	l.mu.Lock()
	l.spans = append(l.spans, span{name, id, parent, start.Sub(l.t0).Nanoseconds(), end.Sub(l.t0).Nanoseconds()})
	l.mu.Unlock()
}

// write stores the spans as a JSON array under scratchDir and
// notes the file in the report.
func (l *spanLog) write(o *options, r *report) error {
	l.mu.Lock()
	data, err := json.Marshal(l.spans)
	n := len(l.spans)
	l.mu.Unlock()
	if err != nil {
		return err
	}
	path := filepath.Join(scratchDir, fmt.Sprintf("spans-%s-seed%d.json", o.workload, o.seed))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	r.notef("spans: %d written to %s", n, path)
	r.set("trace.spans", float64(n), "count")
	return nil
}

// memSnap is the allocation and GC state at one instant.
type memSnap struct {
	mallocs, totalAlloc uint64
	numGC               uint32
	gcCPU, totalCPU     float64
}

var cpuMetrics = []string{"/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/total:cpu-seconds"}

func readMem() memSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	samples := make([]metrics.Sample, len(cpuMetrics))
	for i, name := range cpuMetrics {
		samples[i].Name = name
	}
	metrics.Read(samples)
	return memSnap{
		mallocs:    ms.Mallocs,
		totalAlloc: ms.TotalAlloc,
		numGC:      ms.NumGC,
		gcCPU:      samples[0].Value.Float64(),
		totalCPU:   samples[1].Value.Float64(),
	}
}

// memDelta is what happened between two snapshots.
type memDelta struct {
	mallocs, allocBytes, gcCycles float64
	gcCPU, totalCPU               float64
}

func (a memSnap) to(b memSnap) memDelta {
	return memDelta{
		mallocs:    float64(b.mallocs - a.mallocs),
		allocBytes: float64(b.totalAlloc - a.totalAlloc),
		gcCycles:   float64(b.numGC - a.numGC),
		gcCPU:      b.gcCPU - a.gcCPU,
		totalCPU:   b.totalCPU - a.totalCPU,
	}
}

// setAllocMetrics reports per-sim allocation and GC cost over the given
// windows, each covering sims simulations.
func setAllocMetrics(r *report, windows []memDelta, sims []float64) {
	var allocs, mb, gcs, frac []float64
	for i, w := range windows {
		if sims[i] == 0 {
			continue
		}
		allocs = append(allocs, w.mallocs/sims[i])
		mb = append(mb, w.allocBytes/sims[i]/1e6)
		gcs = append(gcs, w.gcCycles)
		if w.totalCPU > 0 {
			frac = append(frac, w.gcCPU/w.totalCPU)
		}
	}
	r.set("sim.allocs_per_sim", median(allocs), "count")
	r.set("sim.alloc_mb_per_sim", median(mb), "MB")
	r.set("gc.cycles", median(gcs), "count")
	r.set("gc.cpu_fraction", median(frac), "ratio")
}
