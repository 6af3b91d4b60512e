package api

import (
	"fmt"
	"io"
	"strconv"
	"sync/atomic"
	"time"
)

// histogram is a fixed-bucket, lock-free latency histogram in the
// Prometheus cumulative style. Observations and scrapes only use atomics,
// so it can sit on the request path. The sum is kept in integer
// nanoseconds to stay atomically addable; the exposition converts to
// seconds.
type histogram struct {
	bounds []float64 // bucket upper bounds in seconds, ascending
	counts []atomic.Uint64
	sumNs  atomic.Int64
	count  atomic.Uint64
}

// latencyBuckets spans sub-millisecond cache probes to multi-minute
// simulations; the same scale serves all three cdpd latency series so
// dashboards can overlay them.
var latencyBuckets = []float64{0.001, 0.005, 0.025, 0.1, 0.5, 2.5, 10, 60}

func newHistogram(bounds []float64) *histogram {
	return &histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds))}
}

// Observe records one duration.
func (h *histogram) Observe(d time.Duration) {
	s := d.Seconds()
	for i, b := range h.bounds {
		if s <= b {
			h.counts[i].Add(1)
			break
		}
	}
	h.sumNs.Add(d.Nanoseconds())
	h.count.Add(1)
}

// write emits the histogram in the text exposition format: cumulative
// _bucket series with le labels (ending at +Inf), then _sum and _count.
func (h *histogram) write(w io.Writer, name, help string) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
	var cum uint64
	for i, b := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, formatBound(b), cum)
	}
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, h.count.Load())
	fmt.Fprintf(w, "%s_sum %g\n", name, float64(h.sumNs.Load())/1e9)
	fmt.Fprintf(w, "%s_count %d\n", name, h.count.Load())
}

// formatBound renders a bucket bound the way Prometheus does: shortest
// representation, no exponent for these magnitudes.
func formatBound(b float64) string {
	return strconv.FormatFloat(b, 'g', -1, 64)
}

// HistogramSnapshot is a point-in-time copy of one latency histogram, the
// in-process analogue of scraping /metrics: cumulative-free per-bucket
// counts plus sum and count. perfbench's cdpd-cluster workload and the
// cluster tests read these to set server-observed latency beside what the
// client measured, without an HTTP round trip perturbing it.
type HistogramSnapshot struct {
	// Bounds are bucket upper limits in seconds, ascending; Counts[i] is
	// the observations at or below Bounds[i] and above Bounds[i-1]. An
	// implicit +Inf bucket holds Count minus the sum of Counts.
	Bounds  []float64
	Counts  []uint64
	SumSecs float64
	Count   uint64
}

// snapshot copies the histogram's atomics. Concurrent Observe calls may
// land between loads, so the snapshot is consistent only to within the
// traffic in flight at the instant of the call — fine for readers that
// snapshot quiesced servers.
func (h *histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds:  append([]float64(nil), h.bounds...),
		Counts:  make([]uint64, len(h.bounds)),
		SumSecs: float64(h.sumNs.Load()) / 1e9,
		Count:   h.count.Load(),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// Merge accumulates another snapshot with identical bounds into this one,
// aggregating per-worker histograms into a cluster-wide view.
func (s *HistogramSnapshot) Merge(o HistogramSnapshot) error {
	if len(o.Bounds) != len(s.Bounds) {
		return fmt.Errorf("histogram merge: %d buckets vs %d", len(o.Bounds), len(s.Bounds))
	}
	for i := range s.Counts {
		s.Counts[i] += o.Counts[i]
	}
	s.SumSecs += o.SumSecs
	s.Count += o.Count
	return nil
}

// Quantile estimates the q-th quantile (0 < q <= 1) in seconds by linear
// interpolation within the holding bucket, the same estimate PromQL's
// histogram_quantile gives. Observations beyond the last bound clamp to
// it. Returns 0 when the histogram is empty.
func (s *HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	rank := q * float64(s.Count)
	var cum uint64
	for i, c := range s.Counts {
		prev := cum
		cum += c
		if float64(cum) >= rank {
			lo := 0.0
			if i > 0 {
				lo = s.Bounds[i-1]
			}
			hi := s.Bounds[i]
			if c == 0 {
				return hi
			}
			return lo + (hi-lo)*(rank-float64(prev))/float64(c)
		}
	}
	// Rank falls in the +Inf bucket: the best bounded estimate is the
	// largest finite bound.
	return s.Bounds[len(s.Bounds)-1]
}

// LatencySnapshots exports the server's request-path histograms by their
// /metrics series names (without the _seconds suffix).
func (s *Server) LatencySnapshots() map[string]HistogramSnapshot {
	return map[string]HistogramSnapshot{
		"cdpd_queue_wait":   s.queueWait.snapshot(),
		"cdpd_run_duration": s.runDur.snapshot(),
		"cdpd_cache_lookup": s.cacheLookup.snapshot(),
	}
}
