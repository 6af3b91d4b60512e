package api

import (
	"io"
	"log/slog"
	"math"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/faultinject"
)

// Options tunes the server's resilience layer. The zero value reproduces
// the pre-resilience behaviour: no checkpoint persistence, watermark
// defaults, no adaptive deadlines.
type Options struct {
	// CheckpointDir, when set, persists each running simulation's latest
	// boundary snapshot, which every local run of the same job resumes
	// from: one RecoverJobs resubmitted, or one a dead cluster peer sharing
	// the directory had in flight. Empty disables snapshots. Request
	// records go where RecoverJobs points.
	CheckpointDir string

	// CheckpointEveryOps is the default segmentation interval applied to
	// submitted simulations that do not choose their own. 0 leaves
	// submissions unsegmented unless the request asks.
	CheckpointEveryOps int

	// ShedWatermark is the queued-depth fraction of queue capacity at or
	// beyond which below-normal-priority submissions (priority < 0) are
	// rejected with 429 before spending a slot. 0 defaults to 0.75.
	ShedWatermark float64

	// OverloadWatermark is the fraction at or beyond which /readyz answers
	// 503 so load balancers steer new work elsewhere while queued jobs
	// drain. 0 defaults to 0.90.
	OverloadWatermark float64

	// AdaptiveTimeout derives a per-job deadline for each simulation from
	// the observed throughput of completed ones, so one wedged run cannot
	// hold a worker forever while leaving slow-but-honest configurations
	// alone.
	AdaptiveTimeout bool

	// Logger receives request-scoped structured logs (job lifecycle with
	// job ID, content key, queue wait, simulation duration). Nil discards.
	Logger *slog.Logger
}

const (
	defaultShedWatermark     = 0.75
	defaultOverloadWatermark = 0.90

	// Adaptive deadlines are headroom × EWMA ns-per-µop × ops, clamped so
	// a lucky cache-warm measurement cannot produce a hair-trigger
	// deadline and an unlucky one cannot disable the guard.
	adaptiveHeadroom   = 8
	adaptiveEWMAAlpha  = 0.3
	adaptiveMinTimeout = time.Second
	adaptiveMaxTimeout = 10 * time.Minute
)

func (o Options) shedWatermark() float64 {
	if o.ShedWatermark > 0 {
		return o.ShedWatermark
	}
	return defaultShedWatermark
}

func (o Options) overloadWatermark() float64 {
	if o.OverloadWatermark > 0 {
		return o.OverloadWatermark
	}
	return defaultOverloadWatermark
}

// shedLowPriority reports whether a submission at the given priority
// should be rejected before reaching the queue. Only below-normal
// priorities are sheddable: the watermark protects the queue's remaining
// slots for work someone is waiting on.
func (s *Server) shedLowPriority(priority int) bool {
	if priority >= 0 {
		return false
	}
	st := s.queue.Stats()
	return float64(st.Depth) >= s.opts.shedWatermark()*float64(st.Capacity)
}

// overloaded reports whether queued depth has crossed the readiness
// watermark.
func (s *Server) overloaded() bool {
	st := s.queue.Stats()
	return float64(st.Depth) >= s.opts.overloadWatermark()*float64(st.Capacity)
}

// writeShed is the 429 for load-shed submissions; the Retry-After mirrors
// writeBackpressure so clients treat both identically.
func (s *Server) writeShed(w http.ResponseWriter) {
	s.shedTotal.Add(1)
	st := s.queue.Stats()
	retry := st.Depth
	if retry < 1 {
		retry = 1
	}
	if retry > 30 {
		retry = 30
	}
	w.Header().Set("Retry-After", strconv.Itoa(retry))
	writeError(w, http.StatusTooManyRequests,
		"load shedding low-priority work (queue %.0f%% full), retry in ~%ds",
		100*float64(st.Depth)/float64(st.Capacity), retry)
}

// observeSimRate folds one completed simulation into the EWMA of
// nanoseconds per µop that adaptive deadlines are derived from.
func (s *Server) observeSimRate(elapsed time.Duration, ops int) {
	if ops <= 0 || elapsed <= 0 {
		return
	}
	rate := float64(elapsed.Nanoseconds()) / float64(ops)
	for {
		old := s.ewmaNsPerOp.Load()
		prev := math.Float64frombits(old)
		next := rate
		if old != 0 {
			next = (1-adaptiveEWMAAlpha)*prev + adaptiveEWMAAlpha*rate
		}
		if s.ewmaNsPerOp.CompareAndSwap(old, math.Float64bits(next)) {
			return
		}
	}
}

// adaptiveTimeout predicts a per-job deadline for an ops-sized simulation.
// It returns 0 (no per-job deadline; the queue-wide default applies) when
// adaptive deadlines are disabled or nothing has completed yet.
func (s *Server) adaptiveTimeout(ops int) time.Duration {
	if !s.opts.AdaptiveTimeout {
		return 0
	}
	bits := s.ewmaNsPerOp.Load()
	if bits == 0 {
		return 0
	}
	d := time.Duration(adaptiveHeadroom * math.Float64frombits(bits) * float64(ops))
	if d < adaptiveMinTimeout {
		return adaptiveMinTimeout
	}
	if d > adaptiveMaxTimeout {
		return adaptiveMaxTimeout
	}
	return d
}

// injectRespondFaults drives the two response-path fault points:
// api.respond.latency stalls before the body is written (a slow or
// head-of-line-blocked server) and api.respond.partialwrite emits a
// truncated body and aborts the connection (a server dying mid-response).
// Clients must treat both as retryable.
func injectRespondFaults(w http.ResponseWriter, r *http.Request) {
	_ = faultinject.Sleep(r.Context(), "api.respond.latency")
	if faultinject.Should("api.respond.partialwrite") {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		_, _ = io.WriteString(w, `{"cached":`)
		if f, ok := w.(http.Flusher); ok {
			f.Flush()
		}
		panic(http.ErrAbortHandler)
	}
}

// counters groups the resilience-layer telemetry exported by /metrics.
type counters struct {
	shedTotal     atomic.Uint64
	ckptWrites    atomic.Uint64
	ckptWriteErrs atomic.Uint64
	resumedJobs   atomic.Uint64
	// ewmaNsPerOp stores math.Float64bits of the throughput EWMA; 0 means
	// "no observation yet".
	ewmaNsPerOp atomic.Uint64
}
