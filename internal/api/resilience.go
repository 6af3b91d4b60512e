package api

import (
	"io"
	"log/slog"
	"net/http"
	"sync/atomic"

	"repro/internal/faultinject"
)

// Options tunes the server's resilience layer. The zero value persists
// nothing and leaves submissions unsegmented.
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

	// Logger receives request-scoped structured logs (job lifecycle with
	// job ID, content key, queue wait, simulation duration). Nil discards.
	Logger *slog.Logger
}

const (
	// shedWatermark is the queued-depth fraction of queue capacity at or
	// beyond which below-normal-priority submissions (priority < 0) are
	// rejected with 429 before spending a slot.
	shedWatermark = 0.75
	// overloadWatermark is the fraction at or beyond which /readyz answers
	// 503 so load balancers steer new work elsewhere while queued jobs
	// drain. Shedding is the earlier defense.
	overloadWatermark = 0.90
)

// shedLowPriority reports whether a submission at the given priority
// should be rejected before reaching the queue. Only below-normal
// priorities are sheddable: the watermark protects the queue's remaining
// slots for work someone is waiting on.
func (s *Server) shedLowPriority(priority int) bool {
	if priority >= 0 {
		return false
	}
	st := s.queue.Stats()
	return float64(st.Depth) >= shedWatermark*float64(st.Capacity)
}

// overloaded reports whether queued depth has crossed the readiness
// watermark.
func (s *Server) overloaded() bool {
	st := s.queue.Stats()
	return float64(st.Depth) >= overloadWatermark*float64(st.Capacity)
}

// writeShed is the 429 for load-shed submissions, with writeBackpressure's
// Retry-After so clients treat both identically.
func (s *Server) writeShed(w http.ResponseWriter) {
	s.shedTotal.Add(1)
	st := s.queue.Stats()
	retry := setRetryAfter(w, st.Depth)
	writeError(w, http.StatusTooManyRequests,
		"load shedding low-priority work (queue %.0f%% full), retry in ~%ds",
		100*float64(st.Depth)/float64(st.Capacity), retry)
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
}
