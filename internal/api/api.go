// Package api exposes the simulator as an HTTP service (cmd/cdpd). Three
// layers cooperate: handlers validate and shape requests, internal/jobq
// bounds and schedules the work, and internal/simcache deduplicates it —
// an identical (benchmark, config, ops) request is served from cache, and
// concurrent identical submissions collapse into one simulation.
//
// Endpoints:
//
//	POST   /v1/sim               submit a simulation (?wait=1 blocks for the result)
//	GET    /v1/jobs/{id}         poll a job
//	GET    /v1/jobs/{id}/stream  NDJSON progress stream until terminal
//	DELETE /v1/jobs/{id}         cancel a job, or drop a failed one's request record
//	GET    /v1/experiments/{id}  run a registered experiment as a job
//	GET    /v1/arena             sweep every prefetcher engine over a benchmark set
//	GET    /v1/engines           list the registered prefetcher zoo
//	GET    /healthz              liveness
//	GET    /readyz               readiness (503 while draining or overloaded)
//	GET    /metrics              Prometheus-style text metrics
package api

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/faultinject"
	"repro/internal/jobq"
	"repro/internal/sim"
	"repro/internal/simcache"
	"repro/internal/simtrace"
	"repro/internal/trace"
	"repro/internal/workloads"
)

const (
	// traceRingCap bounds the event ring of a traced job; overflow drops
	// the oldest events and is recorded in the exported trace metadata.
	traceRingCap = 1 << 18
	// maxStoredTraces bounds how many finished traces the daemon retains.
	maxStoredTraces = 16
)

// RetryBudgetHeader carries a client's remaining retry budget on a submit.
// The cluster coordinator caps its own placements (the first, and one
// after each steal) by it, so a client that keeps retrying and a
// coordinator that keeps re-placing cannot multiply each other's work
// unboundedly.
const RetryBudgetHeader = "X-Cdpd-Retry-Budget"

// Router places one resolved simulation on another process, one placement
// at a time, and returns its result bytes and whether they were served from
// a cache there. id and key are the content-keyed job ID and cache key the
// request resolved to, and budget caps the placements (one more than the
// client's RetryBudgetHeader, or math.MaxInt without one; the router
// applies its own ceiling). The cluster coordinator supplies one through
// NewRouted.
//
// The Server calls a Router only from fill, inside the result cache's
// GetOrCompute, so at most one call per content key (and so per job ID) is
// in flight at a time: a Router may keep per-job state without counting
// concurrent calls.
type Router func(ctx context.Context, id string, key simcache.Key, req SimRequest, budget int) ([]byte, bool, error)

// ErrNoWorkers is what a Router returns, wrapped, when it has nowhere to
// place a job; a waiting client is answered 503 rather than 500.
var ErrNoWorkers = errors.New("no live workers")

// ResultCache is the slice of the result cache the handlers use. Both the
// plain in-memory simcache.Cache and the cluster's simcache.TieredCache
// (mem → disk spill → peer fetch) satisfy it, which is how a worker joins
// the shared content-addressed tier without the handlers changing: the
// tiered cache's GetOrCompute probes the colder tiers before compute runs.
type ResultCache interface {
	Get(k simcache.Key) ([]byte, bool)
	GetOrCompute(k simcache.Key, compute func() ([]byte, error)) ([]byte, bool, error)
	Stats() simcache.Stats
}

// Server wires the handlers to a queue, a cache and an executor. Every
// role probes and fills the cache the same way; the executor decides only
// where a miss runs. Construct with New or NewWithOptions for the local
// executor, which simulates in this process, or with NewRouted for the
// routed one, which places every miss through a Router.
type Server struct {
	queue    *jobq.Queue
	cache    ResultCache
	mux      *http.ServeMux
	draining atomic.Bool
	opts     Options
	store    *ckptStore // snapshots; nil unless Options.CheckpointDir is set
	records  *ckptStore // request records; nil until RecoverJobs opens one
	counters

	// route is nil for the local executor. routeCtx bounds the placements
	// the routed executor runs in the background.
	route    Router
	routeCtx context.Context

	logger *slog.Logger
	traces *traceStore

	// Request-path latency histograms exported by /metrics.
	queueWait   *histogram // submit accepted -> job function starts
	runDur      *histogram // one simulation, checkpoint generation included
	cacheLookup *histogram // result-cache probe on the submit path

	started   time.Time
	startSims uint64
}

// New builds a server around an already-running queue and cache with the
// default (zero) resilience options.
func New(q *jobq.Queue, c ResultCache) *Server {
	s, err := NewWithOptions(q, c, Options{})
	if err != nil {
		// Only the checkpoint store can fail, and Options{} has none.
		panic(err)
	}
	return s
}

// NewWithOptions builds a server with an explicit resilience
// configuration. It fails only when the checkpoint directory cannot be
// created.
func NewWithOptions(q *jobq.Queue, c ResultCache, opts Options) (*Server, error) {
	s := &Server{
		queue:       q,
		cache:       c,
		mux:         http.NewServeMux(),
		opts:        opts,
		logger:      opts.Logger,
		traces:      newTraceStore(maxStoredTraces),
		queueWait:   newHistogram(latencyBuckets),
		runDur:      newHistogram(latencyBuckets),
		cacheLookup: newHistogram(latencyBuckets),
		started:     time.Now(),
		startSims:   sim.Runs(),
	}
	if s.logger == nil {
		s.logger = slog.New(slog.DiscardHandler)
	}
	if opts.CheckpointDir != "" {
		store, err := newCkptStore(opts.CheckpointDir)
		if err != nil {
			return nil, err
		}
		s.store = store
	}
	s.mux.HandleFunc("POST /v1/sim", s.handleSubmitSim)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobGet)
	s.mux.HandleFunc("GET /v1/jobs/{id}/stream", s.handleJobStream)
	s.mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleJobTrace)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleJobCancel)
	s.mux.HandleFunc("GET /v1/experiments/{id}", s.handleExperiment)
	s.mux.HandleFunc("GET /v1/arena", s.handleArena)
	s.mux.HandleFunc("GET /v1/engines", s.handleEngines)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s, nil
}

// NewRouted builds a server whose executor places every cache miss through
// route: a POST /v1/sim that c cannot answer becomes a slotless external
// job in q whose placement runs in the background under ctx, and an arena
// keeps up to arenaFanout cells in flight. c caches what the placements
// return beside assembled reports: results are content-addressed and
// immutable, so this copy cannot go stale.
func NewRouted(ctx context.Context, q *jobq.Queue, c ResultCache, opts Options, route Router) (*Server, error) {
	s, err := NewWithOptions(q, c, opts)
	if err != nil {
		return nil, err
	}
	s.route, s.routeCtx = route, ctx
	return s, nil
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// SetDraining flips readiness; a draining server answers /readyz with 503
// so load balancers stop routing to it while in-flight jobs finish.
func (s *Server) SetDraining(v bool) { s.draining.Store(v) }

// jobPayload is what sim, arena and experiment jobs store as their jobq
// value, routed ones included, so every polling and streaming client sees
// one shape.
type jobPayload struct {
	data   []byte
	cached bool // true when served from a resident simcache entry
}

// envelope is the terminal response shape for results.
type envelope struct {
	Cached bool            `json:"cached"`
	Result json.RawMessage `json:"result"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// writeBackpressure maps ErrQueueFull to 429 with a Retry-After estimate
// proportional to the backlog and ErrShuttingDown to 503.
func (s *Server) writeBackpressure(w http.ResponseWriter, err error) {
	if errors.Is(err, jobq.ErrShuttingDown) {
		writeError(w, http.StatusServiceUnavailable, "shutting down")
		return
	}
	retry := setRetryAfter(w, s.queue.Stats().Depth)
	writeError(w, http.StatusTooManyRequests, "queue full, retry in ~%ds", retry)
}

// setRetryAfter sets Retry-After to one second per queued job, clamped to
// [1s, 30s], and returns it, so a full queue and a shed answer alike.
func setRetryAfter(w http.ResponseWriter, depth int) int {
	retry := min(max(depth, 1), 30)
	w.Header().Set("Retry-After", strconv.Itoa(retry))
	return retry
}

// handleSubmitSim is POST /v1/sim: validate, answer from the result cache
// on every role, and hand a miss to the executor. A hit creates no job and
// reaches no other process. The local executor also sheds low priorities
// before it spends a queue slot.
func (s *Server) handleSubmitSim(w http.ResponseWriter, r *http.Request) {
	var req SimRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	c, err := resolve(s.stamp(req))
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	lookupStart := time.Now()
	data, hit := s.cache.Get(c.key)
	s.cacheLookup.Observe(time.Since(lookupStart))
	if hit {
		s.logger.Info("sim served from cache",
			"content_key", c.key.String(), "benchmark", req.Benchmark)
		injectRespondFaults(w, r)
		writeJSON(w, http.StatusOK, envelope{Cached: true, Result: data})
		return
	}
	if s.route == nil && s.shedLowPriority(req.Priority) {
		s.writeShed(w)
		return
	}
	job, err := s.submit(c, retryBudget(r))
	if errors.Is(err, jobq.ErrDuplicateID) {
		// The same request is already queued or running; attach to it
		// instead of spending another slot.
		if j, ok := s.queue.Get(c.id); ok {
			s.respondJob(w, r, req.Wait, j)
			return
		}
	}
	if err != nil {
		s.writeBackpressure(w, err)
		return
	}
	s.respondJob(w, r, req.Wait, job)
}

// retryBudget is the placement-attempt budget a submission grants a
// Router: one more than the client's remaining retries when it sends
// RetryBudgetHeader, so that client retries and placements cannot
// multiply unboundedly; without one, math.MaxInt leaves the Router's own
// ceiling.
func retryBudget(r *http.Request) int {
	if n, err := strconv.Atoi(r.Header.Get(RetryBudgetHeader)); err == nil && n >= 0 && n < math.MaxInt {
		return n + 1
	}
	return math.MaxInt
}

// submit registers c on the executor, a queued local simulation or a
// slotless external job whose placement runs in the background, and
// records it for RecoverJobs.
func (s *Server) submit(c simCall, budget int) (*jobq.Job, error) {
	if s.route != nil {
		job, err := s.queue.SubmitExternal(c.id, c.req.Priority)
		if err == nil {
			s.record(c)
			go s.forward(job, c, budget)
		}
		return job, err
	}
	recorded := make(chan struct{}) // closed once the record below is written
	job, err := s.queue.Submit(c.id, c.req.Priority, s.simJob(c, time.Now(), c.req.Trace, recorded))
	if err != nil {
		return nil, err
	}
	s.record(c)
	close(recorded)
	return job, nil
}

// record writes c's defaulted request as its request record, once
// RecoverJobs has opened a record directory, so a restarted process can
// rebuild this exact job (same content key, same ID) and resume it. A
// failed write costs only that recovery.
func (s *Server) record(c simCall) {
	if err := s.records.saveRequest(c.id, c.req); err != nil {
		s.ckptWriteErrs.Add(1)
	}
}

// clear deletes id's request record and snapshot: its simulation succeeded
// or a client canceled it.
func (s *Server) clear(id string) {
	s.records.removeRequest(id)
	s.store.removeSnapshot(id)
}

// forward drives one routed job to its terminal state. A successful
// placement fills the result cache before the job completes, so a client
// that sees it done and asks again is answered here. Canceling the job, or
// the server's routing context, abandons the placement.
func (s *Server) forward(job *jobq.Job, c simCall, budget int) {
	ctx, cancel := context.WithCancel(s.routeCtx)
	defer cancel()
	go func() {
		select {
		case <-job.Done():
			cancel()
		case <-ctx.Done():
		}
	}()
	data, cached, err := s.fill(ctx, job, c, false, budget)
	if err != nil {
		s.queue.CompleteExternal(c.id, nil, err)
		return
	}
	s.clear(c.id)
	s.queue.CompleteExternal(c.id, jobPayload{data: data, cached: cached}, nil)
}

// fill answers c from the result cache, or runs it where the executor runs
// a miss and caches the result: the one cache path of a sim job, a routed
// placement and an arena cell, on every role. Concurrent identical calls
// collapse onto one miss, and a failed miss is never cached. cached reports
// a hit here or, for a routed miss, in the tiers of the process that served
// it.
//
// j is the job c runs for. A job was recorded when submit accepted it and
// is cleared when it succeeds. An arena cell has no job (j is nil), so its
// miss records c for as long as it runs, and a cell answered from the
// cache touches no file.
func (s *Server) fill(ctx context.Context, j *jobq.Job, c simCall, traced bool, budget int) ([]byte, bool, error) {
	var remote bool
	data, hit, err := s.cache.GetOrCompute(c.key, func() (data []byte, err error) {
		if j == nil {
			s.record(c)
		}
		if s.route == nil {
			data, err = s.compute(ctx, j, c, traced)
		} else {
			data, remote, err = s.route(ctx, c.id, c.key, c.req, budget)
		}
		if j == nil && err == nil {
			s.clear(c.id)
		}
		return data, err
	})
	return data, hit || remote, err
}

// simJob builds the job function for one local simulation. The cache fill
// happens inside the job so the queue, not the HTTP handler, pays for the
// simulation, and fill collapses concurrent identical keys into one run.
//
// submitted is when the request was accepted; the gap to the job function
// starting is the queue wait. traced asks for a simtrace ring (see
// compute).
//
// A successful job clears its request record and snapshot, but submit
// writes the record only after the job exists, so the job waits for
// recorded to close first; otherwise a job that beat the handler would
// leave its record behind to rerun at the next restart.
func (s *Server) simJob(c simCall, submitted time.Time, traced bool, recorded <-chan struct{}) jobq.Func {
	return func(ctx context.Context, j *jobq.Job) (any, error) {
		wait := time.Since(submitted)
		s.queueWait.Observe(wait)
		s.logger.Info("job started", "job_id", c.id, "content_key", c.key.String(),
			"benchmark", c.spec.Name, "queue_wait", wait, "ops", c.ops, "traced", traced)
		data, hit, err := s.fill(ctx, j, c, traced, math.MaxInt)
		if err != nil {
			return nil, err
		}
		select {
		case <-recorded:
		case <-ctx.Done():
		}
		s.clear(c.id)
		j.SetProgress("finished", 2, 2)
		return jobPayload{data: data, cached: hit}, nil
	}
}

// compute runs c's simulation in this process: the local executor's cache
// fill, for a sim job and an arena cell alike. A snapshot persisted under
// c's content-keyed ID, by a previous process or by a dead cluster peer
// sharing the checkpoint dir, lets the run pick up from its last boundary
// instead of µop zero. j, when not nil, receives progress. With traced
// set, a run that starts from µop zero carries a simtrace ring and the
// rendered Chrome trace is retained for GET /v1/jobs/{id}/trace.
func (s *Server) compute(ctx context.Context, j *jobq.Job, c simCall, traced bool) ([]byte, error) {
	log := s.logger.With("job_id", c.id, "content_key", c.key.String(), "benchmark", c.spec.Name)
	var resume *sim.Snapshot
	if c.cfg.CheckpointEveryOps > 0 {
		resume = s.store.loadSnapshot(c.id)
	}
	setProgress(j, "generating checkpoint", 0, 2)
	ck := workloads.Checkpoint(c.spec, c.ops)
	setProgress(j, "simulating", 1, 2)
	var tr *simtrace.Tracer
	if traced && resume == nil {
		tr = simtrace.New(traceRingCap)
	}
	start := time.Now()
	res, err := s.runSim(ctx, j, c.id, ck, c.cfg, resume, tr)
	dur := time.Since(start)
	if err != nil {
		log.Warn("simulation failed", "sim_duration", dur, "error", err)
		return nil, err
	}
	s.runDur.Observe(dur)
	log.Info("simulation finished", "sim_duration", dur,
		"cycles", res.Core.Cycles, "ipc", res.IPC())
	if tr != nil {
		s.storeTrace(c.id, tr, log)
	}
	return renderResult(c.spec.Name, c.ops, res)
}

// setProgress publishes progress on j; arena cells run without a job of
// their own.
func setProgress(j *jobq.Job, stage string, done, total int) {
	if j != nil {
		j.SetProgress(stage, done, total)
	}
}

// storeTrace renders the ring as Chrome trace_event JSON and retains it
// for the trace endpoint. Rendering failures only cost the trace, never
// the job.
func (s *Server) storeTrace(id string, tr *simtrace.Tracer, log *slog.Logger) {
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		log.Warn("trace render failed", "error", err)
		return
	}
	s.traces.put(id, buf.Bytes())
	log.Info("trace captured", "events", tr.Len(), "dropped", tr.Dropped(), "bytes", buf.Len())
}

// runSim executes one simulation, segmented when the configuration asks
// for checkpoints. Boundary snapshots are persisted best-effort: a failed
// write (disk full, injected ckpt.write.error) costs one boundary of
// resume granularity, never the run. A resume snapshot that does not
// restore is deleted and the run starts from µop zero; only a snapshot that
// restores counts in cdpd_jobs_resumed_total. A plain run observes
// cancellation only before it starts; a segmented one also at every
// boundary and once more before it completes, so a canceled run never
// counts in sim.Runs. A non-nil tracer records the run's event stream.
func (s *Server) runSim(ctx context.Context, j *jobq.Job, id string, ck *trace.Checkpoint, cfg sim.Config, resume *sim.Snapshot, tr *simtrace.Tracer) (*sim.Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if cfg.CheckpointEveryOps <= 0 {
		return sim.RunTraced(ck, cfg, tr), nil
	}
	sink := func(snap *sim.Snapshot) error {
		setProgress(j, "simulating", 1+snap.OpsFetched/cfg.CheckpointEveryOps, 0)
		if s.store != nil {
			if err := s.store.saveSnapshot(id, snap); err != nil {
				s.ckptWriteErrs.Add(1)
			} else {
				s.ckptWrites.Add(1)
			}
		}
		return nil
	}
	if resume != nil {
		res, err := sim.Resume(ctx, ck, cfg, resume, sink)
		if !errors.Is(err, sim.ErrRestore) {
			s.resumedJobs.Add(1)
			return res, err
		}
		// The snapshot, which only the store supplies, decoded but does
		// not fit this machine (a corrupt component payload, say).
		// Discard it so neither this run nor a later submission tries it
		// again, and start from µop zero.
		s.logger.Warn("snapshot does not restore; rerunning from µop zero", "job_id", id, "error", err)
		s.store.removeSnapshot(id)
	}
	return sim.RunCheckpointedTraced(ctx, ck, cfg, tr, sink)
}

// respondJob either acknowledges the job (202) or, when wait is requested,
// blocks until it is terminal and returns its result.
func (s *Server) respondJob(w http.ResponseWriter, r *http.Request, wait bool, job *jobq.Job) {
	if !wait && r.URL.Query().Get("wait") != "1" {
		writeJSON(w, http.StatusAccepted, map[string]string{
			"job_id": job.ID(),
			"status": "/v1/jobs/" + job.ID(),
			"stream": "/v1/jobs/" + job.ID() + "/stream",
		})
		return
	}
	select {
	case <-job.Done():
	case <-r.Context().Done():
		// Client gave up; the job keeps running for the next caller.
		return
	}
	v, err := job.Result()
	if err != nil {
		code := http.StatusInternalServerError
		switch {
		case errors.Is(err, jobq.ErrCanceled):
			code = http.StatusConflict
		case errors.Is(err, ErrNoWorkers):
			code = http.StatusServiceUnavailable
		}
		writeError(w, code, "%v", err)
		return
	}
	p := v.(jobPayload)
	injectRespondFaults(w, r)
	writeJSON(w, http.StatusOK, envelope{Cached: p.cached, Result: p.data})
}

// serveReport answers a request for a cacheable report (an arena sweep, an
// experiment): the resident bytes on a hit, else a queued job that fn
// computes them in, or the live job of the same ID, under the 202/?wait=1
// contract.
func (s *Server) serveReport(w http.ResponseWriter, r *http.Request, key simcache.Key, jobID string, priority int, fn jobq.Func) {
	if data, ok := s.cache.Get(key); ok {
		injectRespondFaults(w, r)
		writeJSON(w, http.StatusOK, envelope{Cached: true, Result: data})
		return
	}
	if s.shedLowPriority(priority) {
		s.writeShed(w)
		return
	}
	job, err := s.queue.Submit(jobID, priority, fn)
	if errors.Is(err, jobq.ErrDuplicateID) {
		if j, ok := s.queue.Get(jobID); ok {
			s.respondJob(w, r, false, j)
			return
		}
	}
	if err != nil {
		s.writeBackpressure(w, err)
		return
	}
	s.respondJob(w, r, false, job)
}

// jobView is the GET /v1/jobs/{id} response.
type jobView struct {
	JobID  string          `json:"job_id"`
	State  jobq.State      `json:"state"`
	Stage  string          `json:"stage,omitempty"`
	Done   int             `json:"done,omitempty"`
	Total  int             `json:"total,omitempty"`
	Error  string          `json:"error,omitempty"`
	Cached *bool           `json:"cached,omitempty"`
	Result json.RawMessage `json:"result,omitempty"`
}

func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	job, ok := s.queue.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such job %q", r.PathValue("id"))
		return
	}
	u := job.Snapshot()
	view := jobView{JobID: u.JobID, State: u.State, Stage: u.Stage, Done: u.Done, Total: u.Total, Error: u.Error}
	if u.State == jobq.StateDone {
		if v, err := job.Result(); err == nil {
			if p, ok := v.(jobPayload); ok {
				view.Result = p.data
				view.Cached = &p.cached
			}
		}
	}
	writeJSON(w, http.StatusOK, view)
}

// handleJobStream is GET /v1/jobs/{id}/stream: one JSON object per line
// (NDJSON), flushed as progress arrives, ending with the terminal state.
func (s *Server) handleJobStream(w http.ResponseWriter, r *http.Request) {
	job, ok := s.queue.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such job %q", r.PathValue("id"))
		return
	}
	updates, cancel := job.Subscribe()
	defer cancel()

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	for {
		select {
		case u, ok := <-updates:
			if !ok {
				// Channel closed on the terminal update; emit the final
				// snapshot so late subscribers always see the end state.
				_ = enc.Encode(job.Snapshot())
				if flusher != nil {
					flusher.Flush()
				}
				return
			}
			if err := enc.Encode(u); err != nil {
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
			// Fault point: the connection dies mid-stream. Clients must
			// resubscribe (the terminal snapshot is always replayed) rather
			// than trust an unterminated stream.
			if faultinject.Should("api.stream.drop") {
				return
			}
		case <-r.Context().Done():
			return
		}
	}
}

// handleJobTrace is GET /v1/jobs/{id}/trace: the Chrome trace_event JSON
// captured for a traced job, loadable in Perfetto. 404s explain the two
// non-error absences — the job is unknown, or it never ran a traced
// simulation (trace not requested, result served from cache, or the trace
// was evicted by newer ones).
func (s *Server) handleJobTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	data, ok := s.traces.get(id)
	if !ok {
		if _, known := s.queue.Get(id); !known {
			writeError(w, http.StatusNotFound, "no such job %q", id)
			return
		}
		writeError(w, http.StatusNotFound,
			"no trace for job %q: submit with \"trace\":true and note that cached or collapsed results run no simulation", id)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(data)
}

// handleJobCancel is DELETE /v1/jobs/{id}: cancel a live job, or drop the
// request record a failed or canceled one keeps for the next restart. A
// job that succeeded has no record left, and answers 409.
func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	job, ok := s.queue.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, "no such job %q", id)
		return
	}
	state := jobq.State("canceling")
	if !s.queue.Cancel(id) {
		if state = job.State(); state == jobq.StateDone {
			writeError(w, http.StatusConflict, "job %q already finished", id)
			return
		}
	}
	// A job a client dropped must not resurrect on the next restart.
	s.clear(id)
	writeJSON(w, http.StatusOK, map[string]string{"job_id": id, "state": string(state)})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// Ready reports whether this server should receive new traffic, and a
// short status word when it should not ("draining", "overloaded"). The
// cluster worker reuses it to compose its own /readyz annotations (a
// partition-orphaned worker is ready-but-degraded, which only the wrapper
// knows).
func (s *Server) Ready() (bool, string) {
	if s.draining.Load() || !s.queue.Stats().Accepting {
		return false, "draining"
	}
	if s.overloaded() {
		// Still alive and still finishing queued work, but new traffic
		// should go elsewhere until the backlog falls below the watermark.
		return false, "overloaded"
	}
	return true, "ready"
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	ok, status := s.Ready()
	if !ok {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	fmt.Fprintln(w, status)
}
