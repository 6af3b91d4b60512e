package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/faultinject"
	"repro/internal/jobq"
	"repro/internal/simcache"
)

// registerBackoff paces re-registration attempts while the coordinator is
// unreachable or rejecting (cluster.register.error): start fast, back off
// to a ceiling.
const (
	registerBackoffMin = 250 * time.Millisecond
	registerBackoffMax = 2 * time.Second
)

// WorkerOptions configures one worker. Name, SelfURL and JoinURL are
// required.
type WorkerOptions struct {
	// Name is the worker's stable ring identity. Ownership hashes the
	// name, so a worker that restarts under the same name owns the same
	// keys.
	Name string
	// SelfURL is the base URL peers and the coordinator reach this worker
	// at (advertised verbatim in register/heartbeat).
	SelfURL string
	// JoinURL is the coordinator's base URL.
	JoinURL string
	// CacheDir enables the disk spill tier ("" = memory + peers only).
	CacheDir string
	// CacheBytes bounds the in-memory tier (0 = 64 MiB).
	CacheBytes int64
	// Queue sizes the worker's simulation pool.
	Queue jobq.Config
	// API passes through to the embedded api.Server (checkpoint dir and
	// interval, shed watermarks, adaptive timeouts, logger).
	API api.Options
}

func (o WorkerOptions) cacheBytes() int64 {
	if o.CacheBytes > 0 {
		return o.CacheBytes
	}
	return 64 << 20
}

// Worker is one cluster member: a full cdpd API server whose result cache
// is the shared tier (memory → disk → peers), plus the heartbeat loop
// that keeps its lease and its ring replica current. The ring replica is
// what turns cache misses into peer fetches: the key's other ring
// successors are exactly where an earlier owner would have stored it.
type Worker struct {
	opts   WorkerOptions
	queue  *jobq.Queue
	tiered *simcache.TieredCache
	api    *api.Server
	mux    *http.ServeMux
	httpc  *http.Client
	logger *slog.Logger

	rootCtx    context.Context
	rootCancel context.CancelFunc
	loopWG     sync.WaitGroup
	started    bool

	mu            sync.Mutex
	ring          *Ring             // simlint:guardedby mu
	urls          map[string]string // simlint:guardedby mu
	generation    uint64            // simlint:guardedby mu
	registered    bool              // simlint:guardedby mu
	ttl           time.Duration     // simlint:guardedby mu
	orphanedSince time.Time         // simlint:guardedby mu
}

// NewWorker builds a worker (not yet registered; call Start). The worker
// is a process lifecycle root: its heartbeat loop and cache tier must
// outlive any single request, and only Close stops them.
//
// simlint:rootctx
func NewWorker(opts WorkerOptions) (*Worker, error) {
	if opts.Name == "" || opts.SelfURL == "" || opts.JoinURL == "" {
		return nil, errors.New("cluster: worker needs Name, SelfURL and JoinURL")
	}
	ctx, cancel := context.WithCancel(context.Background())
	w := &Worker{
		opts:       opts,
		queue:      jobq.New(opts.Queue),
		mux:        http.NewServeMux(),
		httpc:      &http.Client{},
		logger:     opts.API.Logger,
		rootCtx:    ctx,
		rootCancel: cancel,
		ring:       NewRing(DefaultVirtualNodes),
		urls:       map[string]string{},
		ttl:        DefaultLeaseTTL,
	}
	if w.logger == nil {
		w.logger = slog.New(slog.DiscardHandler)
	}
	mem := simcache.New(opts.cacheBytes())
	tiered := simcache.NewTiered(mem, opts.CacheDir, w)
	w.tiered = tiered
	srv, err := api.NewWithOptions(w.queue, tiered, opts.API)
	if err != nil {
		cancel()
		tiered.Close()
		return nil, err
	}
	w.api = srv
	w.mux.Handle("/", srv)
	w.mux.HandleFunc("GET /v1/cache/{key}", w.handleCacheGet)
	w.mux.HandleFunc("GET /readyz", w.handleReadyz)
	w.mux.HandleFunc("GET /metrics", w.handleMetrics)
	return w, nil
}

// ServeHTTP implements http.Handler.
func (w *Worker) ServeHTTP(rw http.ResponseWriter, r *http.Request) { w.mux.ServeHTTP(rw, r) }

// API exposes the embedded server (tests poke its counters directly).
func (w *Worker) API() *api.Server { return w.api }

// TierStats exposes the shared-tier counters (tests and peers' metrics).
func (w *Worker) TierStats() simcache.TierStats { return w.tiered.TierStats() }

// Start launches the heartbeat loop: register (retrying until admitted),
// then renew the lease at a third of its TTL.
func (w *Worker) Start() {
	if w.started {
		return
	}
	w.started = true
	w.loopWG.Add(1)
	go w.heartbeatLoop(w.rootCtx)
}

// Close leaves the cluster (best effort), stops the heartbeat loop, shuts
// the queue down within ctx's deadline, and closes the cache tier.
func (w *Worker) Close(ctx context.Context) error {
	w.leave(ctx)
	w.rootCancel()
	w.loopWG.Wait()
	err := w.queue.Shutdown(ctx)
	w.tiered.Close()
	return err
}

// Kill tears the worker down the way a SIGKILL would, for the chaos
// orchestrator: no leave call, no graceful drain. The heartbeat loop
// stops, running jobs' contexts are canceled (a segmented sim dies at its
// next checkpoint boundary, exactly like a killed process whose snapshot
// survives on shared disk; one already in its last segment runs the
// segment out but then fails without a result and without counting in
// sim.Runs, as the process would never have answered), and the lease is
// left to lapse so the coordinator discovers the death on its own.
//
// simlint:rootctx
func (w *Worker) Kill() {
	w.rootCancel()
	w.loopWG.Wait()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_ = w.queue.Shutdown(ctx)
	w.tiered.Close()
}

// Peers implements simcache.PeerPicker: a missed key's other ring
// successors, in ring order — if any node computed and spilled this key,
// it is one of these.
func (w *Worker) Peers(key simcache.Key) []string {
	w.mu.Lock()
	defer w.mu.Unlock()
	var urls []string
	for _, name := range w.ring.Successors(key, 3) {
		if name == w.opts.Name {
			continue
		}
		if u := w.urls[name]; u != "" {
			urls = append(urls, u)
		}
		if len(urls) == 2 {
			break
		}
	}
	return urls
}

// handleCacheGet is GET /v1/cache/{key}: serve a payload from the local
// tiers only (memory, then disk). Peer fetch is deliberately excluded —
// two workers missing the same key must not chase each other in a loop.
func (w *Worker) handleCacheGet(rw http.ResponseWriter, r *http.Request) {
	key, err := simcache.ParseKey(r.PathValue("key"))
	if err != nil {
		writeError(rw, http.StatusBadRequest, "%v", err)
		return
	}
	data, ok := w.tiered.GetLocal(key)
	if !ok {
		writeError(rw, http.StatusNotFound, "key %s not resident", key)
		return
	}
	rw.Header().Set("Content-Type", "application/json")
	rw.Write(data)
}

// registerJitter spreads (re-)registration attempts across the backoff
// window so a restarted coordinator is not hit by a synchronized herd: a
// deterministic hash of (worker name, attempt) places this worker's next
// try uniformly in [base/2, base), where base doubles per attempt from
// registerBackoffMin up to registerBackoffMax. Hashing instead of ambient
// randomness keeps a fleet's schedule reproducible — the same property
// vnode placement relies on.
func registerJitter(name string, attempt int) time.Duration {
	base := registerBackoffMin << min(attempt, 3)
	if base > registerBackoffMax {
		base = registerBackoffMax
	}
	h := (uint64(attempt) + 1) * 0x9E3779B97F4A7C15
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 0x100000001B3
	}
	h ^= h >> 33
	h *= 0xFF51AFD7ED558CCD
	h ^= h >> 33
	half := base / 2
	return half + time.Duration(h%uint64(half))
}

// markOrphaned records the moment coordinator contact was lost (first
// failure wins); markContacted clears it.
func (w *Worker) markOrphaned() {
	w.mu.Lock()
	if w.orphanedSince.IsZero() {
		w.orphanedSince = time.Now()
	}
	w.mu.Unlock()
}

func (w *Worker) markContacted() {
	w.mu.Lock()
	w.orphanedSince = time.Time{}
	w.mu.Unlock()
}

// orphanedFor reports how long the worker has been without coordinator
// contact (0 = in contact).
func (w *Worker) orphanedFor() time.Duration {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.orphanedSince.IsZero() {
		return 0
	}
	return time.Since(w.orphanedSince)
}

// handleReadyz wraps the embedded server's readiness with the cluster
// dimension: a worker that has lost its coordinator keeps serving local
// /v1/sim traffic, so it stays ready — annotated degraded-standalone so
// operators and probes can tell partition from health.
func (w *Worker) handleReadyz(rw http.ResponseWriter, r *http.Request) {
	rw.Header().Set("Content-Type", "text/plain; charset=utf-8")
	ok, status := w.api.Ready()
	if !ok {
		rw.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(rw, status)
		return
	}
	if d := w.orphanedFor(); d > 0 {
		fmt.Fprintf(rw, "ready (degraded-standalone: no coordinator contact for %s)\n", d.Round(time.Millisecond))
		return
	}
	fmt.Fprintln(rw, status)
}

// handleMetrics appends the worker's cluster-membership series after the
// embedded server's standard exposition.
func (w *Worker) handleMetrics(rw http.ResponseWriter, r *http.Request) {
	w.api.ServeHTTP(rw, r)
	w.mu.Lock()
	registered := 0
	if w.registered {
		registered = 1
	}
	var orphaned float64
	if !w.orphanedSince.IsZero() {
		orphaned = time.Since(w.orphanedSince).Seconds()
	}
	w.mu.Unlock()
	p := func(name, help string, v any) {
		fmt.Fprintf(rw, "# HELP %s %s\n# TYPE %s gauge\n%s %v\n", name, help, name, name, v)
	}
	p("cdpd_cluster_registered", "Whether this worker currently holds a coordinator lease.", registered)
	p("cdpd_cluster_orphaned_seconds", "Seconds since coordinator contact was lost (0 = in contact).", orphaned)
}

// heartbeatLoop keeps the worker admitted: register with jittered backoff
// until the coordinator accepts, then heartbeat at TTL/3, falling back to
// re-registration whenever the coordinator forgets us (lease lapse or
// coordinator restart). Every reply refreshes the local ring replica.
// While the coordinator is unreachable the worker is merely degraded — the
// local /v1/sim surface keeps serving, /readyz says so, and the orphaned
// clock feeds the cdpd_cluster_orphaned_seconds gauge.
func (w *Worker) heartbeatLoop(ctx context.Context) {
	defer w.loopWG.Done()
	attempt := 0
	timer := time.NewTimer(0) // first attempt immediately
	defer timer.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-timer.C:
		}

		w.mu.Lock()
		registered := w.registered
		ttl := w.ttl
		w.mu.Unlock()

		var wait time.Duration
		if !registered {
			if err := w.join(ctx, "/v1/cluster/register"); err != nil {
				w.logger.Warn("register failed", "coordinator", w.opts.JoinURL, "err", err)
				w.markOrphaned()
				wait = registerJitter(w.opts.Name, attempt)
				attempt++
			} else {
				w.logger.Info("registered", "worker", w.opts.Name, "coordinator", w.opts.JoinURL)
				w.markContacted()
				attempt = 0
				w.mu.Lock()
				wait = w.ttl / 3
				w.mu.Unlock()
			}
		} else {
			// Fault point: the beat never leaves the worker. Enough in a
			// row and the lease lapses — the steal drill.
			if faultinject.Should("cluster.heartbeat.drop") {
				wait = ttl / 3
			} else if err := w.join(ctx, "/v1/cluster/heartbeat"); err != nil {
				var httpErr *statusError
				if errors.As(err, &httpErr) && httpErr.code == http.StatusNotFound {
					// Coordinator no longer knows us (lease lapsed, or it
					// restarted without its journal). Re-register after a
					// jittered pause — every other worker got the same 404,
					// and the spread keeps the re-registration herd off a
					// coordinator that just came back. Resetting the
					// generation forces a full ring resync on readmission:
					// a restarted coordinator's generation numbering cannot
					// be trusted to be comparable with ours.
					w.mu.Lock()
					w.registered = false
					w.generation = 0
					w.mu.Unlock()
					wait = registerJitter(w.opts.Name, 0)
				} else {
					// Transport trouble; keep beating — the lease absorbs
					// a few misses, and the orphaned clock starts ticking
					// toward degraded-standalone.
					w.logger.Warn("heartbeat failed", "err", err)
					w.markOrphaned()
					wait = ttl / 3
				}
			} else {
				w.markContacted()
				wait = ttl / 3
			}
		}
		timer.Reset(wait)
	}
}

// statusError is a non-2xx coordinator reply.
type statusError struct {
	code int
	msg  string
}

func (e *statusError) Error() string {
	return fmt.Sprintf("coordinator answered %d: %s", e.code, e.msg)
}

// join posts the worker's identity to one membership endpoint and applies
// the reply.
func (w *Worker) join(ctx context.Context, path string) error {
	body, err := json.Marshal(joinRequest{Name: w.opts.Name, URL: w.opts.SelfURL})
	if err != nil {
		return err
	}
	rctx, cancel := context.WithTimeout(ctx, 2*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(rctx, http.MethodPost, w.opts.JoinURL+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.httpc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	payload, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return &statusError{code: resp.StatusCode, msg: string(bytes.TrimSpace(payload))}
	}
	var reply joinReply
	if err := json.Unmarshal(payload, &reply); err != nil {
		return fmt.Errorf("bad membership reply: %w", err)
	}
	w.applyReply(reply)
	return nil
}

// applyReply syncs the lease TTL and, when the generation moved, the local
// ring replica and peer URL map.
func (w *Worker) applyReply(reply joinReply) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.registered = true
	if reply.TTLMillis > 0 {
		w.ttl = time.Duration(reply.TTLMillis) * time.Millisecond
	}
	if reply.Generation == w.generation && w.generation != 0 {
		return
	}
	names := make([]string, 0, len(reply.Members))
	urls := make(map[string]string, len(reply.Members))
	for _, m := range reply.Members {
		names = append(names, m.Name)
		urls[m.Name] = m.URL
	}
	w.ring.SetMembers(names)
	w.urls = urls
	w.generation = reply.Generation
}

// leave tells the coordinator we are draining; failures are fine (the
// lease will lapse on its own).
func (w *Worker) leave(ctx context.Context) {
	body, err := json.Marshal(joinRequest{Name: w.opts.Name, URL: w.opts.SelfURL})
	if err != nil {
		return
	}
	rctx, cancel := context.WithTimeout(ctx, time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(rctx, http.MethodPost, w.opts.JoinURL+"/v1/cluster/leave", bytes.NewReader(body))
	if err != nil {
		return
	}
	req.Header.Set("Content-Type", "application/json")
	if resp, err := w.httpc.Do(req); err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
}
