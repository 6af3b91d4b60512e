package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/api"
	"repro/internal/faultinject"
	"repro/internal/jobq"
	"repro/internal/simcache"
)

const (
	// DefaultLeaseTTL is how long a worker's registration survives without
	// a heartbeat. Workers heartbeat at a third of it, so one lost beat is
	// harmless and three in a row expire the lease.
	DefaultLeaseTTL = 3 * time.Second

	// maxRouteAttempts bounds how many distinct placements one job gets
	// before the coordinator gives up; each failed placement drops a dead
	// worker from the ring first, so the bound only bites when workers die
	// faster than they join.
	maxRouteAttempts = 8

	// maxPlacedEntries bounds the job→worker placement memory (used for
	// trace redirects). The map resets when full; a reset only costs trace
	// redirect accuracy for old jobs, never correctness.
	maxPlacedEntries = 4096

	// hedgeHeadroom scales the placement-rate EWMA into the hedge delay: a
	// placement this many times slower than the running mean is treated as
	// a likely straggler and a second placement races it. The multiplier
	// plays the p99 role the api layer's adaptive timeout uses headroom
	// for, just at hedging (not failing) aggressiveness.
	hedgeHeadroom = 4
	// hedgeDelayMin keeps hedges from firing on normal jitter once the
	// EWMA has converged on a fast fleet; hedgeDelayMax keeps a huge sim's
	// hedge from waiting out most of the job; hedgeDelayDefault covers the
	// cold start before any simulated placement has been observed.
	hedgeDelayMin     = 250 * time.Millisecond
	hedgeDelayMax     = 30 * time.Second
	hedgeDelayDefault = 2 * time.Second
	// routeRateAlpha is the EWMA smoothing factor for placement ns/op
	// (same constant the api layer uses for run rate).
	routeRateAlpha = 0.3
)

// errNoWorkers fails jobs routed while the ring is empty; the submit path
// answers it 503.
var errNoWorkers = fmt.Errorf("cluster: %w", api.ErrNoWorkers)

// joinRequest is the register/heartbeat/leave body a worker posts.
type joinRequest struct {
	Name string `json:"name"`
	URL  string `json:"url"`
}

// memberInfo is the public shape of one ring member.
type memberInfo struct {
	Name     string `json:"name"`
	URL      string `json:"url"`
	Inflight int    `json:"inflight,omitempty"`
}

// joinReply answers register and heartbeat: the lease the worker must keep
// renewing, plus the membership snapshot it syncs its ring replica from.
// Generation increments on every membership change, so a worker can skip
// rebuilding an identical ring.
type joinReply struct {
	TTLMillis  int64        `json:"ttl_ms"`
	Generation uint64       `json:"generation"`
	Members    []memberInfo `json:"members"`
}

// member is one registered worker. Fields are guarded by Coordinator.mu;
// they cannot carry a guardedby annotation because the mutex lives on the
// coordinator, not here (same convention as jobq's heap index).
type member struct {
	info     memberInfo
	expires  time.Time
	inflight int
}

// attempt is one in-flight placement of a job on a worker. Dropping the
// worker cancels the attempt's context, which unblocks the forward so it
// can steal the job back and re-route it.
type attempt struct {
	worker string
	cancel context.CancelFunc
}

// CoordinatorOptions tunes a coordinator. The zero value works.
type CoordinatorOptions struct {
	// LeaseTTL is the heartbeat lease (0 = DefaultLeaseTTL). Tests shrink
	// it to make lease-lapse stealing fast.
	LeaseTTL time.Duration
	// CheckpointEveryOps is the default segmentation interval the front end
	// stamps onto requests and arena cells that do not choose their own,
	// explicitly in the placed request, so every worker computes the same
	// content key the coordinator routed by.
	CheckpointEveryOps int
	// CacheBytes bounds the coordinator's one result cache (0 = 64 MiB):
	// assembled arena reports, and a read-through copy of every result a
	// placement returned, which answers repeats without a placement. The
	// workers' tiers stay the authoritative copy.
	CacheBytes int64
	// Queue sizes the coordinator's local job pool (arena assembly jobs and
	// the external handles of routed sims).
	Queue jobq.Config
	// StateDir holds the membership journal, so a restarted coordinator
	// re-adopts its generation and re-leases surviving workers, and the
	// front end's request records, so it re-routes the simulations it had
	// accepted ("" = memory only; a restart forgets the cluster and its
	// accepted work, and workers must re-register from scratch).
	StateDir string
	// HedgeDelay fixes the straggler threshold before a second placement
	// races the first (0 = derive it from the placement-rate EWMA). Tests
	// and chaos scenarios pin it to make hedging deterministic.
	HedgeDelay time.Duration
	// Logger receives cluster lifecycle logs. Nil discards.
	Logger *slog.Logger
}

func (o CoordinatorOptions) leaseTTL() time.Duration {
	if o.LeaseTTL > 0 {
		return o.LeaseTTL
	}
	return DefaultLeaseTTL
}

func (o CoordinatorOptions) cacheBytes() int64 {
	if o.CacheBytes > 0 {
		return o.CacheBytes
	}
	return 64 << 20
}

// Coordinator owns cluster membership and routes content-keyed jobs to
// their ring owners. It embeds a full api.Server built with routeSim as its
// executor, so every client-facing route, /v1/sim and /v1/arena included,
// is the standalone daemon's own handler; the coordinator adds only the
// membership routes, readiness, the trace redirect and its metrics block.
type Coordinator struct {
	opts   CoordinatorOptions
	queue  *jobq.Queue
	api    *api.Server
	mux    *http.ServeMux
	httpc  *http.Client
	logger *slog.Logger

	// rootCtx is the coordinator's lifecycle: forwards and the lease
	// sweeper run under it; Close cancels it.
	rootCtx    context.Context
	rootCancel context.CancelFunc
	sweeperWG  sync.WaitGroup

	// journal is the write-ahead membership log (nil without StateDir;
	// every append site tolerates nil).
	journal *journal

	mu         sync.Mutex
	members    map[string]*member // simlint:guardedby mu
	ring       *Ring              // simlint:guardedby mu
	generation uint64             // simlint:guardedby mu
	assigns    map[*attempt]bool  // simlint:guardedby mu
	placed     map[string]string  // simlint:guardedby mu

	steals     atomic.Uint64
	rebalances atomic.Uint64
	hedges     atomic.Uint64
	hedgeWins  atomic.Uint64
	readopted  atomic.Uint64
	// routeEwmaNs is Float64bits of the EWMA nanoseconds-per-op a
	// placement a worker simulated costs end to end; hedgeDelay derives the
	// straggler threshold from it (the api layer's adaptiveTimeout
	// pattern).
	routeEwmaNs atomic.Uint64
}

// NewCoordinator builds and starts a coordinator: its local queue, the
// embedded API server, and the lease sweeper. The coordinator is the
// cluster's lifecycle root — placements and sweeps must outlive any single
// client request, and only Close stops them.
//
// simlint:rootctx
func NewCoordinator(opts CoordinatorOptions) (*Coordinator, error) {
	ctx, cancel := context.WithCancel(context.Background())
	c := &Coordinator{
		opts:       opts,
		queue:      jobq.New(opts.Queue),
		mux:        http.NewServeMux(),
		httpc:      &http.Client{},
		logger:     opts.Logger,
		rootCtx:    ctx,
		rootCancel: cancel,
		members:    map[string]*member{},
		ring:       NewRing(DefaultVirtualNodes),
		assigns:    map[*attempt]bool{},
		placed:     map[string]string{},
	}
	if c.logger == nil {
		c.logger = slog.New(slog.DiscardHandler)
	}
	srv, err := api.NewRouted(ctx, c.queue, simcache.New(opts.cacheBytes()),
		api.Options{CheckpointEveryOps: opts.CheckpointEveryOps, Logger: opts.Logger}, c.routeSim)
	if err != nil {
		cancel()
		return nil, err
	}
	c.api = srv

	// Crash recovery: replay the journal before serving anything, so the
	// first register/submit already sees the re-adopted ring. Then the
	// front end resubmits the request records the previous incarnation
	// left, through the routed submit path, which places each on its key's
	// current owner, where the checkpoint probe resumes a snapshot if one
	// survived. A member that actually died with the coordinator
	// transport-fails its placement and the steal path drops it.
	if opts.StateDir != "" {
		jr, state, err := openJournal(opts.StateDir)
		if err != nil {
			cancel()
			return nil, fmt.Errorf("cluster: opening journal: %w", err)
		}
		c.journal = jr
		c.adoptJournal(state)
		n, err := srv.RecoverJobs(opts.StateDir)
		if err != nil {
			jr.Close()
			cancel()
			return nil, fmt.Errorf("cluster: recovering requests: %w", err)
		}
		c.readopted.Add(uint64(n))
		c.logger.Info("requests re-adopted", "jobs", n)
	}

	// Every client-facing endpoint but the trace redirect is the embedded
	// API server's, so submissions, arenas, jobs, streams, cancellation,
	// experiments and engine listings behave exactly as standalone.
	c.mux.Handle("/", srv)
	c.mux.HandleFunc("GET /v1/jobs/{id}/trace", c.handleTrace)
	c.mux.HandleFunc("POST /v1/cluster/register", c.handleRegister)
	c.mux.HandleFunc("POST /v1/cluster/heartbeat", c.handleHeartbeat)
	c.mux.HandleFunc("POST /v1/cluster/leave", c.handleLeave)
	c.mux.HandleFunc("GET /v1/cluster/members", c.handleMembers)
	c.mux.HandleFunc("GET /metrics", c.handleMetrics)
	c.mux.HandleFunc("GET /readyz", c.handleReadyz)

	c.sweeperWG.Add(1)
	go c.sweepLeases(ctx)
	return c, nil
}

// adoptJournal installs replayed membership: every surviving worker gets a
// fresh lease (it has heartbeats in flight toward us already), and the
// ring rebuild bumps the generation past anything the fleet has seen, so
// the next heartbeat reply forces every worker to resync its replica.
func (c *Coordinator) adoptJournal(state journalState) {
	if len(state.Members) == 0 && state.Generation == 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	now := time.Now()
	for name, url := range state.Members {
		c.members[name] = &member{
			info:    memberInfo{Name: name, URL: url},
			expires: now.Add(c.opts.leaseTTL()),
		}
	}
	c.generation = state.Generation
	c.rebuildRingLocked()
	c.logger.Info("journal replayed", "workers", len(state.Members),
		"generation", c.generation, "torn_records", state.TornRecords)
}

// ServeHTTP implements http.Handler.
func (c *Coordinator) ServeHTTP(w http.ResponseWriter, r *http.Request) { c.mux.ServeHTTP(w, r) }

// API exposes the embedded server (drain flips, tests).
func (c *Coordinator) API() *api.Server { return c.api }

// Close stops the sweeper, cancels in-flight placements, and drains the
// local queue within ctx's deadline. A placement it cancels keeps its
// request record, so the next incarnation re-adopts it.
func (c *Coordinator) Close(ctx context.Context) error {
	c.rootCancel()
	c.sweeperWG.Wait()
	err := c.queue.Shutdown(ctx)
	c.journal.Close()
	return err
}

// Kill tears the coordinator down the way a SIGKILL would, for the chaos
// orchestrator: the journal is closed first (a dead process appends
// nothing), then everything running is canceled without grace. Neither
// success nor a client's cancel ends the in-flight placements, so their
// request records stay on disk for the next incarnation to re-adopt.
//
// simlint:rootctx
func (c *Coordinator) Kill() {
	c.journal.Close()
	c.rootCancel()
	c.sweeperWG.Wait()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_ = c.queue.Shutdown(ctx)
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

// ---- membership ----

// handleRegister admits (or refreshes) a worker. The register.error fault
// point models an admission failure the worker must retry through.
func (c *Coordinator) handleRegister(w http.ResponseWriter, r *http.Request) {
	if err := faultinject.Error("cluster.register.error"); err != nil {
		writeError(w, http.StatusInternalServerError, "registration failed: %v", err)
		return
	}
	var req joinRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad register body: %v", err)
		return
	}
	if req.Name == "" {
		writeError(w, http.StatusBadRequest, "register: empty worker name")
		return
	}
	if u, err := url.Parse(req.URL); err != nil || !u.IsAbs() || u.Host == "" {
		writeError(w, http.StatusBadRequest, "register: worker url %q is not absolute", req.URL)
		return
	}

	c.mu.Lock()
	c.expireLocked(time.Now())
	m, known := c.members[req.Name]
	if !known {
		m = &member{info: memberInfo{Name: req.Name, URL: req.URL}}
		c.members[req.Name] = m
		c.rebuildRingLocked()
		c.journal.append(journalRecord{T: "member", Name: req.Name, URL: req.URL, Gen: c.generation})
		c.logger.Info("worker joined", "worker", req.Name, "url", req.URL,
			"workers", len(c.members))
	} else if m.info.URL != req.URL {
		// Same name, new address: the worker restarted somewhere else. The
		// ring keys by name, so ownership is unchanged.
		m.info.URL = req.URL
		c.journal.append(journalRecord{T: "member", Name: req.Name, URL: req.URL, Gen: c.generation})
	}
	m.expires = time.Now().Add(c.opts.leaseTTL())
	reply := c.joinReplyLocked()
	c.mu.Unlock()
	writeJSON(w, http.StatusOK, reply)
}

// handleHeartbeat renews a lease. Unknown workers get 404 and re-register
// — that is the recovery path after a lease lapses or the coordinator
// restarts with empty state.
func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req joinRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad heartbeat body: %v", err)
		return
	}
	c.mu.Lock()
	c.expireLocked(time.Now())
	m, ok := c.members[req.Name]
	if !ok {
		c.mu.Unlock()
		writeError(w, http.StatusNotFound, "heartbeat from unregistered worker %q; re-register", req.Name)
		return
	}
	m.expires = time.Now().Add(c.opts.leaseTTL())
	reply := c.joinReplyLocked()
	c.mu.Unlock()
	writeJSON(w, http.StatusOK, reply)
}

// handleLeave is a graceful departure: the worker drains, so drop it now
// instead of waiting out the lease.
func (c *Coordinator) handleLeave(w http.ResponseWriter, r *http.Request) {
	var req joinRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad leave body: %v", err)
		return
	}
	c.dropMember(req.Name, "left")
	writeJSON(w, http.StatusOK, map[string]string{"left": req.Name})
}

// handleMembers reports the live ring.
func (c *Coordinator) handleMembers(w http.ResponseWriter, r *http.Request) {
	c.mu.Lock()
	c.expireLocked(time.Now())
	reply := c.joinReplyLocked()
	c.mu.Unlock()
	writeJSON(w, http.StatusOK, reply)
}

// joinReplyLocked snapshots membership for register/heartbeat/members
// replies. Caller holds c.mu.
func (c *Coordinator) joinReplyLocked() joinReply {
	reply := joinReply{
		TTLMillis:  c.opts.leaseTTL().Milliseconds(),
		Generation: c.generation,
	}
	for _, name := range c.ring.Members() {
		m := c.members[name]
		reply.Members = append(reply.Members, memberInfo{
			Name: m.info.Name, URL: m.info.URL, Inflight: m.inflight,
		})
	}
	return reply
}

// rebuildRingLocked recomputes the ring from the live member set and bumps
// the generation. Caller holds c.mu.
func (c *Coordinator) rebuildRingLocked() {
	names := make([]string, 0, len(c.members))
	for name := range c.members {
		names = append(names, name)
	}
	c.ring.SetMembers(names)
	c.generation++
	c.rebalances.Add(1)
}

// expireLocked drops every member whose lease has lapsed. Caller holds
// c.mu.
func (c *Coordinator) expireLocked(now time.Time) {
	for name, m := range c.members {
		if now.After(m.expires) {
			c.dropLocked(name, "lease expired")
		}
	}
}

// dropLocked removes one member, rebuilds the ring, and cancels the
// member's in-flight placements so their forwards steal the jobs back.
// Caller holds c.mu.
func (c *Coordinator) dropLocked(name, reason string) {
	if _, ok := c.members[name]; !ok {
		return
	}
	delete(c.members, name)
	c.rebuildRingLocked()
	c.journal.append(journalRecord{T: "leave", Name: name, Gen: c.generation})
	stolen := 0
	for at := range c.assigns {
		if at.worker == name {
			at.cancel()
			stolen++
		}
	}
	c.logger.Info("worker dropped", "worker", name, "reason", reason,
		"inflight_stolen", stolen, "workers", len(c.members))
}

func (c *Coordinator) dropMember(name, reason string) {
	c.mu.Lock()
	c.dropLocked(name, reason)
	c.mu.Unlock()
}

// sweepLeases expires lapsed leases on a timer, so a silent worker is
// dropped (and its jobs stolen) even when no request happens to touch the
// ring.
func (c *Coordinator) sweepLeases(ctx context.Context) {
	defer c.sweeperWG.Done()
	tick := time.NewTicker(c.opts.leaseTTL() / 2)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case now := <-tick.C:
			c.mu.Lock()
			c.expireLocked(now)
			c.mu.Unlock()
		}
	}
}

// ---- routing ----

// successor lazily expires lapsed leases and returns the first member of
// key's ring successors that is not skip: the ring owner for a primary
// (skip ""), and for a hedge of the primary skip the key's next successor,
// where a replica of the result would land anyway.
func (c *Coordinator) successor(key simcache.Key, skip string) (memberInfo, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.expireLocked(time.Now())
	for _, name := range c.ring.Successors(key, 2) {
		if name != skip {
			return c.members[name].info, true
		}
	}
	return memberInfo{}, false
}

// trackAttempt registers an in-flight placement (and the owner's inflight
// gauge) so dropping the worker can cancel it.
func (c *Coordinator) trackAttempt(at *attempt) {
	c.mu.Lock()
	c.assigns[at] = true
	if m, ok := c.members[at.worker]; ok {
		m.inflight++
	}
	c.mu.Unlock()
}

func (c *Coordinator) untrackAttempt(at *attempt) {
	c.mu.Lock()
	delete(c.assigns, at)
	if m, ok := c.members[at.worker]; ok && m.inflight > 0 {
		m.inflight--
	}
	c.mu.Unlock()
}

// notePlaced remembers which worker a job landed on, for trace redirects.
func (c *Coordinator) notePlaced(id, workerURL string) {
	c.mu.Lock()
	if len(c.placed) >= maxPlacedEntries {
		c.placed = map[string]string{}
	}
	c.placed[id] = workerURL
	c.mu.Unlock()
}

// observeRouteRate folds one simulated placement's end-to-end cost into
// the EWMA hedgeDelay derives straggler thresholds from (the api layer's
// observeSimRate pattern: lock-free CAS over Float64bits).
func (c *Coordinator) observeRouteRate(elapsed time.Duration, ops int) {
	if ops <= 0 || elapsed <= 0 {
		return
	}
	sample := float64(elapsed.Nanoseconds()) / float64(ops)
	for {
		old := c.routeEwmaNs.Load()
		next := sample
		if old != 0 {
			next = routeRateAlpha*sample + (1-routeRateAlpha)*math.Float64frombits(old)
		}
		if c.routeEwmaNs.CompareAndSwap(old, math.Float64bits(next)) {
			return
		}
	}
}

// hedgeDelay is how long a placement may run before a second one races it:
// headroom × EWMA ns/op × ops, clamped, with a fixed default before the
// first observation.
func (c *Coordinator) hedgeDelay(ops int) time.Duration {
	if c.opts.HedgeDelay > 0 {
		return c.opts.HedgeDelay
	}
	bits := c.routeEwmaNs.Load()
	if bits == 0 || ops <= 0 {
		return hedgeDelayDefault
	}
	d := time.Duration(hedgeHeadroom * math.Float64frombits(bits) * float64(ops))
	return min(max(d, hedgeDelayMin), hedgeDelayMax)
}

// routeSim is the coordinator's one placement loop: it places a simulation
// on its content key's ring successors until one answers. It persists
// nothing: the front end records the request, and after a coordinator
// crash the next incarnation re-adopts it through the front end, which
// calls back in here. Every launch spends one unit of one budget:
//
//   - A primary goes to the key's ring owner whenever nothing is running.
//   - A transport failure means the worker is dead: it is dropped from the
//     ring (a steal, which cancels its other placements too), and the next
//     primary goes to the new owner, who resumes from the latest shared
//     checkpoint snapshot when there is one.
//   - An HTTP-level error means the worker is alive and refusing; that is
//     the job's answer.
//   - A primary that outlives the EWMA-derived hedge delay gets one hedge on
//     the key's next successor.
//
// The first success cancels the rest; a duplicate placement collapses on
// the worker side under the content-keyed job ID.
func (c *Coordinator) routeSim(ctx context.Context, id string, key simcache.Key, ops int, req api.SimRequest, budget int) ([]byte, bool, error) {
	budget = max(1, min(budget, maxRouteAttempts))
	req.Wait = true
	body, err := json.Marshal(req)
	if err != nil {
		return nil, false, err
	}

	pctx, cancel := context.WithCancel(ctx)
	defer cancel()
	resCh := make(chan placeOutcome, budget) // one send per launch, so a loser never blocks
	used, running := 0, 0
	launch := func(m memberInfo, hedge bool) {
		used++
		running++
		c.notePlaced(id, m.URL)
		go func() {
			start := time.Now()
			data, cached, spoke, err := c.postSim(pctx, m, body)
			if err == nil && !cached {
				// Only a simulated answer says how long a miss takes.
				c.observeRouteRate(time.Since(start), ops)
			}
			resCh <- placeOutcome{owner: m, data: data, cached: cached, spoke: spoke, err: err, hedge: hedge}
		}()
	}

	var primary string
	var hedgeC <-chan time.Time
	var lastErr error
	for {
		if running == 0 {
			if used == budget {
				return nil, false, fmt.Errorf("cluster: job %s exhausted its placement budget (%d); workers dying faster than they join (last: %v)", id, budget, lastErr)
			}
			owner, ok := c.successor(key, "")
			if !ok {
				return nil, false, errNoWorkers
			}
			launch(owner, false)
			primary, hedgeC = owner.Name, nil
			if used < budget {
				// The hedge.fire fault point collapses the delay so tests drive
				// the hedge path without waiting out a real straggler.
				delay := c.hedgeDelay(ops)
				if faultinject.Should("cluster.hedge.fire") {
					delay = 0
				}
				hedgeC = time.After(delay)
			}
		}
		select {
		case <-hedgeC:
			hedgeC = nil
			if next, ok := c.successor(key, primary); ok {
				c.hedges.Add(1)
				c.logger.Info("placement hedged", "job_id", id, "primary", primary, "hedge", next.Name)
				launch(next, true)
			}
		case out := <-resCh:
			running--
			switch {
			case out.err == nil:
				if out.hedge {
					c.hedgeWins.Add(1)
				}
				return out.data, out.cached, nil
			case ctx.Err() != nil:
				// The job was canceled or the coordinator is shutting down —
				// not a dead worker.
				return nil, false, ctx.Err()
			case out.spoke:
				return nil, false, out.err
			}
			// Transport death: steal now, even if a sibling placement is
			// still in flight.
			c.steals.Add(1)
			c.dropMember(out.owner.Name, fmt.Sprintf("forward failed: %v", out.err))
			c.logger.Info("job stolen", "job_id", id, "from", out.owner.Name)
			// Fault point: a coordinator that dawdles between detecting the
			// death and re-routing; clients must simply keep waiting.
			_ = faultinject.Sleep(ctx, "cluster.steal.stall")
			lastErr = out.err
		case <-ctx.Done():
			return nil, false, ctx.Err()
		}
	}
}

// placeOutcome is one placement's terminal result inside routeSim.
type placeOutcome struct {
	owner  memberInfo
	data   []byte
	cached bool
	spoke  bool
	err    error
	hedge  bool
}

// postSim performs one synchronous placement. spoke reports whether the
// worker produced a coherent HTTP response; transport failures (spoke
// false) are what trigger stealing. The attempt is tracked so a lease
// sweep can cancel it mid-flight.
func (c *Coordinator) postSim(ctx context.Context, owner memberInfo, body []byte) (data []byte, cached, spoke bool, err error) {
	actx, cancel := context.WithCancel(ctx)
	defer cancel()
	at := &attempt{worker: owner.Name, cancel: cancel}
	c.trackAttempt(at)
	defer c.untrackAttempt(at)

	req, err := http.NewRequestWithContext(actx, http.MethodPost, owner.URL+"/v1/sim?wait=1", bytes.NewReader(body))
	if err != nil {
		return nil, false, true, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.httpc.Do(req)
	if err != nil {
		return nil, false, false, err
	}
	defer resp.Body.Close()
	payload, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, false, false, fmt.Errorf("reading worker response: %w", err)
	}
	if resp.StatusCode < 200 || resp.StatusCode >= 300 {
		msg := strings.TrimSpace(string(payload))
		var jsonErr struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(payload, &jsonErr) == nil && jsonErr.Error != "" {
			msg = jsonErr.Error
		}
		return nil, false, true, fmt.Errorf("worker %s answered %d: %s", owner.Name, resp.StatusCode, msg)
	}
	var env struct {
		Cached bool            `json:"cached"`
		Result json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal(payload, &env); err != nil {
		// A torn 200 body: the worker died mid-response. Steal.
		return nil, false, false, fmt.Errorf("torn worker response: %w", err)
	}
	return env.Result, env.Cached, true, nil
}

// ---- trace redirect ----

// handleTrace redirects a trace request to the worker that ran the job —
// traces are captured where the simulation ran and never cross the wire.
func (c *Coordinator) handleTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	c.mu.Lock()
	workerURL, ok := c.placed[id]
	c.mu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound,
			"no placement recorded for job %q: traces live on the worker that ran the simulation", id)
		return
	}
	http.Redirect(w, r, workerURL+"/v1/jobs/"+id+"/trace", http.StatusTemporaryRedirect)
}

// ---- cluster telemetry ----

// handleReadyz: a coordinator with no live workers can accept nothing.
func (c *Coordinator) handleReadyz(w http.ResponseWriter, r *http.Request) {
	c.mu.Lock()
	c.expireLocked(time.Now())
	live := len(c.members)
	c.mu.Unlock()
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if !c.queue.Stats().Accepting {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	if live == 0 {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "no live workers")
		return
	}
	fmt.Fprintln(w, "ready")
}

// handleMetrics appends the cluster block after the embedded server's
// standard series.
func (c *Coordinator) handleMetrics(w http.ResponseWriter, r *http.Request) {
	c.api.ServeHTTP(w, r)

	c.mu.Lock()
	c.expireLocked(time.Now())
	type row struct {
		name     string
		inflight int
	}
	rows := make([]row, 0, len(c.members))
	for _, name := range c.ring.Members() {
		rows = append(rows, row{name, c.members[name].inflight})
	}
	generation := c.generation
	c.mu.Unlock()

	p := func(name, help, typ string, v any) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s %v\n", name, help, name, typ, name, v)
	}
	p("cdpd_cluster_workers_live", "Workers holding a live lease.", "gauge", len(rows))
	p("cdpd_cluster_steals_total", "Jobs reclaimed from dead workers and re-routed.", "counter", c.steals.Load())
	p("cdpd_cluster_rebalances_total", "Hash-ring rebuilds from membership changes.", "counter", c.rebalances.Load())
	p("cdpd_cluster_generation", "Membership generation (increments per change).", "gauge", generation)
	p("cdpd_cluster_hedges_total", "Second placements raced against suspected stragglers.", "counter", c.hedges.Load())
	p("cdpd_cluster_hedge_wins_total", "Hedged placements that finished before the primary.", "counter", c.hedgeWins.Load())
	p("cdpd_cluster_readopted_total", "Request records re-adopted after a restart.", "counter", c.readopted.Load())
	p("cdpd_cluster_placements_open", "External placements accepted but not yet terminal.", "gauge", c.queue.ExternalInflight())
	if c.journal != nil {
		p("cdpd_cluster_journal_writes_total", "Records appended to the write-ahead journal.", "counter", c.journal.writes.Load())
		p("cdpd_cluster_journal_write_errors_total", "Journal appends that failed (recovery fidelity lost, requests unaffected).", "counter", c.journal.writeErrs.Load())
	}
	if len(rows) > 0 {
		fmt.Fprintf(w, "# HELP cdpd_cluster_worker_inflight Jobs currently placed on each worker.\n")
		fmt.Fprintf(w, "# TYPE cdpd_cluster_worker_inflight gauge\n")
		for _, row := range rows {
			fmt.Fprintf(w, "cdpd_cluster_worker_inflight{worker=%q} %d\n", row.name, row.inflight)
		}
	}
}
