package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/api"
	"repro/internal/cluster"
	"repro/internal/jobq"
	"repro/internal/sim"
	"repro/internal/simcache"
	"repro/internal/workloads"
)

const (
	// clusterClients is the closed loop's client count: the 2 CPUs the
	// benchmark is sized for, so at most 2 simulations run at once.
	clusterClients = 2
	// clusterBatch is the request count of one timed batch; its p99 has 20
	// samples beyond it.
	clusterBatch = 2_000
	// clusterWarmup requests run before the first timed batch and are
	// discarded.
	clusterWarmup = 500
	// clusterNominalRate sizes a run: --seconds times this many requests,
	// in whole batches.
	clusterNominalRate = 600
	// missSample is how many misses are re-run on a standalone server and
	// byte-compared after the timed phase.
	missSample     = 16
	clusterWorkers = 2
)

// envelope is the terminal /v1/sim response shape.
type envelope struct {
	Cached bool            `json:"cached"`
	Result json.RawMessage `json:"result"`
}

type clusterEnv struct {
	dir       string
	in        clusterInputs
	batches   int
	coord     *cluster.Coordinator
	workers   []*cluster.Worker
	servers   []*httptest.Server // coordinator first
	client    *http.Client
	spans     atomic.Pointer[spanLog] // non-nil while a traced batch runs
	generateS float64
	hotResult [][]byte // the cluster's answer per hot key
}

// spanHandler records a span around each POST /v1/sim a handler serves,
// keyed by the request's content-keyed job ID, while tracing is on.
type spanHandler struct {
	name, parent string
	spans        *atomic.Pointer[spanLog]
	next         http.Handler
}

func (h *spanHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	log := h.spans.Load()
	if log == nil || r.Method != http.MethodPost || r.URL.Path != "/v1/sim" {
		h.next.ServeHTTP(w, r)
		return
	}
	start := time.Now()
	body, err := io.ReadAll(r.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	r.Body = io.NopCloser(bytes.NewReader(body))
	var req api.SimRequest
	id := "unparsed"
	if json.Unmarshal(body, &req) == nil {
		id = jobID(req)
	}
	h.next.ServeHTTP(w, r)
	log.add(h.name, id, h.parent, start, time.Now())
}

// jobID is the content-keyed job ID the service gives a request.
func jobID(req api.SimRequest) string {
	spec, cfg, ops, err := api.ResolveSim(req)
	if err != nil {
		return "invalid"
	}
	return api.SimJobID(simcache.KeyFor(spec, cfg, ops))
}

func setupCluster(o *options) (env, error) {
	batches := max(2, (o.seconds*clusterNominalRate+clusterBatch/2)/clusterBatch)
	if o.trace {
		batches += batches % 2
	}
	e := &clusterEnv{
		in:      genCluster(o.seed, clusterWarmup+batches*clusterBatch),
		batches: batches,
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: clusterClients,
			MaxConnsPerHost:     clusterClients,
		}},
	}
	if err := e.bringUp(); err != nil {
		return nil, errors.Join(err, e.close())
	}
	return e, nil
}

// bringUp starts a coordinator and its workers, each configured as cmd/cdpd
// configures the role by default apart from the directories, which live in
// a fresh directory under scratchDir, and warms the hot set.
func (e *clusterEnv) bringUp() error {
	dir, err := os.MkdirTemp(scratchDir, "cdpd-")
	if err != nil {
		return err
	}
	e.dir = dir
	// cmd/cdpd creates its directories at start-up when validating flags.
	mkdir := func(name string) (string, error) {
		d := filepath.Join(dir, name)
		return d, os.Mkdir(d, 0o755)
	}
	stateDir, err := mkdir("state")
	if err != nil {
		return err
	}
	ckptDir, err := mkdir("checkpoints")
	if err != nil {
		return err
	}
	// cmd/cdpd logs JSON at info level to stderr; the benchmark keeps the
	// formatting cost and drops the output.
	logger := slog.New(slog.NewJSONHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelInfo}))
	queue := jobq.Config{Capacity: 64, JobTimeout: 10 * time.Minute}

	start := time.Now()
	for _, spec := range workloads.All() {
		workloads.Checkpoint(spec, clusterOps)
	}
	e.generateS = time.Since(start).Seconds()

	e.coord, err = cluster.NewCoordinator(cluster.CoordinatorOptions{
		CacheBytes: 64 << 20,
		Queue:      queue,
		StateDir:   stateDir,
		Logger:     logger,
	})
	if err != nil {
		return err
	}
	coordSrv := httptest.NewServer(&spanHandler{name: "coordinator", parent: "client", spans: &e.spans, next: e.coord})
	e.servers = append(e.servers, coordSrv)
	for i := 1; i <= clusterWorkers; i++ {
		name := fmt.Sprintf("w%d", i)
		cacheDir, err := mkdir("cache-" + name)
		if err != nil {
			return err
		}
		srv := httptest.NewUnstartedServer(nil)
		w, err := cluster.NewWorker(cluster.WorkerOptions{
			Name:       name,
			SelfURL:    "http://" + srv.Listener.Addr().String(),
			JoinURL:    coordSrv.URL,
			CacheDir:   cacheDir,
			CacheBytes: 64 << 20,
			Queue:      queue,
			API:        api.Options{CheckpointDir: ckptDir, Logger: logger},
		})
		if err != nil {
			srv.Listener.Close()
			return err
		}
		srv.Config.Handler = &spanHandler{name: "worker", parent: "coordinator", spans: &e.spans, next: w}
		srv.Start()
		e.servers = append(e.servers, srv)
		e.workers = append(e.workers, w)
		w.Start()
	}
	if err := e.awaitMembership(); err != nil {
		return err
	}
	e.hotResult = make([][]byte, len(e.in.hot))
	for i, req := range e.in.hot {
		env, _, err := e.post(req)
		if err != nil {
			return fmt.Errorf("warming hot key %d: %w", i, err)
		}
		e.hotResult[i] = env.Result
	}
	return nil
}

// awaitMembership waits until the coordinator leases every worker and
// every worker's ring replica lists all its peers: before that, a worker's
// misses skip the peer probe they make afterwards.
func (e *clusterEnv) awaitMembership() error {
	key := simcache.KeyForExperiment("perfbench", 0, false)
	deadline := time.Now().Add(30 * time.Second)
	for {
		ready := e.liveWorkers() == clusterWorkers
		for _, w := range e.workers {
			ready = ready && len(w.Peers(key)) == clusterWorkers-1
		}
		if ready {
			return nil
		}
		if time.Now().After(deadline) {
			return errors.New("cluster did not form within 30s")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func (e *clusterEnv) liveWorkers() int {
	resp, err := e.client.Get(e.servers[0].URL + "/v1/cluster/members")
	if err != nil {
		return 0
	}
	defer resp.Body.Close()
	var reply struct {
		Members []json.RawMessage `json:"members"`
	}
	if json.NewDecoder(resp.Body).Decode(&reply) != nil {
		return 0
	}
	return len(reply.Members)
}

// post sends one request through the coordinator and waits for its result.
func (e *clusterEnv) post(req api.SimRequest) (envelope, time.Duration, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return envelope{}, 0, err
	}
	start := time.Now()
	resp, err := e.client.Post(e.servers[0].URL+"/v1/sim?wait=1", "application/json", bytes.NewReader(body))
	if err != nil {
		return envelope{}, time.Since(start), err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	d := time.Since(start)
	if err != nil {
		return envelope{}, d, err
	}
	if resp.StatusCode != http.StatusOK {
		return envelope{}, d, fmt.Errorf("%s: status %d: %s", req.Benchmark, resp.StatusCode, strings.TrimSpace(string(data)))
	}
	var env envelope
	if err := json.Unmarshal(data, &env); err != nil {
		return envelope{}, d, fmt.Errorf("decoding response: %w", err)
	}
	return env, d, nil
}

func (e *clusterEnv) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var errs []error
	for _, w := range e.workers {
		errs = append(errs, w.Close(ctx))
	}
	if e.coord != nil {
		errs = append(errs, e.coord.Close(ctx))
	}
	for _, s := range e.servers {
		s.Close()
	}
	e.client.CloseIdleConnections()
	if e.dir != "" {
		errs = append(errs, os.RemoveAll(e.dir))
	}
	return errors.Join(errs...)
}

// outcome is one request of the closed loop.
type outcome struct {
	dur    time.Duration
	cached bool
	result []byte
	err    error
}

// runBatch sends seq[from:to] through the closed loop and waits for all of
// it; a non-nil spans records client spans.
func (e *clusterEnv) runBatch(from, to int, out []outcome, spans *spanLog) time.Duration {
	var next atomic.Int64
	next.Store(int64(from))
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clusterClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= to {
					return
				}
				t0 := time.Now()
				env, d, err := e.post(e.in.seq[i])
				out[i] = outcome{dur: d, cached: env.Cached, result: env.Result, err: err}
				if spans != nil {
					spans.add("client", jobID(e.in.seq[i]), "", t0, t0.Add(d))
				}
			}
		}()
	}
	wg.Wait()
	return time.Since(start)
}

// clusterBatchStats is what one timed batch measured.
type clusterBatchStats struct {
	rate, p50, tail float64
	sims            float64
}

// yardstickEvery is how many requests run between two yardstick reads;
// the clients pause for each read, which is not timed.
const yardstickEvery = 250

func (e *clusterEnv) run(o *options, r *report, y *yardstick) error {
	out := make([]outcome, len(e.in.seq))
	e.runBatch(0, clusterWarmup, out, nil)

	var plain, traced []clusterBatchStats
	var tracedHit, tracedMiss []float64
	var spans *spanLog
	if o.trace {
		spans = newSpanLog()
	}
	before := readMem()
	for b := 0; b < e.batches; b++ {
		from := clusterWarmup + b*clusterBatch
		to := from + clusterBatch
		isTraced := o.trace && b%2 == 1
		var bspans *spanLog
		if isTraced {
			bspans = spans
			e.spans.Store(spans)
		}
		simsBefore := sim.Runs()
		var elapsed time.Duration
		for sub := from; sub < to; sub += yardstickEvery {
			y.read(1)
			elapsed += e.runBatch(sub, min(sub+yardstickEvery, to), out, bspans)
		}
		e.spans.Store(nil)
		var lat []float64
		for _, oc := range out[from:to] {
			lat = append(lat, ms(oc.dur))
		}
		s := summarize(lat)
		st := clusterBatchStats{
			rate: float64(clusterBatch) / elapsed.Seconds(),
			p50:  s.p50, tail: s.tail,
			sims: float64(sim.Runs()-simsBefore) / elapsed.Seconds(),
		}
		if isTraced {
			traced = append(traced, st)
			for i := from; i < to; i++ {
				if out[i].cached {
					tracedHit = append(tracedHit, ms(out[i].dur))
				} else {
					tracedMiss = append(tracedMiss, ms(out[i].dur))
				}
			}
		} else {
			plain = append(plain, st)
		}
	}
	mem := before.to(readMem())

	e.checkOutcomes(out, r)
	if err := e.checkStandalone(o, out, r); err != nil {
		return err
	}

	tailP, _ := tailPercentile(clusterBatch)
	rate := median(collect(plain, func(b clusterBatchStats) float64 { return b.rate }))
	r.notef("cdpd-cluster: %d clients closed loop, %d warm-up requests, %d timed batches of %d (+%d traced), seed %d (default %d, held-out %d)",
		clusterClients, clusterWarmup, len(plain), clusterBatch, len(traced), o.seed, defaultClusterSeed, heldOutClusterSeed)
	r.notef("per-batch requests/s, raw: %s", formatFloats(collect(plain, func(b clusterBatchStats) float64 { return b.rate })))
	r.notef("latency, raw: per batch N=%d, tail = p%g, medians over batches: p50 %.3fms, p%g %.3fms",
		clusterBatch, tailP, median(collect(plain, func(b clusterBatchStats) float64 { return b.p50 })),
		tailP, median(collect(plain, func(b clusterBatchStats) float64 { return b.tail })))
	if !o.trace {
		r.set("requests_per_s", rate, "1/s")
		r.set("sims_per_s", median(collect(plain, func(b clusterBatchStats) float64 { return b.sims })), "1/s")
		r.set("latency_p50_ms", median(collect(plain, func(b clusterBatchStats) float64 { return b.p50 })), "ms")
		r.set("latency_tail_ms", median(collect(plain, func(b clusterBatchStats) float64 { return b.tail })), "ms")
		return nil
	}

	r.set("workloads.generate_s", e.generateS, "s")
	misses := 0
	for _, m := range e.in.miss[clusterWarmup:] {
		if m {
			misses++
		}
	}
	setAllocMetrics(r, []memDelta{mem}, []float64{float64(misses)})
	e.spanMetrics(spans, r)
	hit, miss := summarize(tracedHit), summarize(tracedMiss)
	r.set("client.hit_p50_ms", hit.p50, "ms")
	r.set("client.miss_p50_ms", miss.p50, "ms")
	r.set("client.miss_tail_ms", miss.tail, "ms")
	r.notef("traced client round trips: hits N=%d, misses N=%d (miss tail p%g)", hit.n, miss.n, miss.tailP)
	if err := e.serverMetrics(r); err != nil {
		return err
	}
	r.set("trace.samples", float64(len(tracedHit)+len(tracedMiss)), "count")
	overhead(r, "requests_per_s", rate, median(collect(traced, func(b clusterBatchStats) float64 { return b.rate })))
	return spans.write(o, r)
}

// collect extracts one statistic from each batch.
func collect(bs []clusterBatchStats, f func(clusterBatchStats) float64) []float64 {
	var xs []float64
	for _, b := range bs {
		xs = append(xs, f(b))
	}
	return xs
}

// checkOutcomes counts every request and requires repeated hot keys to
// answer with the bytes the hot set was warmed with.
func (e *clusterEnv) checkOutcomes(out []outcome, r *report) {
	hotIndex := map[string]int{}
	for i, req := range e.in.hot {
		hotIndex[jobID(req)] = i
	}
	for i, oc := range out {
		err := oc.err
		if err == nil && !e.in.miss[i] {
			if want := e.hotResult[hotIndex[jobID(e.in.seq[i])]]; !bytes.Equal(oc.result, want) {
				err = fmt.Errorf("request %d: hot key answered differently from its warm-up", i)
			}
		}
		if err == nil && e.in.miss[i] && oc.cached {
			err = fmt.Errorf("request %d: a configuration never seen before was served from the cache", i)
		}
		r.op(err)
	}
}

// checkStandalone re-runs every hot key and a seeded sample of misses on a
// standalone in-process server and byte-compares the results with the
// cluster's: byte identity is the cluster's documented guarantee.
func (e *clusterEnv) checkStandalone(o *options, out []outcome, r *report) error {
	q := jobq.New(jobq.Config{Workers: clusterClients})
	srv, err := api.NewWithOptions(q, simcache.New(64<<20), api.Options{})
	if err != nil {
		return err
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = q.Shutdown(ctx) // every job finished before the comparison returned
	}()
	standalone := func(req api.SimRequest) ([]byte, error) {
		body, err := json.Marshal(req)
		if err != nil {
			return nil, err
		}
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/sim?wait=1", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			return nil, fmt.Errorf("standalone server answered %d", rec.Code)
		}
		var env envelope
		if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
			return nil, err
		}
		return env.Result, nil
	}
	compare := func(what string, req api.SimRequest, got []byte) {
		want, err := standalone(req)
		if err == nil && !bytes.Equal(got, want) {
			err = fmt.Errorf("%s: cluster result differs from the standalone server's", what)
		}
		r.op(err)
	}
	for i, req := range e.in.hot {
		compare(fmt.Sprintf("hot key %d", i), req, e.hotResult[i])
	}
	var missIdx []int
	for i := clusterWarmup; i < len(out); i++ {
		if e.in.miss[i] && out[i].err == nil {
			missIdx = append(missIdx, i)
		}
	}
	rng := rand.New(rand.NewSource(o.seed))
	rng.Shuffle(len(missIdx), func(a, b int) { missIdx[a], missIdx[b] = missIdx[b], missIdx[a] })
	for _, i := range missIdx[:min(missSample, len(missIdx))] {
		compare(fmt.Sprintf("miss request %d", i), e.in.seq[i], out[i].result)
	}
	r.notef("standalone byte comparison: %d hot keys, %d sampled misses", len(e.in.hot), min(missSample, len(missIdx)))
	return nil
}

// spanMetrics derives coordinator self time, worker time and the
// client-side network share from the traced batches' spans. A worker span
// belongs to the coordinator span with its job ID that encloses it.
func (e *clusterEnv) spanMetrics(spans *spanLog, r *report) {
	spans.mu.Lock()
	all := append([]span(nil), spans.spans...)
	spans.mu.Unlock()
	byName := map[string]map[string][]span{}
	for _, s := range all {
		if byName[s.Name] == nil {
			byName[s.Name] = map[string][]span{}
		}
		byName[s.Name][s.ID] = append(byName[s.Name][s.ID], s)
	}
	// enclosing finds the span among outer that contains inner.
	enclosing := func(outer []span, inner span) (span, bool) {
		for _, o := range outer {
			if o.StartNs <= inner.StartNs && inner.EndNs <= o.EndNs {
				return o, true
			}
		}
		return span{}, false
	}
	dur := func(s span) float64 { return float64(s.EndNs-s.StartNs) / 1e6 }
	var coordSelf, workerMS, net []float64
	for id, ws := range byName["worker"] {
		for _, w := range ws {
			workerMS = append(workerMS, dur(w))
			if c, ok := enclosing(byName["coordinator"][id], w); ok {
				coordSelf = append(coordSelf, dur(c)-dur(w))
			}
		}
	}
	for id, cos := range byName["coordinator"] {
		for _, co := range cos {
			if c, ok := enclosing(byName["client"][id], co); ok {
				net = append(net, dur(c)-dur(co))
			}
		}
	}
	cs, ws, ns := summarize(coordSelf), summarize(workerMS), summarize(net)
	r.set("cluster.coordinator_p50_ms", cs.p50, "ms")
	r.set("cluster.coordinator_tail_ms", cs.tail, "ms")
	r.set("api.worker_p50_ms", ws.p50, "ms")
	r.set("api.worker_tail_ms", ws.tail, "ms")
	r.set("client.net_p50_ms", ns.p50, "ms")
	r.notef("spans: coordinator self N=%d (tail p%g), worker N=%d (tail p%g), client-minus-coordinator N=%d",
		cs.n, cs.tailP, ws.n, ws.tailP, ns.n)
}

// serverMetrics reads the workers' latency histograms and the /metrics
// counters of every role.
func (e *clusterEnv) serverMetrics(r *report) error {
	merged := map[string]api.HistogramSnapshot{}
	for _, w := range e.workers {
		for name, snap := range w.API().LatencySnapshots() {
			m, ok := merged[name]
			if !ok {
				merged[name] = snap
				continue
			}
			if err := m.Merge(snap); err != nil {
				return err
			}
			merged[name] = m
		}
	}
	lookup, wait, run := merged["cdpd_cache_lookup"], merged["cdpd_queue_wait"], merged["cdpd_run_duration"]
	r.set("simcache.lookup_p50_ms", lookup.Quantile(0.5)*1e3, "ms")
	r.set("jobq.queue_wait_p50_ms", wait.Quantile(0.5)*1e3, "ms")
	r.set("jobq.queue_wait_p99_ms", wait.Quantile(0.99)*1e3, "ms")
	r.set("sim.run_p50_ms", run.Quantile(0.5)*1e3, "ms")
	r.set("sim.run_p99_ms", run.Quantile(0.99)*1e3, "ms")
	r.notef("worker histograms (whole run, bucket estimates): cache lookup N=%d, queue wait N=%d, run N=%d",
		lookup.Count, wait.Count, run.Count)

	sum := map[string]float64{}
	for i, s := range e.servers {
		vals, err := scrape(e.client, s.URL+"/metrics")
		if err != nil {
			return err
		}
		for k, v := range vals {
			if i == 0 {
				k = "coordinator:" + k
			}
			sum[k] += v
		}
	}
	hits, misses := sum["cdpd_cache_hits_total"], sum["cdpd_cache_misses_total"]
	r.set("simcache.hit_ratio", hits/(hits+misses), "ratio")
	r.set("simcache.collapsed", sum["cdpd_cache_collapsed_total"], "count")
	r.set("simcache.spill_writes", sum["cdpd_cache_spill_writes_total"], "count")
	r.set("simcache.spill_errors", sum["cdpd_cache_spill_errors_total"], "count")
	r.set("api.checkpoint_writes", sum["cdpd_checkpoint_writes_total"], "count")
	r.set("api.checkpoint_write_errors", sum["cdpd_checkpoint_write_errors_total"], "count")
	r.set("jobq.failed", sum["cdpd_jobs_failed_total"], "count")
	r.set("cluster.journal_writes", sum["coordinator:cdpd_cluster_journal_writes_total"], "count")
	r.set("cluster.journal_write_errors", sum["coordinator:cdpd_cluster_journal_write_errors_total"], "count")
	r.set("cluster.steals", sum["coordinator:cdpd_cluster_steals_total"], "count")
	r.set("cluster.hedges", sum["coordinator:cdpd_cluster_hedges_total"], "count")
	return nil
}

// scrape reads the unlabelled series of a Prometheus text exposition.
func scrape(c *http.Client, url string) (map[string]float64, error) {
	resp, err := c.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	vals := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") || strings.Contains(line, "{") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			vals[name] = v
		}
	}
	return vals, sc.Err()
}
