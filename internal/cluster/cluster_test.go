package cluster

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/faultinject"
	"repro/internal/jobq"
	"repro/internal/promtest"
	"repro/internal/sim"
	"repro/internal/simcache"
)

// envelope is the terminal /v1/sim and /v1/arena response shape.
type envelope struct {
	Cached bool            `json:"cached"`
	Result json.RawMessage `json:"result"`
}

// startCoordinator brings up a coordinator on an httptest listener.
func startCoordinator(t *testing.T, opts CoordinatorOptions) (*Coordinator, *httptest.Server) {
	t.Helper()
	if opts.Queue.Workers == 0 {
		opts.Queue = jobq.Config{Workers: 2, Capacity: 32}
	}
	c, err := NewCoordinator(opts)
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	ts := httptest.NewServer(c)
	t.Cleanup(func() {
		ts.Close()
		c.Close(t.Context())
	})
	return c, ts
}

// startWorker brings up a worker on an httptest listener whose URL is its
// advertised address. The listener must exist before the worker (the
// worker advertises its URL at registration), so the handler is swapped in
// after construction.
func startWorker(t *testing.T, joinURL, name string, opts WorkerOptions) (*Worker, *httptest.Server) {
	t.Helper()
	var handler atomic.Value // http.Handler
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if h, _ := handler.Load().(http.Handler); h != nil {
			h.ServeHTTP(w, r)
			return
		}
		http.Error(w, "starting", http.StatusServiceUnavailable)
	}))
	opts.Name = name
	opts.SelfURL = ts.URL
	opts.JoinURL = joinURL
	if opts.Queue.Workers == 0 {
		opts.Queue = jobq.Config{Workers: 2, Capacity: 32}
	}
	w, err := NewWorker(opts)
	if err != nil {
		ts.Close()
		t.Fatalf("NewWorker(%s): %v", name, err)
	}
	handler.Store(http.Handler(w))
	w.Start()
	t.Cleanup(func() {
		ts.Close()
		w.Close(t.Context())
	})
	return w, ts
}

// liveMembers counts the members holding a live lease.
func liveMembers(c *Coordinator) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.expireLocked(time.Now())
	return len(c.members)
}

// waitForWorkers polls the coordinator until n workers hold live leases.
func waitForWorkers(t *testing.T, c *Coordinator, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if liveMembers(c) == n {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("coordinator never reached %d live workers", n)
}

// postSimURL posts one request body to base/v1/sim?wait=1 and decodes the
// envelope.
func postSimURL(t *testing.T, base string, req api.SimRequest) (cached bool, result []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/sim?wait=1", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/sim: %v", err)
	}
	defer resp.Body.Close()
	payload, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/sim: %d %s", resp.StatusCode, payload)
	}
	var env envelope
	if err := json.Unmarshal(payload, &env); err != nil {
		t.Fatalf("bad envelope %s: %v", payload, err)
	}
	return env.Cached, env.Result
}

// standaloneResult runs req on a fresh single-process api.Server — the
// reference the cluster must agree with byte for byte.
func standaloneResult(t *testing.T, req api.SimRequest) []byte {
	t.Helper()
	queue := jobq.New(jobq.Config{Workers: 2, Capacity: 16})
	t.Cleanup(func() { queue.Shutdown(t.Context()) })
	s := api.New(queue, simcache.New(1<<24))
	req.Wait = true
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	w := httptest.NewRecorder()
	s.ServeHTTP(w, httptest.NewRequest("POST", "/v1/sim", bytes.NewReader(body)))
	if w.Code != http.StatusOK {
		t.Fatalf("standalone sim: %d %s", w.Code, w.Body)
	}
	var env envelope
	if err := json.Unmarshal(w.Body.Bytes(), &env); err != nil {
		t.Fatal(err)
	}
	return env.Result
}

// requestOwnedBy searches the ops axis for a request whose content key a
// specific member of the given ring owns, so tests can steer placements
// deterministically.
func requestOwnedBy(t *testing.T, owner string, members []string, baseOps, ckptEvery int) (api.SimRequest, string) {
	t.Helper()
	r := NewRing(DefaultVirtualNodes)
	r.SetMembers(members)
	for ops := baseOps; ops < baseOps+100_000; ops += 1000 {
		req := api.SimRequest{Benchmark: "quake", Ops: ops, CheckpointEveryOps: ckptEvery}
		spec, cfg, resolvedOps, err := api.ResolveSim(req)
		if err != nil {
			t.Fatal(err)
		}
		key := simcache.KeyFor(spec, cfg, resolvedOps)
		if name, _ := r.Owner(key); name == owner {
			return req, api.SimJobID(key)
		}
	}
	t.Fatalf("no ops near %d produced a key owned by %s", baseOps, owner)
	return api.SimRequest{}, ""
}

// scrape fetches a /metrics payload over HTTP and parses it.
func scrape(t *testing.T, base string) map[string]*promtest.Family {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %d %s", resp.StatusCode, body)
	}
	return promtest.ParseExposition(t, string(body))
}

// TestClusterExactlyOnceSharedTier is the tentpole's first acceptance
// test: a coordinator with two workers serves byte-identical results to a
// standalone daemon, the simulation runs exactly once cluster-wide, and
// the second request is served from the shared tier (cached, zero extra
// runs).
func TestClusterExactlyOnceSharedTier(t *testing.T) {
	coord, coordTS := startCoordinator(t, CoordinatorOptions{})
	startWorker(t, coordTS.URL, "w1", WorkerOptions{})
	startWorker(t, coordTS.URL, "w2", WorkerOptions{})
	waitForWorkers(t, coord, 2)

	req := api.SimRequest{Benchmark: "quake", Ops: 20_000}
	ref := standaloneResult(t, req)

	runsBefore := sim.Runs()
	cached1, res1 := postSimURL(t, coordTS.URL, req)
	cached2, res2 := postSimURL(t, coordTS.URL, req)
	if delta := sim.Runs() - runsBefore; delta != 1 {
		t.Errorf("cluster ran the simulation %d times, want exactly 1", delta)
	}
	if cached1 {
		t.Errorf("first request reported cached")
	}
	if !cached2 {
		t.Errorf("second request not served from the shared tier")
	}
	if !bytes.Equal(res1, ref) {
		t.Errorf("cluster result differs from standalone:\ncluster    %s\nstandalone %s", res1, ref)
	}
	if !bytes.Equal(res1, res2) {
		t.Errorf("second (cached) result differs from first")
	}
}

// workerCacheStats sums the in-memory tier counters of workers: any
// request a worker receives moves them, a hit or a miss alike.
func workerCacheStats(workers ...*Worker) simcache.Stats {
	var sum simcache.Stats
	for _, w := range workers {
		st := w.tiered.Stats()
		sum.Hits += st.Hits
		sum.Misses += st.Misses
		sum.Collapsed += st.Collapsed
	}
	return sum
}

// TestClusterCoordinatorAnswersRepeat: a repeat of an answered request is
// served from the coordinator's own cache, with the first answer's bytes
// and cached true. It runs no simulation, reaches no worker, creates no
// coordinator job and journals nothing.
func TestClusterCoordinatorAnswersRepeat(t *testing.T) {
	coord, coordTS := startCoordinator(t, CoordinatorOptions{StateDir: t.TempDir()})
	w1, _ := startWorker(t, coordTS.URL, "w1", WorkerOptions{})
	w2, _ := startWorker(t, coordTS.URL, "w2", WorkerOptions{})
	waitForWorkers(t, coord, 2)

	req := api.SimRequest{Benchmark: "quake", Ops: 17_000}
	cached, res1 := postSimURL(t, coordTS.URL, req)
	if cached {
		t.Fatalf("first request reported cached")
	}

	journalWrites := func() float64 {
		return scrape(t, coordTS.URL)["cdpd_cluster_journal_writes_total"].Value(t, 0)
	}
	runs, jobs, writes, workers := sim.Runs(), coord.queue.Stats(), journalWrites(), workerCacheStats(w1, w2)

	cached, res2 := postSimURL(t, coordTS.URL, req)
	if !cached {
		t.Errorf("repeat through the coordinator answered cached false")
	}
	if !bytes.Equal(res2, res1) {
		t.Errorf("repeat's result differs from the first answer:\nfirst  %s\nrepeat %s", res1, res2)
	}
	if delta := sim.Runs() - runs; delta != 0 {
		t.Errorf("repeat ran %d simulations, want 0", delta)
	}
	if got := workerCacheStats(w1, w2); got != workers {
		t.Errorf("repeat reached a worker: worker cache counters %+v, were %+v", got, workers)
	}
	if got := coord.queue.Stats(); got.Completed != jobs.Completed || got.Failed != jobs.Failed {
		t.Errorf("repeat made a coordinator job: completed %d → %d, failed %d → %d",
			jobs.Completed, got.Completed, jobs.Failed, got.Failed)
	}
	if got := journalWrites(); got != writes {
		t.Errorf("repeat journaled %v records, want 0", got-writes)
	}
}

// TestClusterArenaCellsCachedOnCoordinator: a coordinator arena answers
// the cells an earlier arena filled from its own cache, so a second arena
// that shares the stride baseline and the cdp cell places only its new
// cell on a worker.
func TestClusterArenaCellsCachedOnCoordinator(t *testing.T) {
	coord, coordTS := startCoordinator(t, CoordinatorOptions{})
	w1, _ := startWorker(t, coordTS.URL, "w1", WorkerOptions{})
	w2, _ := startWorker(t, coordTS.URL, "w2", WorkerOptions{})
	waitForWorkers(t, coord, 2)

	arena := func(engines string) {
		t.Helper()
		resp, err := http.Get(coordTS.URL + "/v1/arena?ops=16000&benchmarks=quake&wait=1&engines=" + engines)
		if err != nil {
			t.Fatal(err)
		}
		payload, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("arena %s: %d %s", engines, resp.StatusCode, payload)
		}
	}
	arena("cdp")
	runs, before := sim.Runs(), workerCacheStats(w1, w2)
	arena("cdp,pangloss")
	after := workerCacheStats(w1, w2)
	if hits := after.Hits - before.Hits; hits != 0 {
		t.Errorf("second arena placed %d shared cells on workers, want 0", hits)
	}
	if misses := after.Misses - before.Misses; misses != 1 {
		t.Errorf("second arena missed %d times on the workers, want 1 (the pangloss cell)", misses)
	}
	if delta := sim.Runs() - runs; delta != 1 {
		t.Errorf("second arena ran %d simulations, want 1", delta)
	}
}

// TestClusterCoordinatorAnswersWithoutWorkers: once every worker has left,
// the coordinator still answers what it has cached, and a miss gets 503.
func TestClusterCoordinatorAnswersWithoutWorkers(t *testing.T) {
	coord, coordTS := startCoordinator(t, CoordinatorOptions{})
	w1, _ := startWorker(t, coordTS.URL, "w1", WorkerOptions{})
	waitForWorkers(t, coord, 1)

	req := api.SimRequest{Benchmark: "quake", Ops: 14_000}
	_, want := postSimURL(t, coordTS.URL, req)
	if err := w1.Close(t.Context()); err != nil {
		t.Fatal(err)
	}
	waitForWorkers(t, coord, 0)

	cached, got := postSimURL(t, coordTS.URL, req)
	if !cached || !bytes.Equal(got, want) {
		t.Errorf("repeat with no live workers: cached %v, result equal %v; want cached and equal", cached, bytes.Equal(got, want))
	}
	body, _ := json.Marshal(api.SimRequest{Benchmark: "quake", Ops: 14_001})
	resp, err := http.Post(coordTS.URL+"/v1/sim?wait=1", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	payload, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("new request with no live workers: %d %s, want 503", resp.StatusCode, payload)
	}
}

// TestClusterPeerFetch: when a join moves a key's ownership, the new owner
// serves it by fetching from the previous owner's cache tier instead of
// recomputing. The re-request goes to w2 itself, as a placement would:
// through the coordinator it is answered from the coordinator's own cache
// (TestClusterCoordinatorAnswersRepeat).
func TestClusterPeerFetch(t *testing.T) {
	coord, coordTS := startCoordinator(t, CoordinatorOptions{})
	startWorker(t, coordTS.URL, "w1", WorkerOptions{})
	waitForWorkers(t, coord, 1)

	// A request whose key w2 will own once it joins — but computed now,
	// while w1 is the whole ring.
	req, _ := requestOwnedBy(t, "w2", []string{"w1", "w2"}, 20_000, 0)
	_, res1 := postSimURL(t, coordTS.URL, req)

	w2, w2TS := startWorker(t, coordTS.URL, "w2", WorkerOptions{})
	waitForWorkers(t, coord, 2)
	// The coordinator admits w2 before w2 applies the reply that names w1,
	// and w2 fetches only from the peers its ring replica names.
	spec, cfg, ops, err := api.ResolveSim(req)
	if err != nil {
		t.Fatal(err)
	}
	key := simcache.KeyFor(spec, cfg, ops)
	for deadline := time.Now().Add(10 * time.Second); len(w2.Peers(key)) == 0; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("w2's ring replica never named w1")
		}
	}

	runsBefore := sim.Runs()
	_, res2 := postSimURL(t, w2TS.URL, req)
	if delta := sim.Runs() - runsBefore; delta != 0 {
		t.Errorf("re-request after rebalance ran %d simulations, want 0 (peer fetch)", delta)
	}
	if got := w2.TierStats().PeerHits; got < 1 {
		t.Errorf("w2 peer hits = %d, want >= 1", got)
	}
	if !bytes.Equal(res1, res2) {
		t.Errorf("peer-fetched result differs:\nbefore %s\nafter  %s", res1, res2)
	}
}

// TestClusterStealResumesFromCheckpoint is the kill-mid-job drill: the
// owner dies while simulating, the coordinator steals the job for the
// survivor, and the survivor resumes from the shared checkpoint snapshot —
// finishing with bytes identical to an uninterrupted standalone run.
func TestClusterStealResumesFromCheckpoint(t *testing.T) {
	ckptDir := t.TempDir()
	coord, coordTS := startCoordinator(t, CoordinatorOptions{LeaseTTL: 60 * time.Second})
	workerOpts := func() WorkerOptions {
		return WorkerOptions{API: api.Options{CheckpointDir: ckptDir}}
	}
	_, w1TS := startWorker(t, coordTS.URL, "w1", workerOpts())
	w2, w2TS := startWorker(t, coordTS.URL, "w2", workerOpts())
	waitForWorkers(t, coord, 2)

	// A long, finely checkpointed run owned by w1.
	req, jobID := requestOwnedBy(t, "w1", []string{"w1", "w2"}, 2_000_000, 50_000)
	ref := standaloneResult(t, req)

	// Submit asynchronously; the coordinator answers 202 and forwards in
	// the background.
	body, _ := json.Marshal(req)
	resp, err := http.Post(coordTS.URL+"/v1/sim", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async submit: %d", resp.StatusCode)
	}

	// Wait until w1 has persisted at least one boundary snapshot, then
	// kill it mid-job.
	snapPath := filepath.Join(ckptDir, jobID+".snap")
	deadline := time.Now().Add(30 * time.Second)
	for {
		if _, err := os.Stat(snapPath); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("w1 never persisted a snapshot")
		}
		time.Sleep(10 * time.Millisecond)
	}
	w1TS.CloseClientConnections()
	w1TS.Close()

	// The coordinator's in-flight forward fails, drops w1, and re-routes
	// to w2, which resumes from the snapshot. Poll the coordinator's job
	// view until the external job completes.
	var view struct {
		State  jobq.State      `json:"state"`
		Error  string          `json:"error"`
		Result json.RawMessage `json:"result"`
	}
	deadline = time.Now().Add(60 * time.Second)
	for {
		r, err := http.Get(coordTS.URL + "/v1/jobs/" + jobID)
		if err != nil {
			t.Fatal(err)
		}
		payload, _ := io.ReadAll(r.Body)
		r.Body.Close()
		if err := json.Unmarshal(payload, &view); err != nil {
			t.Fatalf("job view %s: %v", payload, err)
		}
		if view.State.Terminal() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("stolen job never finished (state %s)", view.State)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if view.State != jobq.StateDone {
		t.Fatalf("stolen job ended %s: %s", view.State, view.Error)
	}
	if !bytes.Equal(view.Result, ref) {
		t.Errorf("stolen+resumed result differs from uninterrupted standalone run:\nstolen     %s\nstandalone %s",
			view.Result, ref)
	}

	if got := coord.steals.Load(); got < 1 {
		t.Errorf("coordinator recorded %d steals, want >= 1", got)
	}
	// The survivor must have resumed from the snapshot rather than
	// restarting at op zero.
	fams := scrape(t, w2TS.URL)
	if fam := fams["cdpd_jobs_resumed_total"]; fam == nil || fam.Value(t, 0) < 1 {
		t.Errorf("w2 resumed no jobs from the shared checkpoint dir")
	}
	_ = w2
}

// TestWorkerWritesOnlySnapshots: a worker records no requests, since the
// coordinator records what it accepted. A segmented job that dies on a
// worker after two boundaries leaves its snapshot in the worker's
// checkpoint directory and no request record; its retry resumes the
// snapshot and leaves nothing.
func TestWorkerWritesOnlySnapshots(t *testing.T) {
	ckptDir := t.TempDir()
	coord, coordTS := startCoordinator(t, CoordinatorOptions{LeaseTTL: 60 * time.Second})
	_, w1TS := startWorker(t, coordTS.URL, "w1", WorkerOptions{API: api.Options{CheckpointDir: ckptDir}})
	waitForWorkers(t, coord, 1)

	req := api.SimRequest{Benchmark: "b2c", Ops: 10_000, CheckpointEveryOps: 2000}
	prev := faultinject.Enable(faultinject.MustParse(11, "sim.checkpoint.abort:after=2"))
	code, payload := postSimRaw(t, coordTS.URL, req, -1)
	faultinject.Enable(prev)
	if code != http.StatusInternalServerError {
		t.Fatalf("aborted job answered %d %s, want 500", code, payload)
	}
	files, err := filepath.Glob(filepath.Join(ckptDir, "*"))
	if err != nil || len(files) != 1 || filepath.Ext(files[0]) != ".snap" {
		t.Fatalf("worker checkpoint dir after a failed job = %v (%v), want its snapshot alone", files, err)
	}

	if _, result := postSimURL(t, coordTS.URL, req); !bytes.Equal(result, standaloneResult(t, req)) {
		t.Errorf("resumed retry differs from standalone")
	}
	if got := scrape(t, w1TS.URL)["cdpd_jobs_resumed_total"].Value(t, 0); got != 1 {
		t.Errorf("worker resumed %v jobs, want 1", got)
	}
	if files, _ := filepath.Glob(filepath.Join(ckptDir, "*")); len(files) != 0 {
		t.Errorf("worker checkpoint dir after success = %v, want empty", files)
	}
}

// TestClusterLeaseExpiry: a registered worker that stops heartbeating is
// dropped by the sweeper, and readiness reflects the empty ring.
func TestClusterLeaseExpiry(t *testing.T) {
	coord, coordTS := startCoordinator(t, CoordinatorOptions{LeaseTTL: 150 * time.Millisecond})

	// Register a bare member by hand — no heartbeat loop behind it.
	body, _ := json.Marshal(joinRequest{Name: "ghost", URL: "http://127.0.0.1:1"})
	resp, err := http.Post(coordTS.URL+"/v1/cluster/register", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("register: %d", resp.StatusCode)
	}
	waitForWorkers(t, coord, 1)
	waitForWorkers(t, coord, 0) // sweeper expires the lease

	r, err := http.Get(coordTS.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, r.Body)
	r.Body.Close()
	if r.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz with no workers: %d, want 503", r.StatusCode)
	}
}

// TestClusterArenaFanout: a distributed arena sweep produces bytes
// identical to a standalone daemon's sweep of the same matrix, computing
// each cell exactly once across the fleet.
func TestClusterArenaFanout(t *testing.T) {
	coord, coordTS := startCoordinator(t, CoordinatorOptions{})
	startWorker(t, coordTS.URL, "w1", WorkerOptions{})
	startWorker(t, coordTS.URL, "w2", WorkerOptions{})
	waitForWorkers(t, coord, 2)

	const params = "ops=20000&benchmarks=quake&engines=cdp"

	// Standalone reference: submit, then poll the arena job.
	queue := jobq.New(jobq.Config{Workers: 2, Capacity: 16})
	t.Cleanup(func() { queue.Shutdown(t.Context()) })
	ref := api.New(queue, simcache.New(1<<24))
	w := httptest.NewRecorder()
	ref.ServeHTTP(w, httptest.NewRequest("GET", "/v1/arena?"+params, nil))
	if w.Code != http.StatusAccepted {
		t.Fatalf("standalone arena submit: %d %s", w.Code, w.Body)
	}
	var sub struct {
		JobID string `json:"job_id"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &sub); err != nil {
		t.Fatal(err)
	}
	var refResult []byte
	deadline := time.Now().Add(60 * time.Second)
	for {
		w := httptest.NewRecorder()
		ref.ServeHTTP(w, httptest.NewRequest("GET", "/v1/jobs/"+sub.JobID, nil))
		var view struct {
			State  jobq.State      `json:"state"`
			Error  string          `json:"error"`
			Result json.RawMessage `json:"result"`
		}
		if err := json.Unmarshal(w.Body.Bytes(), &view); err != nil {
			t.Fatal(err)
		}
		if view.State.Terminal() {
			if view.State != jobq.StateDone {
				t.Fatalf("standalone arena ended %s: %s", view.State, view.Error)
			}
			refResult = view.Result
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("standalone arena never finished")
		}
		time.Sleep(20 * time.Millisecond)
	}

	runsBefore := sim.Runs()
	resp, err := http.Get(coordTS.URL + "/v1/arena?" + params + "&wait=1")
	if err != nil {
		t.Fatal(err)
	}
	payload, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cluster arena: %d %s", resp.StatusCode, payload)
	}
	var env envelope
	if err := json.Unmarshal(payload, &env); err != nil {
		t.Fatal(err)
	}
	// One baseline cell + one cdp cell, each exactly once cluster-wide.
	if delta := sim.Runs() - runsBefore; delta != 2 {
		t.Errorf("distributed arena ran %d simulations, want 2", delta)
	}
	if !bytes.Equal(env.Result, refResult) {
		t.Errorf("distributed arena differs from standalone:\ncluster    %s\nstandalone %s", env.Result, refResult)
	}
}

// TestClusterMetrics: the coordinator's /metrics passes the exposition
// parser and carries the cluster series with believable values.
func TestClusterMetrics(t *testing.T) {
	coord, coordTS := startCoordinator(t, CoordinatorOptions{})
	startWorker(t, coordTS.URL, "w1", WorkerOptions{})
	startWorker(t, coordTS.URL, "w2", WorkerOptions{})
	waitForWorkers(t, coord, 2)

	postSimURL(t, coordTS.URL, api.SimRequest{Benchmark: "quake", Ops: 15_000})

	fams := scrape(t, coordTS.URL)
	for _, name := range []string{
		"cdpd_cluster_workers_live", "cdpd_cluster_steals_total",
		"cdpd_cluster_rebalances_total", "cdpd_cluster_generation",
		"cdpd_cluster_worker_inflight",
		"cdpd_cluster_readopted_total", "cdpd_cluster_placements_open",
	} {
		if fams[name] == nil || len(fams[name].Samples) == 0 {
			t.Errorf("cluster series %s missing from coordinator /metrics", name)
		}
	}
	if got := fams["cdpd_cluster_workers_live"].Value(t, 0); got != 2 {
		t.Errorf("workers_live = %v, want 2", got)
	}
	if got := len(fams["cdpd_cluster_worker_inflight"].Samples); got != 2 {
		t.Errorf("worker_inflight has %d labelled samples, want 2", got)
	}
	for _, sample := range fams["cdpd_cluster_worker_inflight"].Samples {
		if !strings.Contains(sample, `worker="w1"`) && !strings.Contains(sample, `worker="w2"`) {
			t.Errorf("inflight sample %q lacks a worker label", sample)
		}
	}
	// Rebalances: two joins = at least two ring rebuilds.
	if got := fams["cdpd_cluster_rebalances_total"].Value(t, 0); got < 2 {
		t.Errorf("rebalances_total = %v after two joins, want >= 2", got)
	}
}

// TestClusterRunHistogramReconciles checks the workers' run-duration
// histograms against what concurrent clients observed. With every request
// a distinct content key, each success ran exactly one simulation, so the
// merged count equals the successes; and each round trip contains its run,
// so the mean round trip is at least the mean run.
func TestClusterRunHistogramReconciles(t *testing.T) {
	coord, coordTS := startCoordinator(t, CoordinatorOptions{})
	w1, _ := startWorker(t, coordTS.URL, "w1", WorkerOptions{})
	w2, _ := startWorker(t, coordTS.URL, "w2", WorkerOptions{})
	waitForWorkers(t, coord, 2)

	const requests = 6
	rtts := make([]time.Duration, requests) // zero marks a failed request
	var wg sync.WaitGroup
	for i := 0; i < requests; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body, err := json.Marshal(api.SimRequest{Benchmark: "quake", Ops: 4000 + i, CDP: true})
			if err != nil {
				t.Error(err)
				return
			}
			start := time.Now()
			resp, err := http.Post(coordTS.URL+"/v1/sim?wait=1", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
			payload, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("request %d: %d %s", i, resp.StatusCode, payload)
				return
			}
			rtts[i] = time.Since(start)
		}(i)
	}
	wg.Wait()

	successes, rttSum := 0, time.Duration(0)
	for _, d := range rtts {
		if d > 0 {
			successes++
			rttSum += d
		}
	}
	run := w1.API().LatencySnapshots()["cdpd_run_duration"]
	if err := run.Merge(w2.API().LatencySnapshots()["cdpd_run_duration"]); err != nil {
		t.Fatal(err)
	}
	if successes != requests || run.Count != requests {
		t.Fatalf("%d of %d requests succeeded and the workers observed %d runs; want %d of each",
			successes, requests, run.Count, requests)
	}
	rttMean := rttSum.Seconds() / requests
	runMean := run.SumSecs / float64(run.Count)
	if rttMean < runMean {
		t.Errorf("mean client round trip %.3f ms is below the mean server run %.3f ms", rttMean*1e3, runMean*1e3)
	}
}

// TestClusterNoWorkers: with an empty ring, a waited submission fails with
// 503 rather than hanging.
func TestClusterNoWorkers(t *testing.T) {
	_, coordTS := startCoordinator(t, CoordinatorOptions{})
	body, _ := json.Marshal(api.SimRequest{Benchmark: "quake", Ops: 10_000, Wait: true})
	resp, err := http.Post(coordTS.URL+"/v1/sim", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	payload, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit with no workers: %d %s, want 503", resp.StatusCode, payload)
	}
	if !strings.Contains(string(payload), "no live workers") {
		t.Errorf("error %s does not name the cause", payload)
	}
}

// TestClusterTraceRedirect: trace requests are redirected to the worker
// that ran the job.
func TestClusterTraceRedirect(t *testing.T) {
	coord, coordTS := startCoordinator(t, CoordinatorOptions{})
	_, w1TS := startWorker(t, coordTS.URL, "w1", WorkerOptions{})
	waitForWorkers(t, coord, 1)

	req := api.SimRequest{Benchmark: "quake", Ops: 15_000, Trace: true}
	spec, cfg, ops, err := api.ResolveSim(req)
	if err != nil {
		t.Fatal(err)
	}
	jobID := api.SimJobID(simcache.KeyFor(spec, cfg, ops))
	postSimURL(t, coordTS.URL, req)

	client := &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error {
		return http.ErrUseLastResponse
	}}
	resp, err := client.Get(coordTS.URL + "/v1/jobs/" + jobID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTemporaryRedirect {
		t.Fatalf("trace redirect: %d, want 307", resp.StatusCode)
	}
	want := w1TS.URL + "/v1/jobs/" + jobID + "/trace"
	if got := resp.Header.Get("Location"); got != want {
		t.Fatalf("trace Location = %q, want %q", got, want)
	}
}

// TestWorkerCacheEndpoint: the peer-tier endpoint serves resident keys
// raw, 404s missing ones, and rejects malformed keys.
func TestWorkerCacheEndpoint(t *testing.T) {
	coord, coordTS := startCoordinator(t, CoordinatorOptions{})
	_, w1TS := startWorker(t, coordTS.URL, "w1", WorkerOptions{})
	waitForWorkers(t, coord, 1)

	req := api.SimRequest{Benchmark: "quake", Ops: 15_000}
	spec, cfg, ops, err := api.ResolveSim(req)
	if err != nil {
		t.Fatal(err)
	}
	key := simcache.KeyFor(spec, cfg, ops)
	_, want := postSimURL(t, coordTS.URL, req)

	resp, err := http.Get(w1TS.URL + simcache.PeerCachePath + key.Hex())
	if err != nil {
		t.Fatal(err)
	}
	got, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cache endpoint: %d %s", resp.StatusCode, got)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("cache endpoint served different bytes than the sim envelope")
	}

	for path, wantCode := range map[string]int{
		simcache.PeerCachePath + strings.Repeat("00", 32): http.StatusNotFound,
		simcache.PeerCachePath + "zz":                     http.StatusBadRequest,
	} {
		resp, err := http.Get(w1TS.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != wantCode {
			t.Errorf("GET %s: %d, want %d", path, resp.StatusCode, wantCode)
		}
	}
}
