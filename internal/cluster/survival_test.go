package cluster

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/faultinject"
	"repro/internal/jobq"
	"repro/internal/sim"
)

// swapCoordinator is a coordinator address that outlives the coordinator
// process behind it: the listener stays up across a "SIGKILL" and restart,
// the way a fixed host:port does in production. swap(nil) makes the address
// a dead process (connections abort mid-request); swap(c) boots a new
// incarnation on the same address.
type swapCoordinator struct {
	ts      *httptest.Server
	current atomic.Value // *Coordinator (may hold (*Coordinator)(nil))
}

func newSwapCoordinator(t *testing.T) *swapCoordinator {
	t.Helper()
	sc := &swapCoordinator{}
	sc.current.Store((*Coordinator)(nil))
	sc.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if c, _ := sc.current.Load().(*Coordinator); c != nil {
			c.ServeHTTP(w, r)
			return
		}
		panic(http.ErrAbortHandler) // dead process: abort the connection
	}))
	t.Cleanup(sc.ts.Close)
	return sc
}

func (sc *swapCoordinator) swap(c *Coordinator) { sc.current.Store(c) }

// submitAsync posts without wait and returns once the coordinator has
// accepted (202) the placement.
func submitAsync(t *testing.T, base string, req api.SimRequest) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/sim", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async submit: %d", resp.StatusCode)
	}
}

// waitForSnapshot blocks until the job's first boundary snapshot exists.
func waitForSnapshot(t *testing.T, ckptDir, jobID string) {
	t.Helper()
	snapPath := filepath.Join(ckptDir, jobID+".snap")
	deadline := time.Now().Add(30 * time.Second)
	for {
		if _, err := os.Stat(snapPath); err == nil {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("owner never persisted a snapshot")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// pollJob polls base/v1/jobs/{id} until the job is terminal and returns its
// final view.
func pollJob(t *testing.T, base, jobID string) (state jobq.State, errMsg string, result []byte) {
	t.Helper()
	var view struct {
		State  jobq.State      `json:"state"`
		Error  string          `json:"error"`
		Result json.RawMessage `json:"result"`
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		r, err := http.Get(base + "/v1/jobs/" + jobID)
		if err != nil {
			t.Fatal(err)
		}
		payload, _ := io.ReadAll(r.Body)
		r.Body.Close()
		if r.StatusCode == http.StatusOK {
			if err := json.Unmarshal(payload, &view); err != nil {
				t.Fatalf("job view %s: %v", payload, err)
			}
			if view.State.Terminal() {
				return view.State, view.Error, view.Result
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never finished (state %s)", jobID, view.State)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestCoordinatorRestartReadoptsPlacement is the crash-recovery acceptance
// test: a coordinator with -state-dir is killed (journal closed first, like
// a dead process) while a checkpointed placement is in flight, and the
// job's request record stays in the state dir. A new incarnation over the
// same state dir re-adopts the fleet from the journal, resubmits the record
// through its front end, which re-routes it to the key's current owner,
// and the job completes byte-identically with the simulation run exactly
// once — the worker-side content-keyed dedup absorbs the re-placement —
// and clears its record.
func TestCoordinatorRestartReadoptsPlacement(t *testing.T) {
	stateDir := t.TempDir()
	ckptDir := t.TempDir()
	opts := CoordinatorOptions{
		LeaseTTL:   60 * time.Second,
		StateDir:   stateDir,
		HedgeDelay: 5 * time.Minute, // keep hedging out of the exactly-once count
	}

	sc := newSwapCoordinator(t)
	coord1, err := NewCoordinator(opts)
	if err != nil {
		t.Fatal(err)
	}
	sc.swap(coord1)

	workerOpts := func() WorkerOptions {
		return WorkerOptions{API: api.Options{CheckpointDir: ckptDir}}
	}
	startWorker(t, sc.ts.URL, "w1", workerOpts())
	startWorker(t, sc.ts.URL, "w2", workerOpts())
	waitForWorkers(t, coord1, 2)

	req, jobID := requestOwnedBy(t, "w1", []string{"w1", "w2"}, 2_000_000, 50_000)
	ref := standaloneResult(t, req)
	runs0 := sim.Runs()

	submitAsync(t, sc.ts.URL, req)
	waitForSnapshot(t, ckptDir, jobID)

	// SIGKILL the coordinator mid-placement: the kill neither succeeds nor
	// cancels the job, so its request record stays on disk.
	sc.swap(nil)
	coord1.Kill()

	record := filepath.Join(stateDir, jobID+".req.json")
	if _, err := os.Stat(record); err != nil {
		t.Fatalf("killed coordinator lost the in-flight job's request record: %v", err)
	}
	state, err := replayJournal(filepath.Join(stateDir, journalFile))
	if err != nil {
		t.Fatal(err)
	}
	if len(state.Members) != 2 {
		t.Fatalf("journal members = %v, want w1 and w2", state.Members)
	}

	// Restart over the same state dir and address. Recovery re-leases the
	// journaled members and re-routes the recorded job.
	coord2, err := NewCoordinator(opts)
	if err != nil {
		t.Fatal(err)
	}
	sc.swap(coord2)
	t.Cleanup(func() { coord2.Close(t.Context()) })

	waitForWorkers(t, coord2, 2)
	if got := coord2.readopted.Load(); got != 1 {
		t.Fatalf("restarted coordinator re-adopted %d jobs, want 1", got)
	}

	gotState, errMsg, result := pollJob(t, sc.ts.URL, jobID)
	if gotState != jobq.StateDone {
		t.Fatalf("re-adopted job ended %s: %s", gotState, errMsg)
	}
	if !bytes.Equal(result, ref) {
		t.Errorf("re-adopted result differs from uninterrupted standalone run:\nre-adopted %s\nstandalone %s", result, ref)
	}
	if delta := sim.Runs() - runs0; delta != 1 {
		t.Errorf("simulation ran %d times across the crash, want exactly once", delta)
	}

	// Success cleared the record before the job reached done.
	if _, err := os.Stat(record); !os.IsNotExist(err) {
		t.Errorf("request record still present after the re-adopted job finished (%v)", err)
	}

	// Re-adoption fills the restarted coordinator's cache as any placement
	// does, so a repeat is answered there and records nothing.
	if cached, again := postSimURL(t, sc.ts.URL, req); !cached || !bytes.Equal(again, ref) {
		t.Errorf("repeat of the re-adopted job: cached %v, result equal %v; want cached and equal", cached, bytes.Equal(again, ref))
	}
	if left, _ := filepath.Glob(filepath.Join(stateDir, "*.req.json")); len(left) != 0 {
		t.Errorf("request records left after the repeat: %v", left)
	}

	fams := scrape(t, sc.ts.URL)
	for _, name := range []string{"cdpd_cluster_journal_writes_total", "cdpd_cluster_journal_write_errors_total"} {
		if fams[name] == nil {
			t.Errorf("journal series %s missing with -state-dir set", name)
		}
	}
	if got := fams["cdpd_cluster_readopted_total"].Value(t, 0); got != 1 {
		t.Errorf("readopted_total = %v, want 1", got)
	}
}

// TestRegisterJitterSpread: re-registration backoff is deterministic per
// (name, attempt) yet spread across the half-open window [base/2, base), so
// a fleet orphaned by the same coordinator crash does not stampede the
// restarted process in lockstep.
func TestRegisterJitterSpread(t *testing.T) {
	names := make([]string, 32)
	for i := range names {
		names[i] = "worker-" + strconv.Itoa(i)
	}

	for attempt, base := range map[int]time.Duration{
		0: registerBackoffMin,
		1: registerBackoffMin << 1,
		3: registerBackoffMax,
		9: registerBackoffMax, // capped
	} {
		distinct := map[time.Duration]bool{}
		for _, name := range names {
			d := registerJitter(name, attempt)
			if d < base/2 || d >= base {
				t.Fatalf("registerJitter(%s, %d) = %v outside [%v, %v)", name, attempt, d, base/2, base)
			}
			if d != registerJitter(name, attempt) {
				t.Fatalf("registerJitter(%s, %d) not deterministic", name, attempt)
			}
			distinct[d] = true
		}
		// 32 workers must not collapse onto a handful of instants.
		if len(distinct) < len(names)/2 {
			t.Errorf("attempt %d: %d workers share %d distinct delays — herd not spread", attempt, len(names), len(distinct))
		}
	}

	// Successive attempts for one name move through the window too.
	if registerJitter("w1", 0) == registerJitter("w1", 1)*1 && registerJitter("w1", 1) == registerJitter("w1", 2) {
		t.Error("attempts do not vary the delay")
	}
}

// postSimRaw posts a waited request, with an explicit retry-budget header
// when budget is not negative, and returns the status and body answered.
func postSimRaw(t *testing.T, base string, req api.SimRequest, budget int) (int, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hreq, err := http.NewRequest("POST", base+"/v1/sim?wait=1", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	if budget >= 0 {
		hreq.Header.Set(api.RetryBudgetHeader, strconv.Itoa(budget))
	}
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	payload, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, payload
}

// postSimBudget posts a waited request with an explicit retry-budget header
// and returns the result bytes.
func postSimBudget(t *testing.T, base string, req api.SimRequest, budget int) []byte {
	t.Helper()
	code, payload := postSimRaw(t, base, req, budget)
	if code != http.StatusOK {
		t.Fatalf("POST /v1/sim: %d %s", code, payload)
	}
	var env envelope
	if err := json.Unmarshal(payload, &env); err != nil {
		t.Fatalf("bad envelope %s: %v", payload, err)
	}
	return env.Result
}

// TestHedgedPlacement: with cluster.hedge.fire armed the straggler delay
// collapses to zero, so a second placement races the primary on the key's
// next successor. First completion wins, the result stays byte-identical to
// standalone, and a client retry budget of zero remaining suppresses the
// hedge entirely — the budget caps primaries + steals + hedges together.
func TestHedgedPlacement(t *testing.T) {
	coord, coordTS := startCoordinator(t, CoordinatorOptions{LeaseTTL: 60 * time.Second})
	startWorker(t, coordTS.URL, "w1", WorkerOptions{})
	startWorker(t, coordTS.URL, "w2", WorkerOptions{})
	waitForWorkers(t, coord, 2)

	prev := faultinject.Enable(faultinject.MustParse(1, "cluster.hedge.fire"))
	defer faultinject.Enable(prev)

	req, _ := requestOwnedBy(t, "w1", []string{"w1", "w2"}, 400_000, 0)
	ref := standaloneResult(t, req)

	if _, result := postSimURL(t, coordTS.URL, req); !bytes.Equal(result, ref) {
		t.Errorf("hedged result differs from standalone:\nhedged     %s\nstandalone %s", result, ref)
	}
	hedged := coord.hedges.Load()
	if hedged < 1 {
		t.Fatalf("hedges = %d with cluster.hedge.fire armed, want >= 1", hedged)
	}

	// Remaining budget 0 → total budget 1 → no slot for a hedge even with
	// the fault forcing the timer.
	req2, _ := requestOwnedBy(t, "w2", []string{"w1", "w2"}, 600_000, 0)
	ref2 := standaloneResult(t, req2)
	if result := postSimBudget(t, coordTS.URL, req2, 0); !bytes.Equal(result, ref2) {
		t.Errorf("budget-capped result differs from standalone")
	}
	if got := coord.hedges.Load(); got != hedged {
		t.Errorf("hedges grew %d -> %d despite an exhausted retry budget", hedged, got)
	}

	fams := scrape(t, coordTS.URL)
	if got := fams["cdpd_cluster_hedges_total"].Value(t, 0); got < 1 {
		t.Errorf("cdpd_cluster_hedges_total = %v, want >= 1", got)
	}
}

// TestStealStallFault: cluster.steal.stall inserts its configured delay in
// the steal path without changing the outcome — the placement on a dead
// member still fails over to a live worker and returns standalone-identical
// bytes. Runs under -race in CI's fault-path pass.
func TestStealStallFault(t *testing.T) {
	coord, coordTS := startCoordinator(t, CoordinatorOptions{LeaseTTL: 60 * time.Second})

	// A hand-registered member with a dead address owns the key; placing on
	// it fails at transport, triggering the steal path.
	registerMember(t, coordTS.URL, "ghost", "http://127.0.0.1:1")
	startWorker(t, coordTS.URL, "w2", WorkerOptions{})
	waitForWorkers(t, coord, 2)

	plan := faultinject.MustParse(7, "cluster.steal.stall:delay=50ms:times=1")
	prev := faultinject.Enable(plan)
	defer faultinject.Enable(prev)

	req, _ := requestOwnedBy(t, "ghost", []string{"ghost", "w2"}, 100_000, 0)
	ref := standaloneResult(t, req)
	if _, result := postSimURL(t, coordTS.URL, req); !bytes.Equal(result, ref) {
		t.Errorf("stalled steal returned different bytes")
	}
	if got := coord.steals.Load(); got < 1 {
		t.Errorf("steals = %d, want >= 1", got)
	}
	if plan.Fired() < 1 {
		t.Errorf("cluster.steal.stall never fired")
	}
}

// registerMember registers a member by hand, with no worker behind it
// unless the test serves url itself.
func registerMember(t *testing.T, base, name, url string) {
	t.Helper()
	body, _ := json.Marshal(joinRequest{Name: name, URL: url})
	resp, err := http.Post(base+"/v1/cluster/register", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("register %s: %d", name, resp.StatusCode)
	}
}

// TestPlacementBudgetExhaustedBySteals: a steal spends the placement
// budget a primary or a hedge spends. With a retry budget of 1 (two
// placements) and three dead members, the job fails after two steals and
// the third member is never tried.
func TestPlacementBudgetExhaustedBySteals(t *testing.T) {
	coord, coordTS := startCoordinator(t, CoordinatorOptions{LeaseTTL: 60 * time.Second, HedgeDelay: time.Hour})
	for _, name := range []string{"ghost1", "ghost2", "ghost3"} {
		registerMember(t, coordTS.URL, name, "http://127.0.0.1:1")
	}
	waitForWorkers(t, coord, 3)

	code, payload := postSimRaw(t, coordTS.URL, api.SimRequest{Benchmark: "quake", Ops: 20_000}, 1)
	if code != http.StatusInternalServerError || !strings.Contains(string(payload), "exhausted its placement budget (2)") {
		t.Errorf("POST /v1/sim: %d %s, want 500 naming the exhausted budget (2)", code, payload)
	}
	if got := coord.steals.Load(); got != 2 {
		t.Errorf("steals = %d, want 2", got)
	}
	if got := liveMembers(coord); got != 1 {
		t.Errorf("live members = %d, want 1 (the member the budget never reached)", got)
	}
}

// TestPlacementRefusalFailsJob: a worker that answers an HTTP error is
// alive and has answered, so the job fails with its answer: no steal, no
// second placement, and the member keeps its place on the ring. The failed
// job keeps its request record for the next restart until a client's
// DELETE drops it.
func TestPlacementRefusalFailsJob(t *testing.T) {
	var posts atomic.Int64
	fake := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && r.URL.Path == "/v1/sim" {
			posts.Add(1)
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusInternalServerError)
		io.WriteString(w, `{"error":"disk full"}`)
	}))
	t.Cleanup(fake.Close)
	stateDir := t.TempDir()
	coord, coordTS := startCoordinator(t, CoordinatorOptions{LeaseTTL: 60 * time.Second, HedgeDelay: time.Hour, StateDir: stateDir})
	registerMember(t, coordTS.URL, "fake", fake.URL)
	waitForWorkers(t, coord, 1)

	code, payload := postSimRaw(t, coordTS.URL, api.SimRequest{Benchmark: "quake", Ops: 20_000}, -1)
	if want := "worker fake answered 500: disk full"; code != http.StatusInternalServerError || !strings.Contains(string(payload), want) {
		t.Errorf("POST /v1/sim: %d %s, want 500 with %q", code, payload, want)
	}
	if got := coord.steals.Load(); got != 0 {
		t.Errorf("steals = %d after a refusal, want 0", got)
	}
	if got := liveMembers(coord); got != 1 {
		t.Errorf("live members = %d after a refusal, want 1", got)
	}
	if got := posts.Load(); got != 1 {
		t.Errorf("the refusing worker saw %d placements, want 1", got)
	}

	records, _ := filepath.Glob(filepath.Join(stateDir, "*.req.json"))
	if len(records) != 1 {
		t.Fatalf("request records after the failure: %v, want the failed job's one", records)
	}
	id := strings.TrimSuffix(filepath.Base(records[0]), ".req.json")
	del, err := http.NewRequest(http.MethodDelete, coordTS.URL+"/v1/jobs/"+id, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(del)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"state":"failed"`) {
		t.Errorf("DELETE of the failed job: %d %s, want 200 naming state failed", resp.StatusCode, body)
	}
	if left, _ := filepath.Glob(filepath.Join(stateDir, "*.req.json")); len(left) != 0 {
		t.Errorf("request records left after DELETE: %v", left)
	}
}

// TestCachedPlacementLeavesHedgeDelay: a placement a worker answers from
// its tiers runs no simulation, so its time says nothing about how long a
// miss takes. Folded into the hedge threshold, one such answer would pull
// the delay down to its floor, and every slower miss after it would be
// hedged and simulated twice.
func TestCachedPlacementLeavesHedgeDelay(t *testing.T) {
	coord, coordTS := startCoordinator(t, CoordinatorOptions{LeaseTTL: 60 * time.Second})
	_, w1TS := startWorker(t, coordTS.URL, "w1", WorkerOptions{})
	startWorker(t, coordTS.URL, "w2", WorkerOptions{})
	waitForWorkers(t, coord, 2)

	req, _ := requestOwnedBy(t, "w1", []string{"w1", "w2"}, 200_000, 0)
	if cached, _ := postSimURL(t, w1TS.URL, req); cached {
		t.Fatal("w1's first answer reported cached")
	}
	if cached, _ := postSimURL(t, coordTS.URL, req); !cached {
		t.Fatal("the placement on w1 was not answered from its cache")
	}
	if bits := coord.routeEwmaNs.Load(); bits != 0 {
		t.Errorf("a cached placement set the placement-rate EWMA to %v ns/op, want it unset", math.Float64frombits(bits))
	}
	if got := coord.hedgeDelay(req.Ops); got != hedgeDelayDefault {
		t.Errorf("hedgeDelay = %v after a cached placement, want the default %v", got, hedgeDelayDefault)
	}
}

// TestOneRoutePerContentKey: the front end's result cache runs at most one
// route of a content key at a time, so a placement needs no per-job
// reference count. Two arenas race on the stride-baseline cell they share;
// the collapse counter shows they met, the workers simulate the three
// cells once each, and every cell clears its request record.
func TestOneRoutePerContentKey(t *testing.T) {
	stateDir := t.TempDir()
	coord, coordTS := startCoordinator(t, CoordinatorOptions{LeaseTTL: 60 * time.Second, StateDir: stateDir, HedgeDelay: time.Hour})
	_, w1TS := startWorker(t, coordTS.URL, "w1", WorkerOptions{})
	_, w2TS := startWorker(t, coordTS.URL, "w2", WorkerOptions{})
	waitForWorkers(t, coord, 2)

	var wg sync.WaitGroup
	for _, engine := range []string{"cdp", "pangloss"} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Get(coordTS.URL + "/v1/arena?ops=200000&benchmarks=quake&wait=1&engines=" + engine)
			if err != nil {
				t.Error(err)
				return
			}
			payload, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("arena %s: %d %s", engine, resp.StatusCode, payload)
			}
		}()
	}
	wg.Wait()
	if got := scrape(t, coordTS.URL)["cdpd_cache_collapsed_total"].Value(t, 0); got != 1 {
		t.Fatalf("cdpd_cache_collapsed_total = %v, want 1: the arenas never raced on their shared cell", got)
	}
	completed := 0.0
	for _, base := range []string{w1TS.URL, w2TS.URL} {
		completed += scrape(t, base)["cdpd_jobs_completed_total"].Value(t, 0)
	}
	if completed != 3 {
		t.Errorf("workers completed %v jobs, want 3 cells (baseline, cdp, pangloss)", completed)
	}
	if left, _ := filepath.Glob(filepath.Join(stateDir, "*.req.json")); len(left) != 0 {
		t.Errorf("request records left after both arenas finished: %v", left)
	}
}

// TestJournalHoldsOnlyMembership: a miss the coordinator routes writes no
// journal record, so the journal does not grow with traffic, and its
// request record is gone once it has succeeded.
func TestJournalHoldsOnlyMembership(t *testing.T) {
	stateDir := t.TempDir()
	coord, coordTS := startCoordinator(t, CoordinatorOptions{LeaseTTL: 60 * time.Second, StateDir: stateDir, HedgeDelay: time.Hour})
	startWorker(t, coordTS.URL, "w1", WorkerOptions{})
	waitForWorkers(t, coord, 1)

	journalSize := func() int64 {
		t.Helper()
		fi, err := os.Stat(filepath.Join(stateDir, journalFile))
		if err != nil {
			t.Fatal(err)
		}
		return fi.Size()
	}
	before := journalSize()
	const misses = 5
	for i := range misses {
		if cached, _ := postSimURL(t, coordTS.URL, api.SimRequest{Benchmark: "quake", Ops: 20_000 + 1000*i}); cached {
			t.Fatalf("miss %d answered cached", i)
		}
	}
	if after := journalSize(); after != before {
		t.Errorf("journal grew from %d to %d bytes over %d finished misses, want unchanged", before, after, misses)
	}
	if left, _ := filepath.Glob(filepath.Join(stateDir, "*.req.json")); len(left) != 0 {
		t.Errorf("request records left after the misses finished: %v", left)
	}
}

// TestWorkerPartitionTolerance: a worker that loses its coordinator keeps
// serving local traffic, reports degraded-standalone readiness with a
// rising orphaned-seconds gauge, and rejoins a fresh coordinator on the
// same address — including the 404 path that forces a full ring resync when
// the replacement coordinator has no journal.
func TestWorkerPartitionTolerance(t *testing.T) {
	sc := newSwapCoordinator(t)
	coord1, err := NewCoordinator(CoordinatorOptions{LeaseTTL: 900 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	sc.swap(coord1)

	w, wTS := startWorker(t, sc.ts.URL, "w1", WorkerOptions{})
	waitForWorkers(t, coord1, 1)

	// Partition: the coordinator dies and its address aborts connections.
	sc.swap(nil)
	coord1.Kill()

	// The worker notices within a heartbeat interval and annotates
	// readiness; local /v1/sim keeps working the whole time.
	deadline := time.Now().Add(10 * time.Second)
	for {
		r, err := http.Get(wTS.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		payload, _ := io.ReadAll(r.Body)
		r.Body.Close()
		if r.StatusCode == http.StatusOK && strings.Contains(string(payload), "degraded-standalone") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("worker never reported degraded-standalone (last: %s)", payload)
		}
		time.Sleep(20 * time.Millisecond)
	}

	ref := standaloneResult(t, api.SimRequest{Benchmark: "speech", Ops: 20_000})
	if _, result := postSimURL(t, wTS.URL, api.SimRequest{Benchmark: "speech", Ops: 20_000}); !bytes.Equal(result, ref) {
		t.Errorf("orphaned worker served wrong bytes for local traffic")
	}

	fams := scrape(t, wTS.URL)
	if fam := fams["cdpd_cluster_orphaned_seconds"]; fam == nil || fam.Value(t, 0) <= 0 {
		t.Errorf("cdpd_cluster_orphaned_seconds not rising while partitioned")
	}

	// A replacement coordinator boots on the same address with no memory of
	// the fleet. The worker's next heartbeat gets 404, resets its
	// generation, re-registers with jittered backoff, and resyncs the ring.
	coord2, err := NewCoordinator(CoordinatorOptions{LeaseTTL: 900 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	sc.swap(coord2)
	t.Cleanup(func() { coord2.Close(t.Context()) })

	waitForWorkers(t, coord2, 1)
	deadline = time.Now().Add(10 * time.Second)
	for {
		fams = scrape(t, wTS.URL)
		if fam := fams["cdpd_cluster_orphaned_seconds"]; fam != nil && fam.Value(t, 0) == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("worker never cleared its orphaned clock after rejoining")
		}
		time.Sleep(20 * time.Millisecond)
	}
	_ = w
}
