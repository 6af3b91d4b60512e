package cluster

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
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
// a dead process) while a checkpointed placement is in flight. A new
// incarnation over the same state dir re-adopts the fleet from the journal,
// re-routes the orphaned placement to the key's current owner, and the job
// completes byte-identically with the simulation run exactly once — the
// worker-side content-keyed dedup absorbs the re-placement.
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

	// SIGKILL the coordinator mid-placement: the journal is closed before
	// anything is canceled, so the placement stays open on disk.
	sc.swap(nil)
	coord1.Kill()

	state, err := ReadJournal(stateDir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := state.Open[jobID]; !ok {
		t.Fatalf("killed coordinator's journal lost the in-flight placement; open = %v", state.Open)
	}
	if len(state.Members) != 2 {
		t.Fatalf("journal members = %v, want w1 and w2", state.Members)
	}

	// Restart over the same state dir and address. Recovery re-leases the
	// journaled members and re-routes the orphaned placement.
	coord2, err := NewCoordinator(opts)
	if err != nil {
		t.Fatal(err)
	}
	sc.swap(coord2)
	t.Cleanup(func() { coord2.Close(t.Context()) })

	waitForWorkers(t, coord2, 2)
	if got := coord2.readopted.Load(); got < 1 {
		t.Fatalf("restarted coordinator re-adopted %d placements, want >= 1", got)
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

	// Re-adoption fills the restarted coordinator's cache as any placement
	// does, so a repeat is answered there and journals nothing.
	writes := scrape(t, sc.ts.URL)["cdpd_cluster_journal_writes_total"].Value(t, 0)
	if cached, again := postSimURL(t, sc.ts.URL, req); !cached || !bytes.Equal(again, ref) {
		t.Errorf("repeat of the re-adopted job: cached %v, result equal %v; want cached and equal", cached, bytes.Equal(again, ref))
	}
	if got := scrape(t, sc.ts.URL)["cdpd_cluster_journal_writes_total"].Value(t, 0); got != writes {
		t.Errorf("repeat of the re-adopted job journaled %v records, want 0", got-writes)
	}

	// The settled journal shows a closed ledger: no lost jobs, no double
	// completions.
	after, err := ReadJournal(stateDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(after.Open) != 0 {
		t.Errorf("journal still holds open placements after completion: %v", after.Open)
	}
	if after.DoubleCompletes != 0 {
		t.Errorf("journal recorded %d double-completes, want 0", after.DoubleCompletes)
	}

	fams := scrape(t, sc.ts.URL)
	for _, name := range []string{"cdpd_cluster_journal_writes_total", "cdpd_cluster_journal_write_errors_total"} {
		if fams[name] == nil {
			t.Errorf("journal series %s missing with -state-dir set", name)
		}
	}
	if got := fams["cdpd_cluster_readopted_total"].Value(t, 0); got < 1 {
		t.Errorf("readopted_total = %v, want >= 1", got)
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

// postSimBudget posts a waited request with an explicit retry-budget header
// and returns the result bytes.
func postSimBudget(t *testing.T, base string, req api.SimRequest, budget int) []byte {
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
	hreq.Header.Set(api.RetryBudgetHeader, strconv.Itoa(budget))
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
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
	body, _ := json.Marshal(joinRequest{Name: "ghost", URL: "http://127.0.0.1:1"})
	resp, err := http.Post(coordTS.URL+"/v1/cluster/register", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
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
