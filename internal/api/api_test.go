package api

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/jobq"
	"repro/internal/simcache"
)

// testOps keeps API-test simulations fast while exercising the full
// warm-up + measurement pipeline.
const testOps = 10_000

func newTestServer(t *testing.T, qc jobq.Config) (*Server, *jobq.Queue) {
	t.Helper()
	q := jobq.New(qc)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = q.Shutdown(ctx)
	})
	return New(q, simcache.New(1<<20)), q
}

func postSim(t *testing.T, s *Server, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest("POST", "/v1/sim", strings.NewReader(body))
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	return w
}

// TestSubmitPollStream drives the async happy path end to end: 202 with a
// job handle, polling until done, the result body, and an NDJSON stream
// that terminates with the job's final state.
func TestSubmitPollStream(t *testing.T) {
	s, _ := newTestServer(t, jobq.Config{Workers: 2, Capacity: 8})

	w := postSim(t, s, `{"benchmark": "b2c", "ops": 10000, "cdp": true}`)
	if w.Code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", w.Code, w.Body)
	}
	var ack struct {
		JobID  string `json:"job_id"`
		Status string `json:"status"`
		Stream string `json:"stream"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &ack); err != nil {
		t.Fatal(err)
	}
	if ack.JobID == "" || !strings.HasPrefix(ack.JobID, "sim-") {
		t.Fatalf("ack %+v missing sim- job id", ack)
	}

	// Stream until the terminal update. The job may already be done; the
	// stream must still deliver at least the final snapshot.
	req := httptest.NewRequest("GET", ack.Stream, nil)
	sw := httptest.NewRecorder()
	s.ServeHTTP(sw, req)
	if sw.Code != http.StatusOK {
		t.Fatalf("stream: %d %s", sw.Code, sw.Body)
	}
	var last jobq.Update
	sc := bufio.NewScanner(sw.Body)
	lines := 0
	for sc.Scan() {
		lines++
		if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
			t.Fatalf("stream line %d: %v (%q)", lines, err, sc.Text())
		}
	}
	if lines == 0 || !last.State.Terminal() {
		t.Fatalf("stream ended after %d lines in state %q", lines, last.State)
	}
	if last.State != jobq.StateDone {
		t.Fatalf("job finished %q: %s", last.State, last.Error)
	}

	// Poll: terminal job carries the rendered result.
	pw := httptest.NewRecorder()
	s.ServeHTTP(pw, httptest.NewRequest("GET", ack.Status, nil))
	if pw.Code != http.StatusOK {
		t.Fatalf("poll: %d %s", pw.Code, pw.Body)
	}
	var view struct {
		State  jobq.State
		Cached *bool
		Result SimResult
	}
	if err := json.Unmarshal(pw.Body.Bytes(), &view); err != nil {
		t.Fatal(err)
	}
	if view.State != jobq.StateDone || view.Cached == nil {
		t.Fatalf("poll view %+v not a completed job", view)
	}
	if view.Result.Benchmark != "b2c" || view.Result.Ops != testOps || view.Result.Cycles <= 0 {
		t.Fatalf("result %+v", view.Result)
	}
	if _, ok := view.Result.Prefetch["content"]; !ok {
		t.Fatalf("cdp run reported no content-prefetcher stats: %+v", view.Result.Prefetch)
	}
}

// TestWaitAndCacheHit: a synchronous submission returns the result
// directly, and the identical resubmission is served from cache.
func TestWaitAndCacheHit(t *testing.T) {
	s, _ := newTestServer(t, jobq.Config{Workers: 1, Capacity: 8})
	body := `{"benchmark": "quake", "ops": 10000, "wait": true}`

	var first, second envelope
	w := postSim(t, s, body)
	if w.Code != http.StatusOK {
		t.Fatalf("first: %d %s", w.Code, w.Body)
	}
	if err := json.Unmarshal(w.Body.Bytes(), &first); err != nil {
		t.Fatal(err)
	}
	if first.Cached {
		t.Fatal("first submission claims a cache hit")
	}

	w = postSim(t, s, body)
	if w.Code != http.StatusOK {
		t.Fatalf("second: %d %s", w.Code, w.Body)
	}
	if err := json.Unmarshal(w.Body.Bytes(), &second); err != nil {
		t.Fatal(err)
	}
	if !second.Cached {
		t.Fatal("identical resubmission missed the cache")
	}
	if string(first.Result) != string(second.Result) {
		t.Fatal("cached result differs from the computed one")
	}
}

// TestBackpressure429: with a full queue the API answers 429 and a
// Retry-After hint instead of queueing unboundedly.
func TestBackpressure429(t *testing.T) {
	s, q := newTestServer(t, jobq.Config{Workers: 1, Capacity: 1})

	// Pin the worker and fill the single queue slot with jobs submitted
	// directly to the queue, so the HTTP submission below must be rejected.
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	defer close(release)
	block := func(ctx context.Context, j *jobq.Job) (any, error) {
		select {
		case started <- struct{}{}:
		default:
		}
		select {
		case <-release:
			return nil, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	if _, err := q.Submit("pin", 0, block); err != nil {
		t.Fatal(err)
	}
	<-started
	if _, err := q.Submit("fill", 0, block); err != nil {
		t.Fatal(err)
	}

	w := postSim(t, s, `{"benchmark": "b2c", "ops": 10000}`)
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("full queue: %d %s, want 429", w.Code, w.Body)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
}

// TestResubmitAttachesWhileQueueFull: re-POSTing a request whose job is
// queued answers 202 with that job's ID although the queue is full, while a
// distinct request still gets 429.
func TestResubmitAttachesWhileQueueFull(t *testing.T) {
	s, q := newTestServer(t, jobq.Config{Workers: 1, Capacity: 1})
	started := make(chan struct{})
	release := make(chan struct{})
	defer close(release)
	if _, err := q.Submit("pin", 0, func(ctx context.Context, j *jobq.Job) (any, error) {
		close(started)
		select {
		case <-release:
		case <-ctx.Done():
		}
		return nil, nil
	}); err != nil {
		t.Fatal(err)
	}
	<-started

	const body = `{"benchmark": "b2c", "ops": 10000}`
	var ids [2]string
	for i := range ids {
		w := postSim(t, s, body)
		if w.Code != http.StatusAccepted {
			t.Fatalf("submission %d: %d %s, want 202", i+1, w.Code, w.Body)
		}
		var ack struct {
			JobID string `json:"job_id"`
		}
		if err := json.Unmarshal(w.Body.Bytes(), &ack); err != nil {
			t.Fatal(err)
		}
		ids[i] = ack.JobID
	}
	if ids[0] == "" || ids[1] != ids[0] {
		t.Fatalf("resubmission answered job %q, want the queued %q", ids[1], ids[0])
	}
	if w := postSim(t, s, `{"benchmark": "b2c", "ops": 12000}`); w.Code != http.StatusTooManyRequests {
		t.Fatalf("distinct request to a full queue: %d %s, want 429", w.Code, w.Body)
	}
}

// TestBadRequests pins the 400 contract: unknown benchmarks list the valid
// names, and configurations the simulator would reject never reach the
// queue.
func TestBadRequests(t *testing.T) {
	s, q := newTestServer(t, jobq.Config{Workers: 1, Capacity: 8})
	cases := []struct {
		name, body, want string
	}{
		{"unknown benchmark", `{"benchmark": "quake3"}`, `valid: `},
		{"invalid config", `{"benchmark": "b2c", "ops": 10000, "l2_kb": 3}`, "invalid configuration"},
		{"engine list", `{"benchmark": "b2c", "engine": "pangloss+markov"}`, `unknown engine \"pangloss+markov\"`},
		{"negative ops", `{"benchmark": "b2c", "ops": -5}`, "negative ops"},
		{"unknown field", `{"benchmark": "b2c", "bogus": 1}`, "bad request body"},
	}
	for _, c := range cases {
		w := postSim(t, s, c.body)
		if w.Code != http.StatusBadRequest {
			t.Errorf("%s: %d %s, want 400", c.name, w.Code, w.Body)
		}
		if !strings.Contains(w.Body.String(), c.want) {
			t.Errorf("%s: body %s missing %q", c.name, w.Body, c.want)
		}
	}
	if st := q.Stats(); st.Depth != 0 || st.Running != 0 {
		t.Fatalf("bad requests reached the queue: %+v", st)
	}
}

// TestExperimentEndpoint runs a registered experiment at a tiny budget and
// expects the rendered table back, cached on the second call.
func TestExperimentEndpoint(t *testing.T) {
	s, _ := newTestServer(t, jobq.Config{Workers: 2, Capacity: 8})

	w := httptest.NewRecorder()
	s.ServeHTTP(w, httptest.NewRequest("GET", "/v1/experiments/nope", nil))
	if w.Code != http.StatusNotFound {
		t.Fatalf("unknown experiment: %d %s, want 404", w.Code, w.Body)
	}

	url := "/v1/experiments/table2?ops=10000&reps=1&wait=1"
	w = httptest.NewRecorder()
	s.ServeHTTP(w, httptest.NewRequest("GET", url, nil))
	if w.Code != http.StatusOK {
		t.Fatalf("table2: %d %s", w.Code, w.Body)
	}
	var env envelope
	if err := json.Unmarshal(w.Body.Bytes(), &env); err != nil {
		t.Fatal(err)
	}
	var rep experimentReport
	if err := json.Unmarshal(env.Result, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.ID != "table2" || rep.Text == "" {
		t.Fatalf("report %+v", rep)
	}

	w = httptest.NewRecorder()
	s.ServeHTTP(w, httptest.NewRequest("GET", url, nil))
	if w.Code != http.StatusOK {
		t.Fatalf("table2 rerun: %d %s", w.Code, w.Body)
	}
	var env2 envelope
	if err := json.Unmarshal(w.Body.Bytes(), &env2); err != nil {
		t.Fatal(err)
	}
	if !env2.Cached {
		t.Fatal("identical experiment rerun missed the cache")
	}
}

// TestReadyzDraining: readiness flips to 503 once draining starts while
// liveness stays 200.
func TestReadyzDraining(t *testing.T) {
	s, _ := newTestServer(t, jobq.Config{Workers: 1, Capacity: 1})
	w := httptest.NewRecorder()
	s.ServeHTTP(w, httptest.NewRequest("GET", "/readyz", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("readyz before drain: %d", w.Code)
	}
	s.SetDraining(true)
	w = httptest.NewRecorder()
	s.ServeHTTP(w, httptest.NewRequest("GET", "/readyz", nil))
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("readyz while draining: %d, want 503", w.Code)
	}
	w = httptest.NewRecorder()
	s.ServeHTTP(w, httptest.NewRequest("GET", "/healthz", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("healthz while draining: %d, want 200", w.Code)
	}
}

// TestGracefulShutdownDrains mirrors cdpd's exit path: with a submitted
// simulation in flight, Shutdown with a generous deadline completes the
// job rather than cancelling it, and its result remains pollable.
func TestGracefulShutdownDrains(t *testing.T) {
	q := jobq.New(jobq.Config{Workers: 1, Capacity: 4})
	s := New(q, simcache.New(1<<20))

	w := postSim(t, s, `{"benchmark": "b2c", "ops": 10000}`)
	if w.Code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", w.Code, w.Body)
	}
	var ack struct {
		JobID string `json:"job_id"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &ack); err != nil {
		t.Fatal(err)
	}

	s.SetDraining(true)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := q.Shutdown(ctx); err != nil {
		t.Fatalf("drain shutdown: %v", err)
	}
	job, ok := q.Get(ack.JobID)
	if !ok {
		t.Fatal("job vanished across shutdown")
	}
	if st := job.State(); st != jobq.StateDone {
		t.Fatalf("in-flight job state %q after drain, want done", st)
	}

	pw := httptest.NewRecorder()
	s.ServeHTTP(pw, httptest.NewRequest("GET", "/v1/jobs/"+ack.JobID, nil))
	if pw.Code != http.StatusOK || !strings.Contains(pw.Body.String(), `"state":"done"`) {
		t.Fatalf("post-drain poll: %d %s", pw.Code, pw.Body)
	}
}

// TestMetricsExposition spot-checks the Prometheus text format and the
// headline series.
func TestMetricsExposition(t *testing.T) {
	s, _ := newTestServer(t, jobq.Config{Workers: 1, Capacity: 8})
	w := postSim(t, s, `{"benchmark": "b2c", "ops": 10000, "wait": true}`)
	if w.Code != http.StatusOK {
		t.Fatalf("warm-up sim: %d %s", w.Code, w.Body)
	}

	mw := httptest.NewRecorder()
	s.ServeHTTP(mw, httptest.NewRequest("GET", "/metrics", nil))
	if mw.Code != http.StatusOK {
		t.Fatalf("metrics: %d", mw.Code)
	}
	body := mw.Body.String()
	for _, series := range []string{
		"cdpd_queue_depth 0",
		"cdpd_jobs_completed_total 1",
		"cdpd_cache_misses_total 1",
		"cdpd_sims_total 1",
		"# TYPE cdpd_cache_hit_rate gauge",
		"cdpd_peak_rss_kb",
	} {
		if !strings.Contains(body, series) {
			t.Errorf("metrics missing %q\n%s", series, body)
		}
	}
}
