package api

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/jobq"
	"repro/internal/sim"
	"repro/internal/simcache"
)

func newResilientServer(t *testing.T, qc jobq.Config, opts Options) (*Server, *jobq.Queue) {
	t.Helper()
	q := jobq.New(qc)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = q.Shutdown(ctx)
	})
	s, err := NewWithOptions(q, simcache.New(1<<20), opts)
	if err != nil {
		t.Fatal(err)
	}
	return s, q
}

// blockingJob returns a job function that parks until release closes.
func blockingJob(release <-chan struct{}) jobq.Func {
	return func(ctx context.Context, j *jobq.Job) (any, error) {
		j.SetProgress("working", 0, 1)
		select {
		case <-release:
			return nil, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// TestLoadSheddingAndOverload drives the two watermarks: past the shed
// watermark, low-priority submissions bounce with 429 while normal ones
// still queue; past the overload watermark, /readyz flips to 503 so load
// balancers steer away.
func TestLoadSheddingAndOverload(t *testing.T) {
	s, q := newResilientServer(t, jobq.Config{Workers: 1, Capacity: 10}, Options{})

	release := make(chan struct{})
	defer close(release)
	started := make(chan struct{}, 1)
	if _, err := q.Submit("pin", 0, func(ctx context.Context, j *jobq.Job) (any, error) {
		select {
		case started <- struct{}{}:
		default:
		}
		<-release
		return nil, nil
	}); err != nil {
		t.Fatal(err)
	}
	<-started
	for i := 0; i < 8; i++ {
		if _, err := q.Submit("fill-"+string(rune('a'+i)), 0, blockingJob(release)); err != nil {
			t.Fatal(err)
		}
	}
	// Depth 8 of capacity 10: past the 0.75 shed watermark, below the
	// 0.90 overload watermark.
	w := httptest.NewRecorder()
	s.ServeHTTP(w, httptest.NewRequest("GET", "/readyz", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("readyz below overload watermark: %d", w.Code)
	}

	w = postSim(t, s, `{"benchmark": "b2c", "ops": 10000, "priority": -1}`)
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("low-priority submit past shed watermark: %d %s, want 429", w.Code, w.Body)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Fatal("shed 429 without Retry-After")
	}
	if !strings.Contains(w.Body.String(), "load shedding") {
		t.Fatalf("shed body %s does not say why", w.Body)
	}

	w = postSim(t, s, `{"benchmark": "b2c", "ops": 10000}`)
	if w.Code != http.StatusAccepted {
		t.Fatalf("normal-priority submit past shed watermark: %d %s, want 202", w.Code, w.Body)
	}

	// Depth 9 of 10: past the overload watermark.
	w = httptest.NewRecorder()
	s.ServeHTTP(w, httptest.NewRequest("GET", "/readyz", nil))
	if w.Code != http.StatusServiceUnavailable || !strings.Contains(w.Body.String(), "overloaded") {
		t.Fatalf("readyz past overload watermark: %d %s, want 503 overloaded", w.Code, w.Body)
	}

	mw := httptest.NewRecorder()
	s.ServeHTTP(mw, httptest.NewRequest("GET", "/metrics", nil))
	for _, series := range []string{"cdpd_shed_total 1", "cdpd_overloaded 1"} {
		if !strings.Contains(mw.Body.String(), series) {
			t.Errorf("metrics missing %q", series)
		}
	}
}

// TestAdaptiveTimeout pins the deadline math: disabled and cold states
// yield no per-job deadline, observations fold into the EWMA, and the
// prediction is headroom × rate × ops with clamping at both ends.
func TestAdaptiveTimeout(t *testing.T) {
	s, _ := newResilientServer(t, jobq.Config{Workers: 1}, Options{})
	s.observeSimRate(50*time.Millisecond, 10_000)
	if d := s.adaptiveTimeout(100_000); d != 0 {
		t.Fatalf("disabled adaptive timeout returned %v, want 0", d)
	}

	s, _ = newResilientServer(t, jobq.Config{Workers: 1}, Options{AdaptiveTimeout: true})
	if d := s.adaptiveTimeout(100_000); d != 0 {
		t.Fatalf("cold adaptive timeout returned %v, want 0", d)
	}
	s.observeSimRate(50*time.Millisecond, 10_000) // 5000 ns/µop
	within := func(got, want, tol time.Duration) {
		t.Helper()
		if got < want-tol || got > want+tol {
			t.Fatalf("timeout %v, want %v ± %v", got, want, tol)
		}
	}
	within(s.adaptiveTimeout(100_000), 4*time.Second, time.Millisecond)
	s.observeSimRate(150*time.Millisecond, 10_000) // EWMA → 8000 ns/µop
	within(s.adaptiveTimeout(100_000), 6400*time.Millisecond, time.Millisecond)
	if d := s.adaptiveTimeout(10); d != adaptiveMinTimeout {
		t.Fatalf("tiny job timeout %v, want floor %v", d, adaptiveMinTimeout)
	}
	if d := s.adaptiveTimeout(1 << 40); d != adaptiveMaxTimeout {
		t.Fatalf("huge job timeout %v, want cap %v", d, adaptiveMaxTimeout)
	}
}

// TestCheckpointRecoveryResumesByteIdentical is the crash-recovery
// tentpole at the API layer: a daemon dies mid-simulation (injected abort
// standing in for SIGKILL), a fresh daemon over the same checkpoint
// directory recovers the job, resumes from the persisted snapshot, and
// produces a result byte-identical to an uninterrupted run.
func TestCheckpointRecoveryResumesByteIdentical(t *testing.T) {
	dir := t.TempDir()
	body := `{"benchmark": "b2c", "ops": 10000, "checkpoint_every_ops": 2000, "wait": true}`

	// Daemon A: the run aborts at its third boundary; snapshots for the
	// first two made it to disk.
	a, _ := newResilientServer(t, jobq.Config{Workers: 1, Capacity: 4}, Options{CheckpointDir: dir})
	if n, err := a.RecoverJobs(dir); err != nil || n != 0 {
		t.Fatalf("first RecoverJobs = (%d, %v), want (0, nil)", n, err)
	}
	prev := faultinject.Enable(faultinject.MustParse(11, "sim.checkpoint.abort:after=2"))
	w := postSim(t, a, body)
	faultinject.Enable(prev)
	if w.Code != http.StatusInternalServerError {
		t.Fatalf("aborted run answered %d %s, want 500", w.Code, w.Body)
	}
	reqs, err := filepath.Glob(filepath.Join(dir, "*"+reqSuffix))
	if err != nil || len(reqs) != 1 {
		t.Fatalf("persisted requests: %v (%v), want exactly one", reqs, err)
	}
	id := strings.TrimSuffix(filepath.Base(reqs[0]), reqSuffix)
	if _, err := os.Stat(filepath.Join(dir, id+snapSuffix)); err != nil {
		t.Fatalf("no snapshot survived the crash: %v", err)
	}

	// Daemon B: same directory, fresh queue and cache.
	b, _ := newResilientServer(t, jobq.Config{Workers: 1, Capacity: 4}, Options{CheckpointDir: dir})
	n, err := b.RecoverJobs(dir)
	if err != nil || n != 1 {
		t.Fatalf("RecoverJobs = (%d, %v), want (1, nil)", n, err)
	}
	// Attaching the identical request rides the recovered job to its result.
	w = postSim(t, b, body)
	if w.Code != http.StatusOK {
		t.Fatalf("recovered run: %d %s", w.Code, w.Body)
	}
	if got := b.resumedJobs.Load(); got != 1 {
		t.Fatalf("resumed %d jobs from snapshots, want 1", got)
	}
	var resumed envelope
	if err := json.Unmarshal(w.Body.Bytes(), &resumed); err != nil {
		t.Fatal(err)
	}

	// Reference: the same request, uninterrupted, on an unrelated daemon.
	c, _ := newResilientServer(t, jobq.Config{Workers: 1, Capacity: 4}, Options{})
	w = postSim(t, c, body)
	if w.Code != http.StatusOK {
		t.Fatalf("reference run: %d %s", w.Code, w.Body)
	}
	var ref envelope
	if err := json.Unmarshal(w.Body.Bytes(), &ref); err != nil {
		t.Fatal(err)
	}
	if string(resumed.Result) != string(ref.Result) {
		t.Fatalf("resumed result drifted from the uninterrupted run:\nresumed %s\nref     %s",
			resumed.Result, ref.Result)
	}

	// Success must clear the persisted files so the job cannot resurrect.
	for _, suffix := range []string{reqSuffix, snapSuffix} {
		if _, err := os.Stat(filepath.Join(dir, id+suffix)); !os.IsNotExist(err) {
			t.Errorf("%s%s still present after success (%v)", id, suffix, err)
		}
	}
}

// TestCheckpointRecoveryCorruptSnapshotReruns: a persisted snapshot that
// decodes but does not restore (its L2 payload names an unknown state
// version) must not fail its job on every later submission. A fresh daemon
// reached by POST or by RecoverJobs reruns the job from µop zero, answers
// with the uninterrupted result, clears both files and counts no resume.
func TestCheckpointRecoveryCorruptSnapshotReruns(t *testing.T) {
	dir := t.TempDir()
	body := `{"benchmark": "b2c", "ops": 10000, "checkpoint_every_ops": 2000, "wait": true}`

	// Daemon A dies at its third boundary, leaving a snapshot behind.
	a, _ := newResilientServer(t, jobq.Config{Workers: 1, Capacity: 4}, Options{CheckpointDir: dir})
	if n, err := a.RecoverJobs(dir); err != nil || n != 0 {
		t.Fatalf("first RecoverJobs = (%d, %v), want (0, nil)", n, err)
	}
	prev := faultinject.Enable(faultinject.MustParse(11, "sim.checkpoint.abort:after=2"))
	w := postSim(t, a, body)
	faultinject.Enable(prev)
	if w.Code != http.StatusInternalServerError {
		t.Fatalf("aborted run answered %d %s, want 500", w.Code, w.Body)
	}
	reqs, err := filepath.Glob(filepath.Join(dir, "*"+reqSuffix))
	if err != nil || len(reqs) != 1 {
		t.Fatalf("persisted requests: %v (%v), want exactly one", reqs, err)
	}
	reqPath := reqs[0]
	snapPath := strings.TrimSuffix(reqPath, reqSuffix) + snapSuffix
	reqBlob, err := os.ReadFile(reqPath)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatalf("no snapshot survived the crash: %v", err)
	}
	snap, err := sim.DecodeSnapshot(blob)
	if err != nil {
		t.Fatal(err)
	}
	snap.Mem.L2[0] = 9 // the cache payload's version byte
	badSnap, err := sim.EncodeSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}

	c, _ := newResilientServer(t, jobq.Config{Workers: 1, Capacity: 4}, Options{})
	w = postSim(t, c, body)
	if w.Code != http.StatusOK {
		t.Fatalf("reference run: %d %s", w.Code, w.Body)
	}
	var ref envelope
	if err := json.Unmarshal(w.Body.Bytes(), &ref); err != nil {
		t.Fatal(err)
	}

	for _, viaRecover := range []bool{false, true} {
		// With its request record the job is recovered; without one (a
		// snapshot a dead peer sharing the directory left, say) the POST
		// reaches it.
		recovered := 0
		if err := os.Remove(reqPath); err != nil && !os.IsNotExist(err) {
			t.Fatal(err)
		}
		if viaRecover {
			if err := os.WriteFile(reqPath, reqBlob, 0o644); err != nil {
				t.Fatal(err)
			}
			recovered = 1
		}
		if err := os.WriteFile(snapPath, badSnap, 0o644); err != nil {
			t.Fatal(err)
		}
		b, _ := newResilientServer(t, jobq.Config{Workers: 1, Capacity: 4}, Options{CheckpointDir: dir})
		if n, err := b.RecoverJobs(dir); err != nil || n != recovered {
			t.Fatalf("RecoverJobs = (%d, %v), want (%d, nil)", n, err, recovered)
		}
		w := postSim(t, b, body)
		if w.Code != http.StatusOK {
			t.Fatalf("viaRecover=%v: corrupt snapshot answered %d %s, want 200", viaRecover, w.Code, w.Body)
		}
		var got envelope
		if err := json.Unmarshal(w.Body.Bytes(), &got); err != nil {
			t.Fatal(err)
		}
		if string(got.Result) != string(ref.Result) {
			t.Fatalf("viaRecover=%v: rerun drifted from the uninterrupted run:\nrerun %s\nref   %s",
				viaRecover, got.Result, ref.Result)
		}
		left, err := filepath.Glob(filepath.Join(dir, "*"))
		if err != nil || len(left) != 0 {
			t.Fatalf("viaRecover=%v: files left after success: %v (%v)", viaRecover, left, err)
		}
		if got := b.resumedJobs.Load(); got != 0 {
			t.Fatalf("viaRecover=%v: counted %d resumes for a snapshot that does not restore", viaRecover, got)
		}
	}
}

// TestRecoverJobsWithoutStore: with no directory a server recovers
// nothing, does not error, and records nothing, even beside a checkpoint
// directory, which then holds snapshots only.
func TestRecoverJobsWithoutStore(t *testing.T) {
	dir := t.TempDir()
	s, _ := newResilientServer(t, jobq.Config{Workers: 1}, Options{CheckpointDir: dir})
	if n, err := s.RecoverJobs(""); n != 0 || err != nil {
		t.Fatalf("RecoverJobs = (%d, %v), want (0, nil)", n, err)
	}
	prev := faultinject.Enable(faultinject.MustParse(11, "sim.checkpoint.abort:after=2"))
	w := postSim(t, s, `{"benchmark": "b2c", "ops": 10000, "checkpoint_every_ops": 2000, "wait": true}`)
	faultinject.Enable(prev)
	if w.Code != http.StatusInternalServerError {
		t.Fatalf("aborted run answered %d %s, want 500", w.Code, w.Body)
	}
	if reqs, _ := filepath.Glob(filepath.Join(dir, "*"+reqSuffix)); len(reqs) != 0 {
		t.Errorf("request records without RecoverJobs: %v", reqs)
	}
	if snaps, _ := filepath.Glob(filepath.Join(dir, "*"+snapSuffix)); len(snaps) != 1 {
		t.Errorf("snapshots = %v, want the failed run's one", snaps)
	}
}

// TestRecoverJobsKeepsUnreadableRecord: a record that cannot be read at
// startup (here a symlink to a directory, which os.ReadFile refuses) is
// not a torn one. RecoverJobs leaves it and its snapshot for the next
// start instead of clearing them.
func TestRecoverJobsKeepsUnreadableRecord(t *testing.T) {
	dir := t.TempDir()
	id := SimJobID(simcache.Key{1})
	rec, snap := filepath.Join(dir, id+reqSuffix), filepath.Join(dir, id+snapSuffix)
	if err := os.Symlink(t.TempDir(), rec); err != nil {
		t.Skipf("symlink: %v", err)
	}
	if err := os.WriteFile(snap, []byte("cdpsnap4"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, _ := newResilientServer(t, jobq.Config{Workers: 1}, Options{CheckpointDir: dir})
	if n, err := s.RecoverJobs(dir); n != 0 || err != nil {
		t.Fatalf("RecoverJobs = (%d, %v), want (0, nil)", n, err)
	}
	for _, path := range []string{rec, snap} {
		if _, err := os.Lstat(path); err != nil {
			t.Errorf("%s cleared after a read error: %v", filepath.Base(path), err)
		}
	}
}

// TestDeleteDropsFailedJobRecord: a failed job keeps its request record
// for the next restart until a client's DELETE drops it. DELETE answers
// 200 with the job's state and clears its files; on a job that succeeded
// it answers 409, and on an unknown ID 404.
func TestDeleteDropsFailedJobRecord(t *testing.T) {
	dir := t.TempDir()
	s, _ := newResilientServer(t, jobq.Config{Workers: 1, Capacity: 4}, Options{CheckpointDir: dir})
	if n, err := s.RecoverJobs(dir); n != 0 || err != nil {
		t.Fatalf("RecoverJobs = (%d, %v), want (0, nil)", n, err)
	}
	prev := faultinject.Enable(faultinject.MustParse(11, "sim.checkpoint.abort:after=2"))
	w := postSim(t, s, `{"benchmark": "b2c", "ops": 10000, "checkpoint_every_ops": 2000, "wait": true}`)
	faultinject.Enable(prev)
	if w.Code != http.StatusInternalServerError {
		t.Fatalf("aborted run answered %d %s, want 500", w.Code, w.Body)
	}
	reqs, err := filepath.Glob(filepath.Join(dir, "*"+reqSuffix))
	if err != nil || len(reqs) != 1 {
		t.Fatalf("records after the failure: %v (%v), want exactly one", reqs, err)
	}
	failed := strings.TrimSuffix(filepath.Base(reqs[0]), reqSuffix)

	if w = postSim(t, s, `{"benchmark": "quake", "ops": 5000, "wait": true}`); w.Code != http.StatusOK {
		t.Fatalf("submit: %d %s", w.Code, w.Body)
	}
	c, err := resolve(s.stamp(SimRequest{Benchmark: "quake", Ops: 5000}))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		id, state string
		code      int
	}{
		{failed, "failed", http.StatusOK},
		{c.id, "", http.StatusConflict},
		{"sim-0000000000000000", "", http.StatusNotFound},
	} {
		w := httptest.NewRecorder()
		s.ServeHTTP(w, httptest.NewRequest("DELETE", "/v1/jobs/"+tc.id, nil))
		if w.Code != tc.code {
			t.Fatalf("DELETE %s answered %d %s, want %d", tc.id, w.Code, w.Body, tc.code)
		}
		var ack map[string]string
		if tc.code == http.StatusOK {
			if err := json.Unmarshal(w.Body.Bytes(), &ack); err != nil || ack["state"] != tc.state {
				t.Fatalf("DELETE %s answered %s, want state %q", tc.id, w.Body, tc.state)
			}
		}
	}
	if left, _ := filepath.Glob(filepath.Join(dir, "*")); len(left) != 0 {
		t.Fatalf("files left after DELETE of the failed job: %v", left)
	}
	b, _ := newResilientServer(t, jobq.Config{Workers: 1}, Options{CheckpointDir: dir})
	if n, err := b.RecoverJobs(dir); n != 0 || err != nil {
		t.Fatalf("restart RecoverJobs = (%d, %v), want (0, nil)", n, err)
	}
}

// TestRespondLatencyFault: the api.respond.latency point stalls the
// response without corrupting it.
func TestRespondLatencyFault(t *testing.T) {
	s, _ := newTestServer(t, jobq.Config{Workers: 1, Capacity: 4})
	body := `{"benchmark": "b2c", "ops": 10000, "wait": true}`
	if w := postSim(t, s, body); w.Code != http.StatusOK {
		t.Fatalf("prime: %d %s", w.Code, w.Body)
	}

	prev := faultinject.Enable(faultinject.MustParse(12, "api.respond.latency:delay=60ms"))
	defer faultinject.Enable(prev)
	start := time.Now()
	w := postSim(t, s, body)
	if elapsed := time.Since(start); elapsed < 50*time.Millisecond {
		t.Fatalf("latency fault added only %v", elapsed)
	}
	if w.Code != http.StatusOK {
		t.Fatalf("delayed response: %d %s", w.Code, w.Body)
	}
	var env envelope
	if err := json.Unmarshal(w.Body.Bytes(), &env); err != nil || !env.Cached {
		t.Fatalf("delayed response corrupted: %v %s", err, w.Body)
	}
}

// TestRespondPartialWriteFault: api.respond.partialwrite truncates the
// body and kills the connection; the next attempt succeeds, which is
// exactly the contract the retrying client depends on.
func TestRespondPartialWriteFault(t *testing.T) {
	s, _ := newTestServer(t, jobq.Config{Workers: 1, Capacity: 4})
	ts := httptest.NewServer(s)
	defer ts.Close()
	body := `{"benchmark": "b2c", "ops": 10000, "wait": true}`

	post := func() (*http.Response, []byte, error) {
		resp, err := ts.Client().Post(ts.URL+"/v1/sim", "application/json", strings.NewReader(body))
		if err != nil {
			return nil, nil, err
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		return resp, data, err
	}
	if _, _, err := post(); err != nil {
		t.Fatalf("prime: %v", err)
	}

	prev := faultinject.Enable(faultinject.MustParse(13, "api.respond.partialwrite:times=1"))
	defer faultinject.Enable(prev)
	resp, data, err := post()
	var env envelope
	if err == nil && json.Unmarshal(data, &env) == nil {
		t.Fatalf("partial write produced a clean response: %d %q", resp.StatusCode, data)
	}

	resp, data, err = post()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("retry after partial write: %v / %+v", err, resp)
	}
	if err := json.Unmarshal(data, &env); err != nil || !env.Cached {
		t.Fatalf("retry body: %v %q", err, data)
	}
}

// TestStreamDropFault: api.stream.drop terminates the NDJSON stream
// mid-flight — the handler returns with the job still running — and a
// fresh subscription works once the fault clears.
func TestStreamDropFault(t *testing.T) {
	s, q := newTestServer(t, jobq.Config{Workers: 1, Capacity: 4})
	release := make(chan struct{})
	j, err := q.Submit("long", 0, blockingJob(release))
	if err != nil {
		t.Fatal(err)
	}

	prev := faultinject.Enable(faultinject.MustParse(14, "api.stream.drop:times=1"))
	done := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		w := httptest.NewRecorder()
		s.ServeHTTP(w, httptest.NewRequest("GET", "/v1/jobs/long/stream", nil))
		done <- w
	}()
	var w *httptest.ResponseRecorder
	select {
	case w = <-done:
	case <-time.After(5 * time.Second):
		faultinject.Enable(prev)
		t.Fatal("dropped stream did not terminate")
	}
	faultinject.Enable(prev)

	var last jobq.Update
	lines := 0
	sc := bufio.NewScanner(w.Body)
	for sc.Scan() {
		lines++
		if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
			t.Fatalf("line %d: %v", lines, err)
		}
	}
	if lines == 0 || last.State.Terminal() {
		t.Fatalf("dropped stream ended cleanly (%d lines, state %q); the drop should truncate it", lines, last.State)
	}

	close(release)
	<-j.Done()
	sw := httptest.NewRecorder()
	s.ServeHTTP(sw, httptest.NewRequest("GET", "/v1/jobs/long/stream", nil))
	sc = bufio.NewScanner(sw.Body)
	for sc.Scan() {
		if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
			t.Fatal(err)
		}
	}
	if !last.State.Terminal() {
		t.Fatalf("post-fault stream still truncated (state %q)", last.State)
	}
}

// TestStreamClientDisconnectFreesHandler is the streaming satellite: when
// an NDJSON subscriber goes away, the handler goroutine must exit promptly
// instead of blocking on the next update of a long job.
func TestStreamClientDisconnectFreesHandler(t *testing.T) {
	s, q := newTestServer(t, jobq.Config{Workers: 1, Capacity: 4})
	ts := httptest.NewServer(s)
	defer ts.Close()

	release := make(chan struct{})
	defer close(release)
	if _, err := q.Submit("long", 0, blockingJob(release)); err != nil {
		t.Fatal(err)
	}

	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const streams = 4
	for i := 0; i < streams; i++ {
		req, err := http.NewRequestWithContext(ctx, "GET", ts.URL+"/v1/jobs/long/stream", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("stream %d: %d", i, resp.StatusCode)
		}
		// One full line proves the handler reached its subscription loop.
		if _, err := bufio.NewReader(resp.Body).ReadString('\n'); err != nil {
			t.Fatalf("stream %d first line: %v", i, err)
		}
	}
	if g := runtime.NumGoroutine(); g <= base {
		t.Fatalf("streams added no goroutines (%d <= %d); test is vacuous", g, base)
	}

	cancel()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if g := runtime.NumGoroutine(); g <= base+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("handler goroutines leaked after disconnect: %d > %d\n%s",
				runtime.NumGoroutine(), base+2, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestSubmitPersistsRequest: with a store configured, a submission writes
// its request file immediately (the pre-first-boundary crash window), and
// completion clears it.
func TestSubmitPersistsRequest(t *testing.T) {
	dir := t.TempDir()
	s, _ := newResilientServer(t, jobq.Config{Workers: 1, Capacity: 4},
		Options{CheckpointDir: dir, CheckpointEveryOps: 4000})

	w := postSim(t, s, `{"benchmark": "quake", "ops": 10000, "wait": true}`)
	if w.Code != http.StatusOK {
		t.Fatalf("submit: %d %s", w.Code, w.Body)
	}
	left, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Fatalf("store not cleared after success: %v", left)
	}
	// The server default interval segmented the run and wrote snapshots.
	if got := s.ckptWrites.Load(); got == 0 {
		t.Fatal("segmented run persisted no snapshots")
	}
}

// TestDuplicateSubmitCountsNoResume: a request whose snapshot sits in the
// store resumes once. A second submission of the same body while that job
// is still queued attaches to it, so once the job has run exactly one
// resume is counted.
func TestDuplicateSubmitCountsNoResume(t *testing.T) {
	dir := t.TempDir()
	body := `{"benchmark": "b2c", "ops": 10000, "checkpoint_every_ops": 2000}`

	// Daemon A dies after its first boundary, leaving a snapshot behind.
	a, _ := newResilientServer(t, jobq.Config{Workers: 1, Capacity: 4}, Options{CheckpointDir: dir})
	prev := faultinject.Enable(faultinject.MustParse(11, "sim.checkpoint.abort:after=1"))
	w := postSim(t, a, `{"benchmark": "b2c", "ops": 10000, "checkpoint_every_ops": 2000, "wait": true}`)
	faultinject.Enable(prev)
	if w.Code != http.StatusInternalServerError {
		t.Fatalf("aborted run answered %d %s, want 500", w.Code, w.Body)
	}

	// Daemon B over the same directory, its one worker pinned so the
	// resumed job stays queued while the duplicate arrives.
	b, q := newResilientServer(t, jobq.Config{Workers: 1, Capacity: 4}, Options{CheckpointDir: dir})
	release := make(chan struct{})
	started := make(chan struct{})
	if _, err := q.Submit("pin", 0, func(ctx context.Context, j *jobq.Job) (any, error) {
		close(started)
		<-release
		return nil, nil
	}); err != nil {
		t.Fatal(err)
	}
	<-started
	first, second := postSim(t, b, body), postSim(t, b, body)
	close(release)

	var ids []string
	for _, w := range []*httptest.ResponseRecorder{first, second} {
		if w.Code != http.StatusAccepted {
			t.Fatalf("submission answered %d %s, want 202", w.Code, w.Body)
		}
		var ack map[string]string
		if err := json.Unmarshal(w.Body.Bytes(), &ack); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, ack["job_id"])
	}
	if ids[0] != ids[1] {
		t.Fatalf("duplicate submission made job %s beside %s", ids[1], ids[0])
	}

	job, ok := q.Get(ids[0])
	if !ok {
		t.Fatalf("job %s not found", ids[0])
	}
	<-job.Done()
	if _, err := job.Result(); err != nil {
		t.Fatalf("resumed job failed: %v", err)
	}
	if resumed := b.resumedJobs.Load(); resumed != 1 {
		t.Fatalf("resumed %d jobs from snapshots, want 1", resumed)
	}
}
