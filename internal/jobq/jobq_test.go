package jobq

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"
)

// blockingJob returns a job function that signals when it starts and
// blocks until released or its context dies.
func blockingJob(started chan<- string, release <-chan struct{}) Func {
	return func(ctx context.Context, j *Job) (any, error) {
		if started != nil {
			started <- j.ID()
		}
		select {
		case <-release:
			return "done", nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

func waitTerminal(t *testing.T, j *Job) {
	t.Helper()
	select {
	case <-j.Done():
	case <-time.After(5 * time.Second):
		t.Fatalf("job %s did not finish (state %s)", j.ID(), j.State())
	}
}

func TestSubmitRunsAndReturnsValue(t *testing.T) {
	q := New(Config{Workers: 2, Capacity: 4})
	defer q.Shutdown(context.Background())
	j, err := q.Submit("", 0, func(ctx context.Context, j *Job) (any, error) {
		return 42, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, j)
	v, err := j.Result()
	if err != nil || v != 42 {
		t.Fatalf("result = %v, %v", v, err)
	}
	if st := q.Stats(); st.Completed != 1 {
		t.Fatalf("stats %+v, want 1 completed", st)
	}
}

// A job's waiters wake only after the queue has counted it: run moves the
// counters under q.mu before closing Done, so while the test holds q.mu a
// finished job cannot release its waiters, and once they wake Stats shows
// it completed and no longer running.
func TestCountersMoveBeforeWaitersWake(t *testing.T) {
	q := New(Config{Workers: 1, Capacity: 1})
	defer q.Shutdown(context.Background())
	started := make(chan string, 1)
	release := make(chan struct{})
	j, err := q.Submit("j", 0, blockingJob(started, release))
	if err != nil {
		t.Fatal(err)
	}
	<-started
	q.mu.Lock()
	close(release)
	select {
	case <-j.Done():
		completed, running := q.completed, q.running
		q.mu.Unlock()
		t.Fatalf("Done closed before the queue counted the job (completed %d, running %d)", completed, running)
	case <-time.After(100 * time.Millisecond):
	}
	q.mu.Unlock()
	waitTerminal(t, j)
	if st := q.Stats(); st.Completed != 1 || st.Running != 0 {
		t.Fatalf("stats once Done closed: %+v, want 1 completed and 0 running", st)
	}
}

// TestBackpressure fills a 1-worker, 2-slot queue and requires the next
// submission to fail fast with ErrQueueFull and a resubmitted live ID to
// report a duplicate, then submission to succeed again once a slot frees
// up.
func TestBackpressure(t *testing.T) {
	started := make(chan string, 8)
	release := make(chan struct{})
	q := New(Config{Workers: 1, Capacity: 2})
	defer func() {
		close(release)
		q.Shutdown(context.Background())
	}()

	running, err := q.Submit("running", 0, blockingJob(started, release))
	if err != nil {
		t.Fatal(err)
	}
	<-started // the worker holds "running"; queue is empty again

	if _, err := q.Submit("q1", 0, blockingJob(nil, release)); err != nil {
		t.Fatal(err)
	}
	if _, err := q.Submit("q2", 0, blockingJob(nil, release)); err != nil {
		t.Fatal(err)
	}
	if _, err := q.Submit("q3", 0, blockingJob(nil, release)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("err = %v, want ErrQueueFull", err)
	}
	// A full queue still reports a live job's ID as a duplicate, running
	// or queued, so a retried submission attaches to its job instead of
	// backing off.
	for _, id := range []string{"running", "q1"} {
		if _, err := q.Submit(id, 0, blockingJob(nil, release)); !errors.Is(err, ErrDuplicateID) {
			t.Fatalf("resubmit %s to a full queue: err = %v, want ErrDuplicateID", id, err)
		}
	}
	if st := q.Stats(); st.Depth != 2 || st.Running != 1 {
		t.Fatalf("stats %+v, want depth 2 running 1", st)
	}

	// Free a slot by canceling a queued job; submission works again.
	if !q.Cancel("q2") {
		t.Fatal("cancel of queued q2 had no effect")
	}
	if _, err := q.Submit("q4", 0, blockingJob(nil, release)); err != nil {
		t.Fatalf("submit after freeing a slot: %v", err)
	}
	_ = running
}

// TestPriorityOrder: with one worker, higher-priority jobs run before
// earlier-submitted lower-priority ones; ties run FIFO.
func TestPriorityOrder(t *testing.T) {
	started := make(chan string, 8)
	release := make(chan struct{})
	q := New(Config{Workers: 1, Capacity: 8})
	defer q.Shutdown(context.Background())

	gate := make(chan struct{})
	if _, err := q.Submit("gate", 0, blockingJob(started, gate)); err != nil {
		t.Fatal(err)
	}
	<-started // worker is pinned; everything below queues up

	for _, s := range []struct {
		id  string
		pri int
	}{{"low-1", 0}, {"low-2", 0}, {"high", 5}, {"mid", 3}} {
		if _, err := q.Submit(s.id, s.pri, blockingJob(started, release)); err != nil {
			t.Fatal(err)
		}
	}
	close(gate)
	close(release)
	want := []string{"high", "mid", "low-1", "low-2"}
	for _, w := range want {
		select {
		case got := <-started:
			if got != w {
				t.Fatalf("start order: got %s, want %s", got, w)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("timed out waiting for %s to start", w)
		}
	}
}

// TestCancelRunningJob: cancellation reaches a running job through its
// context and the job terminates as canceled.
func TestCancelRunningJob(t *testing.T) {
	started := make(chan string, 1)
	q := New(Config{Workers: 1, Capacity: 2})
	defer q.Shutdown(context.Background())
	j, err := q.Submit("victim", 0, blockingJob(started, nil))
	if err != nil {
		t.Fatal(err)
	}
	<-started
	if !q.Cancel("victim") {
		t.Fatal("cancel had no effect")
	}
	waitTerminal(t, j)
	if st := j.State(); st != StateCanceled {
		t.Fatalf("state = %s, want canceled", st)
	}
	if _, err := j.Result(); !errors.Is(err, ErrCanceled) {
		t.Fatalf("result err = %v, want ErrCanceled", err)
	}
}

// TestJobTimeout: a job exceeding the per-job timeout fails with the
// deadline error rather than hanging a worker forever.
func TestJobTimeout(t *testing.T) {
	q := New(Config{Workers: 1, Capacity: 2, JobTimeout: 30 * time.Millisecond})
	defer q.Shutdown(context.Background())
	j, err := q.Submit("slow", 0, blockingJob(nil, nil))
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, j)
	if st := j.State(); st != StateFailed {
		t.Fatalf("state = %s, want failed", st)
	}
	if _, err := j.Result(); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("result err = %v, want DeadlineExceeded", err)
	}
}

// TestJobTimeoutReleasesContexts: every job a queue runs under a
// JobTimeout releases its context, so the live heap stays flat however
// many jobs it has run. A deadline context derived beside a canceled one
// would stay registered with the queue's base context until Shutdown,
// about 140 bytes a job.
func TestJobTimeoutReleasesContexts(t *testing.T) {
	q := New(Config{Workers: 1, JobTimeout: time.Minute})
	defer q.Shutdown(context.Background())
	run := func(prefix string, n int) {
		for i := range n {
			j, err := q.Submit(fmt.Sprintf("%s-%d", prefix, i), 0, func(context.Context, *Job) (any, error) { return nil, nil })
			if err != nil {
				t.Fatal(err)
			}
			<-j.Done()
		}
	}
	run("fill", keepFinished) // the finished-job ring is kept by design
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	const jobs = 20_000
	run("probe", jobs)
	runtime.GC()
	runtime.ReadMemStats(&after)
	if grew := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / jobs; grew > 50 {
		t.Errorf("live heap grew %.0f bytes a job over %d jobs, want about 0", grew, jobs)
	}
}

// TestPanicBecomesFailure: a panicking job fails cleanly; the worker and
// queue survive.
func TestPanicBecomesFailure(t *testing.T) {
	q := New(Config{Workers: 1, Capacity: 2})
	defer q.Shutdown(context.Background())
	j, err := q.Submit("boom", 0, func(ctx context.Context, j *Job) (any, error) {
		panic("kaboom")
	})
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, j)
	if st := j.State(); st != StateFailed {
		t.Fatalf("state = %s, want failed", st)
	}
	// The pool still works.
	j2, err := q.Submit("after", 0, func(ctx context.Context, j *Job) (any, error) { return "ok", nil })
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, j2)
	if v, _ := j2.Result(); v != "ok" {
		t.Fatal("queue wedged after a panic")
	}
}

// TestSubscribeSeesTerminalUpdate: a subscriber always observes the final
// state even if it never drained intermediate progress.
func TestSubscribeSeesTerminalUpdate(t *testing.T) {
	started := make(chan string, 1)
	release := make(chan struct{})
	q := New(Config{Workers: 1, Capacity: 2})
	defer q.Shutdown(context.Background())
	j, err := q.Submit("obs", 0, func(ctx context.Context, j *Job) (any, error) {
		started <- j.ID()
		for i := 0; i < 100; i++ {
			j.SetProgress("simulating", i, 100)
		}
		<-release
		return "ok", nil
	})
	if err != nil {
		t.Fatal(err)
	}
	ch, cancel := j.Subscribe()
	defer cancel()
	<-started
	close(release)
	waitTerminal(t, j)
	var last Update
	for u := range ch {
		last = u
	}
	if last.State != StateDone {
		t.Fatalf("last streamed state = %s, want done", last.State)
	}
}

// TestShutdownDrains: a shutdown with a generous deadline lets queued and
// running jobs finish and returns nil.
func TestShutdownDrains(t *testing.T) {
	q := New(Config{Workers: 2, Capacity: 8})
	var ran sync.WaitGroup
	jobs := make([]*Job, 6)
	for i := range jobs {
		ran.Add(1)
		j, err := q.Submit("", 0, func(ctx context.Context, j *Job) (any, error) {
			defer ran.Done()
			time.Sleep(10 * time.Millisecond)
			return "ok", nil
		})
		if err != nil {
			t.Fatal(err)
		}
		jobs[i] = j
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := q.Shutdown(ctx); err != nil {
		t.Fatalf("drain shutdown returned %v", err)
	}
	ran.Wait()
	for _, j := range jobs {
		if st := j.State(); st != StateDone {
			t.Fatalf("job %s state %s after drain, want done", j.ID(), st)
		}
	}
	if _, err := q.Submit("late", 0, blockingJob(nil, nil)); !errors.Is(err, ErrShuttingDown) {
		t.Fatalf("post-shutdown submit err = %v, want ErrShuttingDown", err)
	}
}

// TestShutdownForceCancels: when the drain deadline passes, running jobs
// are canceled through their context, the backlog is flushed as canceled,
// and Shutdown still returns (with the deadline error).
func TestShutdownForceCancels(t *testing.T) {
	started := make(chan string, 1)
	q := New(Config{Workers: 1, Capacity: 4})
	running, err := q.Submit("stuck", 0, blockingJob(started, nil))
	if err != nil {
		t.Fatal(err)
	}
	<-started
	queued, err := q.Submit("backlog", 0, blockingJob(nil, nil))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := q.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("forced shutdown err = %v, want DeadlineExceeded", err)
	}
	waitTerminal(t, running)
	waitTerminal(t, queued)
	if st := running.State(); st != StateCanceled {
		t.Fatalf("running job state %s, want canceled", st)
	}
	if st := queued.State(); st != StateCanceled {
		t.Fatalf("queued job state %s, want canceled", st)
	}
}

// TestExternalInflight: the open-placement gauge counts external jobs that
// have not reached a terminal state — local jobs and completed externals
// never appear in it.
func TestExternalInflight(t *testing.T) {
	q := New(Config{Workers: 1, Capacity: 4})
	defer q.Shutdown(t.Context())

	if got := q.ExternalInflight(); got != 0 {
		t.Fatalf("fresh queue: external inflight = %d, want 0", got)
	}
	if _, err := q.SubmitExternal("ext-a", 0); err != nil {
		t.Fatal(err)
	}
	if _, err := q.SubmitExternal("ext-b", 0); err != nil {
		t.Fatal(err)
	}
	// A local job must not count.
	j, err := q.Submit("", 0, func(ctx context.Context, j *Job) (any, error) { return 1, nil })
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, j)
	if got := q.ExternalInflight(); got != 2 {
		t.Fatalf("external inflight = %d with two open placements, want 2", got)
	}
	if !q.CompleteExternal("ext-a", "done", nil) {
		t.Fatal("CompleteExternal(ext-a) = false")
	}
	if got := q.ExternalInflight(); got != 1 {
		t.Fatalf("external inflight = %d after one completion, want 1", got)
	}
	q.CompleteExternal("ext-b", nil, context.Canceled)
	if got := q.ExternalInflight(); got != 0 {
		t.Fatalf("external inflight = %d after both done, want 0", got)
	}
}

// TestFinishedJobsRetention: a queue keeps every live job and the last
// keepFinished finished ones. An older finished job is forgotten, unless
// its ID now names a newer job, which stays.
func TestFinishedJobsRetention(t *testing.T) {
	q := New(Config{Workers: 2, Capacity: 8})
	defer q.Shutdown(context.Background())
	ok := func(ctx context.Context, j *Job) (any, error) { return j.ID(), nil }
	run := func(id string) *Job {
		t.Helper()
		j, err := q.Submit(id, 0, ok)
		if err != nil {
			t.Fatal(err)
		}
		waitTerminal(t, j)
		return j
	}

	first := run("first")
	older := run("reused")
	release := make(chan struct{})
	newer, err := q.Submit("reused", 0, blockingJob(nil, release)) // the ID now names a live job
	if err != nil {
		t.Fatal(err)
	}
	external, err := q.SubmitExternal("external", 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range keepFinished {
		run(fmt.Sprintf("filler-%d", i))
	}

	if _, found := q.Get(first.ID()); found {
		t.Error("the oldest finished job is still retained")
	}
	if j, _ := q.Get("reused"); j != newer {
		t.Errorf("Get(reused) = %p, want the newer job %p (the older is %p)", j, newer, older)
	}
	if j, _ := q.Get("external"); j != external {
		t.Error("the live external job was forgotten")
	}
	if j, _ := q.Get(fmt.Sprintf("filler-%d", keepFinished-1)); j == nil {
		t.Error("the most recent finished job is not retained")
	}
	q.mu.Lock()
	kept := len(q.jobs)
	q.mu.Unlock()
	if want := keepFinished + 2; kept != want {
		t.Errorf("queue holds %d jobs, want %d (the last %d finished plus 2 live)", kept, want, keepFinished)
	}

	close(release)
	waitTerminal(t, newer)
	q.CompleteExternal("external", "ok", nil)
}
