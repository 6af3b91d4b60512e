package jobq

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/faultinject"
)

// TestPanicAttachesStack is the satellite regression: a panicking job must
// fail with the panic value AND the goroutine stack at the panic site.
func TestPanicAttachesStack(t *testing.T) {
	q := New(Config{Workers: 1})
	defer q.Shutdown(context.Background())

	j, err := q.Submit("boom", 0, func(context.Context, *Job) (any, error) {
		explodeForStackTest()
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	<-j.Done()
	_, jerr := j.Result()
	var pe *PanicError
	if !errors.As(jerr, &pe) {
		t.Fatalf("want *PanicError, got %T: %v", jerr, jerr)
	}
	if pe.JobID != "boom" || pe.Value != "kaboom" {
		t.Fatalf("wrong panic detail: %+v", pe)
	}
	if !strings.Contains(string(pe.Stack), "explodeForStackTest") {
		t.Fatalf("stack does not name the panic site:\n%s", pe.Stack)
	}
	if !strings.Contains(jerr.Error(), "explodeForStackTest") {
		t.Fatal("Error() drops the stack")
	}
	if j.State() != StateFailed {
		t.Fatalf("state %s, want failed", j.State())
	}
}

func explodeForStackTest() { panic("kaboom") }

// TestWorkerCrashRecovery drives the jobq.worker.crash fault point: the
// worker panics after popping the job but before running it. The job must
// fail (not vanish), occupancy must return to zero (exactly-once
// decrement), and the pool must keep serving subsequent jobs.
func TestWorkerCrashRecovery(t *testing.T) {
	prev := faultinject.Enable(faultinject.MustParse(3, "jobq.worker.crash:times=1"))
	defer faultinject.Enable(prev)

	q := New(Config{Workers: 1})
	defer q.Shutdown(context.Background())

	victim, err := q.Submit("victim", 0, func(context.Context, *Job) (any, error) {
		return "never runs", nil
	})
	if err != nil {
		t.Fatal(err)
	}
	<-victim.Done()
	_, verr := victim.Result()
	var pe *PanicError
	if !errors.As(verr, &pe) {
		t.Fatalf("crashed worker left %T (%v), want *PanicError", verr, verr)
	}
	if _, ok := pe.Value.(faultinject.PanicValue); !ok {
		t.Fatalf("panic value %v is not the injected crash", pe.Value)
	}

	// The pool must still be alive and consistent.
	survivor, err := q.Submit("survivor", 0, func(context.Context, *Job) (any, error) {
		return 42, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	<-survivor.Done()
	if v, err := survivor.Result(); err != nil || v != 42 {
		t.Fatalf("survivor got (%v, %v)", v, err)
	}
	st := q.Stats()
	if st.Running != 0 {
		t.Fatalf("occupancy leaked: %d running after both jobs finished", st.Running)
	}
	if st.Failed != 1 || st.Completed != 1 {
		t.Fatalf("counters: %+v, want 1 failed / 1 completed", st)
	}
}

// TestWorkerPanicReleasesMutexOnce pins the queue's lock discipline on the
// panic path: runGuarded's recovery must leave q.mu released (not held — a
// later Stats or Submit would deadlock) and must decrement the occupancy
// count exactly once (a double decrement would drive Running negative,
// since the crashed pop incremented it exactly once). The crash lands amid
// a backlog so surviving workers immediately re-contend for the same
// mutex.
func TestWorkerPanicReleasesMutexOnce(t *testing.T) {
	prev := faultinject.Enable(faultinject.MustParse(9, "jobq.worker.crash:times=1"))
	defer faultinject.Enable(prev)

	q := New(Config{Workers: 2, Capacity: 16})
	defer q.Shutdown(context.Background())

	const n = 6
	jobs := make([]*Job, 0, n)
	for i := 0; i < n; i++ {
		j, err := q.Submit("", 0, func(context.Context, *Job) (any, error) { return "ok", nil })
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	crashed := 0
	for _, j := range jobs {
		<-j.Done()
		if _, err := j.Result(); err != nil {
			var pe *PanicError
			if !errors.As(err, &pe) {
				t.Fatalf("job failed with %T (%v), want *PanicError", err, err)
			}
			crashed++
		}
	}
	if crashed != 1 {
		t.Fatalf("%d jobs crashed, want exactly 1 (times=1 plan)", crashed)
	}

	// The mutex must be acquirable again: probe Stats off the test
	// goroutine so a leaked lock surfaces as a test failure, not a hang.
	statsCh := make(chan Stats, 1)
	go func() { statsCh <- q.Stats() }()
	var st Stats
	select {
	case st = <-statsCh:
	case <-time.After(2 * time.Second):
		t.Fatal("Stats blocked: queue mutex still held after worker panic")
	}
	if st.Running != 0 {
		t.Fatalf("Running = %d after all jobs finished, want 0 (exactly-once decrement)", st.Running)
	}
	if st.Depth != 0 {
		t.Fatalf("Depth = %d, want 0", st.Depth)
	}
	if st.Failed != 1 || st.Completed != uint64(n-1) {
		t.Fatalf("counters %+v, want 1 failed / %d completed", st, n-1)
	}

	// And the pool still serves.
	j, err := q.Submit("after-crash", 0, func(context.Context, *Job) (any, error) { return 1, nil })
	if err != nil {
		t.Fatal(err)
	}
	<-j.Done()
	if v, err := j.Result(); err != nil || v != 1 {
		t.Fatalf("post-crash job got (%v, %v), want (1, nil)", v, err)
	}
}

// TestWorkerStallFaultDelaysButCompletes exercises jobq.worker.stall: the
// job is delayed, not lost.
func TestWorkerStallFaultDelaysButCompletes(t *testing.T) {
	prev := faultinject.Enable(faultinject.MustParse(4, "jobq.worker.stall:times=1:delay=30ms"))
	defer faultinject.Enable(prev)

	q := New(Config{Workers: 1})
	defer q.Shutdown(context.Background())

	start := time.Now()
	j, err := q.Submit("stalled", 0, func(context.Context, *Job) (any, error) { return "ok", nil })
	if err != nil {
		t.Fatal(err)
	}
	<-j.Done()
	if v, jerr := j.Result(); jerr != nil || v != "ok" {
		t.Fatalf("stalled job got (%v, %v)", v, jerr)
	}
	if time.Since(start) < 25*time.Millisecond {
		t.Fatal("stall fault did not delay the job")
	}
}

// TestCancelPoppedJob: a job a worker has popped but not started is still
// queued, so Cancel finishes it there. By the time Done closes it must be
// off the running count, and the worker, whether it then reaches run or
// crashes first, must not take it off a second time.
func TestCancelPoppedJob(t *testing.T) {
	for _, plan := range []string{
		"jobq.worker.stall:times=1:delay=200ms",
		"jobq.worker.stall:times=1:delay=200ms,jobq.worker.crash:times=1",
	} {
		t.Run(plan, func(t *testing.T) {
			prev := faultinject.Enable(faultinject.MustParse(5, plan))
			defer faultinject.Enable(prev)

			q := New(Config{Workers: 1})
			defer q.Shutdown(context.Background())

			j, err := q.Submit("popped", 0, func(context.Context, *Job) (any, error) { return "ran", nil })
			if err != nil {
				t.Fatal(err)
			}
			deadline := time.Now().Add(5 * time.Second)
			for st := q.Stats(); st.Depth != 0 || st.Running != 1; st = q.Stats() {
				if time.Now().After(deadline) {
					t.Fatalf("worker never popped the job: %+v", st)
				}
				time.Sleep(time.Millisecond)
			}
			if !q.Cancel("popped") {
				t.Fatal("Cancel of a popped job had no effect")
			}
			<-j.Done()
			if st := q.Stats(); st.Running != 0 || st.Canceled != 1 {
				t.Fatalf("once Done closed: %+v, want Running 0 and Canceled 1", st)
			}

			// The next job runs only after the worker is done with the
			// canceled one.
			next, err := q.Submit("next", 0, func(context.Context, *Job) (any, error) { return "ok", nil })
			if err != nil {
				t.Fatal(err)
			}
			<-next.Done()
			st := q.Stats()
			if st.Running != 0 || st.Canceled != 1 || st.Failed != 0 || st.Completed != 1 {
				t.Fatalf("after the worker moved on: %+v, want Running 0, Canceled 1, Failed 0, Completed 1", st)
			}
			if _, err := j.Result(); !errors.Is(err, ErrCanceled) {
				t.Fatalf("canceled job's result: %v, want ErrCanceled", err)
			}
		})
	}
}
