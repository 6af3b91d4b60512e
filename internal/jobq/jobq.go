// Package jobq is cdpd's bounded job queue: a fixed worker pool draining a
// priority heap, with backpressure when the queue is full, per-job
// context-based cancellation and timeout, progress subscriptions for
// streaming clients, and a graceful shutdown that drains in-flight work
// within a deadline or cancels what remains.
package jobq

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"repro/internal/faultinject"
)

// State is a job's lifecycle position. Terminal states are StateDone,
// StateFailed, and StateCanceled.
type State string

const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// Terminal reports whether s is an end state.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

var (
	// ErrQueueFull is backpressure: the caller should retry later (the
	// API layer maps it to 429 + Retry-After).
	ErrQueueFull = errors.New("jobq: queue full")
	// ErrShuttingDown rejects submissions after Shutdown began.
	ErrShuttingDown = errors.New("jobq: shutting down")
	// ErrCanceled is the result error of a job canceled before or while
	// running.
	ErrCanceled = errors.New("jobq: job canceled")
	// ErrDuplicateID rejects a submission reusing a live job ID.
	ErrDuplicateID = errors.New("jobq: duplicate job id")
)

// PanicError is the failure a panicking job (or a crashed worker) leaves
// behind: the recovered value plus the goroutine stack captured at the
// recovery site, so the panic is debuggable from the job's error detail
// instead of only from daemon stderr.
type PanicError struct {
	JobID string
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("jobq: job %s panicked: %v\n%s", e.JobID, e.Value, e.Stack)
}

// Func is the work a job performs. ctx is canceled when the job is
// canceled, times out, or the queue force-drains; cooperative functions
// return promptly once it is. The job handle lets the function publish
// progress.
type Func func(ctx context.Context, j *Job) (any, error)

// Update is one progress observation, shaped for NDJSON streaming.
type Update struct {
	JobID string `json:"job_id"`
	State State  `json:"state"`
	Stage string `json:"stage,omitempty"`
	Done  int    `json:"done,omitempty"`
	Total int    `json:"total,omitempty"`
	Error string `json:"error,omitempty"`
}

// Job is one unit of queued work.
type Job struct {
	id       string
	priority int
	seq      uint64
	index    int           // heap position; -1 once popped or removed
	timeout  time.Duration // per-job override of Config.JobTimeout (0 = inherit)
	fn       Func
	// external marks a job whose work runs outside this queue's worker
	// pool (the cluster coordinator forwarding to a remote worker). It is
	// never heaped, consumes no slot, and only CompleteExternal or Cancel
	// can finish it.
	external bool

	mu       sync.Mutex
	state    State                // simlint:guardedby mu
	stage    string               // simlint:guardedby mu
	done     int                  // simlint:guardedby mu
	total    int                  // simlint:guardedby mu
	value    any                  // simlint:guardedby mu
	err      error                // simlint:guardedby mu
	canceled bool                 // simlint:guardedby mu
	cancel   context.CancelFunc   // simlint:guardedby mu
	subs     map[chan Update]bool // simlint:guardedby mu
	doneCh   chan struct{}
}

// ID returns the job's queue-unique identifier.
func (j *Job) ID() string { return j.id }

// Priority returns the submission priority (higher runs first).
func (j *Job) Priority() int { return j.priority }

// State returns the current lifecycle state.
func (j *Job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Done is closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.doneCh }

// Result returns the job's value and error; meaningful only after Done is
// closed.
func (j *Job) Result() (any, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.value, j.err
}

// SetProgress publishes a progress observation to all subscribers. It is
// safe to call from the job function at any rate; slow subscribers drop
// intermediate updates rather than blocking the worker.
func (j *Job) SetProgress(stage string, done, total int) {
	j.mu.Lock()
	j.stage, j.done, j.total = stage, done, total
	j.broadcastLocked()
	j.mu.Unlock()
}

// Snapshot returns the job's current Update.
func (j *Job) Snapshot() Update {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.snapshotLocked()
}

func (j *Job) snapshotLocked() Update {
	u := Update{JobID: j.id, State: j.state, Stage: j.stage, Done: j.done, Total: j.total}
	if j.err != nil {
		u.Error = j.err.Error()
	}
	return u
}

// Subscribe returns a channel of progress updates, primed with the current
// snapshot and closed once the job is terminal (the terminal update is
// always delivered). The returned cancel function releases the
// subscription; it is safe to call more than once.
func (j *Job) Subscribe() (<-chan Update, func()) {
	ch := make(chan Update, 16)
	j.mu.Lock()
	ch <- j.snapshotLocked()
	if j.state.Terminal() {
		close(ch)
		j.mu.Unlock()
		return ch, func() {}
	}
	j.subs[ch] = true
	j.mu.Unlock()
	var once sync.Once
	return ch, func() {
		once.Do(func() {
			j.mu.Lock()
			if j.subs[ch] {
				delete(j.subs, ch)
				close(ch)
			}
			j.mu.Unlock()
		})
	}
}

// broadcastLocked fans the current snapshot out to subscribers, dropping
// the update for any subscriber whose buffer is full. Caller holds j.mu.
func (j *Job) broadcastLocked() {
	u := j.snapshotLocked()
	for ch := range j.subs {
		select {
		case ch <- u:
		default:
		}
	}
}

// finishLocked moves the job to a terminal state, delivers the final
// update to every subscriber (blocking-free: the final state is also
// readable via Snapshot after doneCh closes), and closes doneCh. Caller
// holds j.mu.
func (j *Job) finishLocked(st State, value any, err error) {
	if j.state.Terminal() {
		return
	}
	j.state = st
	j.value = value
	j.err = err
	u := j.snapshotLocked()
	for ch := range j.subs {
		// Make room for the terminal update if the buffer is full of
		// stale progress; subscribers always observe the end state.
		select {
		case ch <- u:
		default:
			select {
			case <-ch:
			default:
			}
			select {
			case ch <- u:
			default:
			}
		}
		delete(j.subs, ch)
		close(ch)
	}
	close(j.doneCh)
}

// jobHeap orders queued jobs by priority (higher first), then FIFO.
type jobHeap []*Job

func (h jobHeap) Len() int { return len(h) }
func (h jobHeap) Less(a, b int) bool {
	if h[a].priority != h[b].priority {
		return h[a].priority > h[b].priority
	}
	return h[a].seq < h[b].seq
}
func (h jobHeap) Swap(a, b int) {
	h[a], h[b] = h[b], h[a]
	h[a].index = a
	h[b].index = b
}
func (h *jobHeap) Push(x any) {
	j := x.(*Job)
	j.index = len(*h)
	*h = append(*h, j)
}
func (h *jobHeap) Pop() any {
	old := *h
	n := len(old)
	j := old[n-1]
	old[n-1] = nil
	j.index = -1
	*h = old[:n-1]
	return j
}

// Config sizes a queue.
type Config struct {
	// Workers is the fixed pool size (0 = GOMAXPROCS).
	Workers int
	// Capacity bounds the number of queued (not yet running) jobs;
	// submissions beyond it fail with ErrQueueFull. 0 defaults to 64.
	Capacity int
	// JobTimeout bounds each job's execution (0 = no per-job timeout).
	JobTimeout time.Duration
}

func (c Config) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

func (c Config) capacity() int {
	if c.Capacity > 0 {
		return c.Capacity
	}
	return 64
}

// Stats is a point-in-time queue snapshot for /metrics.
type Stats struct {
	Workers   int
	Capacity  int
	Depth     int // queued, waiting for a worker
	Running   int
	Accepting bool
	Completed uint64
	Failed    uint64
	Canceled  uint64
}

// keepFinished is how many finished jobs a queue keeps answering Get for,
// beside every live one. An older finished job is forgotten, and with it
// the result it holds; a resubmission of the same work is answered by
// whatever cache the job filled. It is sized for clients that poll a job
// instead of waiting on it: at cdpd-cluster's ~130 misses a second on two
// vCPUs, this many later jobs take about a minute (DESIGN.md §8).
const keepFinished = 8192

// Queue is the bounded priority job queue. Construct with New.
type Queue struct {
	cfg        Config
	baseCtx    context.Context
	baseCancel context.CancelFunc

	mu        sync.Mutex
	cond      *sync.Cond
	pq        jobHeap         // simlint:guardedby mu
	jobs      map[string]*Job // simlint:guardedby mu
	closed    bool            // simlint:guardedby mu
	running   int             // simlint:guardedby mu
	seqNext   uint64          // simlint:guardedby mu
	completed uint64          // simlint:guardedby mu
	failed    uint64          // simlint:guardedby mu
	canceled  uint64          // simlint:guardedby mu
	// finished rings the most recent finished jobs; nextDone is the slot
	// the next one takes, retiring the job there.
	finished [keepFinished]*Job // simlint:guardedby mu
	nextDone int                // simlint:guardedby mu
	wg       sync.WaitGroup
}

// New builds a queue and starts its worker pool. The queue's base context
// is the lifecycle root for every job it will ever run — jobs outlive any
// single request, and Shutdown (not a caller's deadline) is what cancels
// them.
//
// simlint:rootctx
func New(cfg Config) *Queue {
	ctx, cancel := context.WithCancel(context.Background())
	q := &Queue{
		cfg:        cfg,
		baseCtx:    ctx,
		baseCancel: cancel,
		jobs:       map[string]*Job{},
	}
	q.cond = sync.NewCond(&q.mu)
	for i := 0; i < cfg.workers(); i++ {
		q.wg.Add(1)
		go q.worker()
	}
	return q
}

// Submit enqueues work under the given id (empty = auto-assigned) and
// priority. It fails with ErrDuplicateID while a job of that id is live,
// even when the queue is full, so a retried submission can attach to its
// job; otherwise it fails fast with ErrQueueFull when the queue is at
// capacity, and with ErrShuttingDown once Shutdown has begun.
func (q *Queue) Submit(id string, priority int, fn Func) (*Job, error) {
	return q.SubmitTimeout(id, priority, 0, fn)
}

// SubmitTimeout is Submit with a per-job execution timeout overriding the
// queue-wide Config.JobTimeout (0 = inherit). The API layer uses it for
// adaptive deadlines sized from observed simulation throughput.
func (q *Queue) SubmitTimeout(id string, priority int, timeout time.Duration, fn Func) (*Job, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return nil, ErrShuttingDown
	}
	seq := q.seqNext + 1
	if id == "" {
		id = fmt.Sprintf("job-%d", seq)
	}
	if prev, ok := q.jobs[id]; ok && !prev.State().Terminal() {
		return nil, fmt.Errorf("%w: %s", ErrDuplicateID, id)
	}
	if len(q.pq) >= q.cfg.capacity() {
		return nil, ErrQueueFull
	}
	q.seqNext = seq
	j := &Job{
		id:       id,
		priority: priority,
		seq:      seq,
		timeout:  timeout,
		fn:       fn,
		state:    StateQueued,
		subs:     map[chan Update]bool{},
		doneCh:   make(chan struct{}),
	}
	q.jobs[id] = j
	heap.Push(&q.pq, j)
	q.cond.Signal()
	return j, nil
}

// SubmitExternal registers a job whose work happens outside the worker
// pool — the cluster coordinator's remote forwards. The job is born
// StateRunning (there is no queued phase: the remote side starts
// immediately), occupies no queue slot, and stays alive until
// CompleteExternal or Cancel. Everything else about it — Get, Subscribe,
// progress, terminal counters — behaves like a local job, so the API
// layer's job views and streams need no special casing.
func (q *Queue) SubmitExternal(id string, priority int) (*Job, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return nil, ErrShuttingDown
	}
	q.seqNext++
	if id == "" {
		id = fmt.Sprintf("job-%d", q.seqNext)
	}
	if prev, ok := q.jobs[id]; ok && !prev.State().Terminal() {
		return nil, fmt.Errorf("%w: %s", ErrDuplicateID, id)
	}
	j := &Job{
		id:       id,
		priority: priority,
		seq:      q.seqNext,
		index:    -1,
		external: true,
		state:    StateRunning,
		subs:     map[chan Update]bool{},
		doneCh:   make(chan struct{}),
	}
	q.jobs[id] = j
	return j, nil
}

// CompleteExternal finishes an external job with the remote side's result,
// moving the lifetime counters exactly as a locally run job would. It
// reports false for unknown, non-external, or already-terminal jobs (a
// late completion racing a Cancel is the common benign case).
func (q *Queue) CompleteExternal(id string, value any, err error) bool {
	q.mu.Lock()
	j, ok := q.jobs[id]
	if !ok || !j.external {
		q.mu.Unlock()
		return false
	}
	j.mu.Lock()
	if j.state.Terminal() {
		j.mu.Unlock()
		q.mu.Unlock()
		return false
	}
	switch {
	case err == nil:
		q.finishLocked(j, StateDone, value, nil)
	case j.canceled || errors.Is(err, context.Canceled):
		q.finishLocked(j, StateCanceled, nil, fmt.Errorf("%w: %v", ErrCanceled, err))
	default:
		q.finishLocked(j, StateFailed, nil, err)
	}
	j.mu.Unlock()
	q.mu.Unlock()
	return true
}

// ExternalInflight counts external jobs that have not reached a terminal
// state — the coordinator's open placements. The cluster metrics block and
// the chaos orchestrator's no-lost-jobs invariant read it.
func (q *Queue) ExternalInflight() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	n := 0
	for _, j := range q.jobs {
		if j.external && !j.State().Terminal() {
			n++
		}
	}
	return n
}

// Get finds a job by id: a queued or running one, or one of the last
// keepFinished to finish.
func (q *Queue) Get(id string) (*Job, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	j, ok := q.jobs[id]
	return j, ok
}

// Cancel requests cancellation of a job. A queued job terminates
// immediately; a running job has its context canceled and terminates when
// its function returns. Cancel reports whether it had any effect.
func (q *Queue) Cancel(id string) bool {
	q.mu.Lock()
	j, ok := q.jobs[id]
	if !ok {
		q.mu.Unlock()
		return false
	}
	j.mu.Lock()
	switch j.state {
	case StateQueued:
		if j.index >= 0 {
			heap.Remove(&q.pq, j.index)
		} else {
			// A worker popped it but has not started it: take it off
			// running here, with the count that says it was canceled.
			q.running--
		}
		j.canceled = true
		q.finishLocked(j, StateCanceled, nil, ErrCanceled)
		j.mu.Unlock()
		q.mu.Unlock()
		return true
	case StateRunning:
		j.canceled = true
		if j.external {
			// No worker will ever observe a canceled context for an
			// external job; it terminates here. The coordinator's forward
			// goroutine watches Done and abandons the remote attempt.
			q.finishLocked(j, StateCanceled, nil, ErrCanceled)
			j.mu.Unlock()
			q.mu.Unlock()
			return true
		}
		cancel := j.cancel
		j.mu.Unlock()
		q.mu.Unlock()
		if cancel != nil {
			cancel()
		}
		return true
	default:
		j.mu.Unlock()
		q.mu.Unlock()
		return false
	}
}

// Stats snapshots queue occupancy and lifetime counters.
func (q *Queue) Stats() Stats {
	q.mu.Lock()
	defer q.mu.Unlock()
	return Stats{
		Workers:   q.cfg.workers(),
		Capacity:  q.cfg.capacity(),
		Depth:     len(q.pq),
		Running:   q.running,
		Accepting: !q.closed,
		Completed: q.completed,
		Failed:    q.failed,
		Canceled:  q.canceled,
	}
}

// Shutdown stops accepting submissions and waits for queued and running
// jobs to finish. If ctx expires first, every remaining job's context is
// canceled and Shutdown waits for the workers to observe that, returning
// ctx's error. Either way the pool is fully stopped on return.
func (q *Queue) Shutdown(ctx context.Context) error {
	q.mu.Lock()
	q.closed = true
	q.cond.Broadcast()
	q.mu.Unlock()

	drained := make(chan struct{})
	go func() {
		q.wg.Wait()
		close(drained)
	}()
	select {
	case <-drained:
		return nil
	case <-ctx.Done():
		// Deadline passed: cancel running jobs via the shared base
		// context and flush the backlog as canceled. External jobs have
		// no worker to unwind them, so they are flushed here too —
		// otherwise a client blocked on one would hang past shutdown.
		q.baseCancel()
		q.mu.Lock()
		for len(q.pq) > 0 {
			j := heap.Pop(&q.pq).(*Job)
			j.mu.Lock()
			j.canceled = true
			q.finishLocked(j, StateCanceled, nil, ErrCanceled)
			j.mu.Unlock()
		}
		for _, j := range q.jobs {
			if !j.external {
				continue
			}
			j.mu.Lock()
			if !j.state.Terminal() {
				j.canceled = true
				q.finishLocked(j, StateCanceled, nil, ErrCanceled)
			}
			j.mu.Unlock()
		}
		q.cond.Broadcast()
		q.mu.Unlock()
		<-drained
		return ctx.Err()
	}
}

// worker pops and runs jobs until the queue is closed and empty.
func (q *Queue) worker() {
	defer q.wg.Done()
	for {
		q.mu.Lock()
		for len(q.pq) == 0 && !q.closed {
			q.cond.Wait()
		}
		if len(q.pq) == 0 {
			q.mu.Unlock()
			return
		}
		j := heap.Pop(&q.pq).(*Job)
		q.running++
		q.mu.Unlock()

		q.runGuarded(j)
	}
}

// runGuarded runs one popped job and guarantees — even if the worker
// goroutine itself crashes outside the job function — that the job reaches
// a terminal state, the failure counter moves, and the occupancy count is
// decremented exactly once. A crash is swallowed after recovery so the
// worker keeps draining the queue instead of silently shrinking the pool.
func (q *Queue) runGuarded(j *Job) {
	ran := false // run returned, having moved the counters itself
	defer func() {
		if ran {
			return
		}
		r := recover()
		q.mu.Lock()
		j.mu.Lock()
		// Only Cancel can finish a popped job before run does, and it
		// counted the job and took it off running.
		canceled := j.state.Terminal()
		if r != nil && !canceled {
			q.finishLocked(j, StateFailed, nil, &PanicError{JobID: j.id, Value: r, Stack: debug.Stack()})
		}
		j.mu.Unlock()
		if !canceled {
			q.running--
		}
		q.mu.Unlock()
	}()
	// Fault points: a worker that stalls before starting a popped job
	// (queue-stall drill), and one that then crashes.
	faultinject.Sleep(q.baseCtx, "jobq.worker.stall")
	faultinject.MaybePanic("jobq.worker.crash")
	q.run(j)
	ran = true
}

// run executes one popped job through its terminal state and takes it off
// the running count.
func (q *Queue) run(j *Job) {
	j.mu.Lock()
	if j.state.Terminal() {
		// Canceled between pop and here; Cancel counted it and took it
		// off running.
		j.mu.Unlock()
		return
	}
	timeout := q.cfg.JobTimeout
	if j.timeout > 0 {
		timeout = j.timeout
	}
	ctx, cancel := context.WithCancel(q.baseCtx)
	if timeout > 0 {
		ctx, cancel = context.WithTimeout(q.baseCtx, timeout)
	}
	j.cancel = cancel
	j.state = StateRunning
	j.broadcastLocked()
	j.mu.Unlock()

	value, err := runSafely(ctx, j)
	cancel()

	// finishLocked releases the job's waiters, so it runs under q.mu (taken
	// before j.mu, as in Cancel and Shutdown) beside the counter updates: a
	// waiter that reads Stats once Done closes sees this job counted and
	// not running.
	q.mu.Lock()
	j.mu.Lock()
	switch {
	case err == nil:
		q.finishLocked(j, StateDone, value, nil)
	case j.canceled || errors.Is(err, context.Canceled):
		q.finishLocked(j, StateCanceled, nil, fmt.Errorf("%w: %v", ErrCanceled, err))
	default:
		q.finishLocked(j, StateFailed, nil, err)
	}
	j.mu.Unlock()
	q.running--
	q.mu.Unlock()
}

// finishLocked moves j to the terminal state st, counts it, and rings it
// among the finished jobs. The job it displaces from the ring, finished
// keepFinished transitions ago, is forgotten unless its ID now names a
// newer job. Every terminal transition goes through here. Caller holds
// q.mu and j.mu.
func (q *Queue) finishLocked(j *Job, st State, value any, err error) {
	j.finishLocked(st, value, err)
	switch st {
	case StateDone:
		q.completed++
	case StateFailed:
		q.failed++
	default:
		q.canceled++
	}
	if old := q.finished[q.nextDone]; old != nil && q.jobs[old.id] == old {
		delete(q.jobs, old.id)
	}
	q.finished[q.nextDone] = j
	q.nextDone = (q.nextDone + 1) % keepFinished
}

// runSafely converts a panicking job function into a failed job instead of
// taking the daemon down with it, attaching the stack captured at recovery
// so the panic site survives into the job's error detail.
func runSafely(ctx context.Context, j *Job) (value any, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{JobID: j.id, Value: r, Stack: debug.Stack()}
		}
	}()
	faultinject.MaybePanic("jobq.job.panic")
	return j.fn(ctx, j)
}
