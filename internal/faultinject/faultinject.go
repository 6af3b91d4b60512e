// Package faultinject is the deterministic fault-injection framework the
// resilience layer is tested against. Production code declares named fault
// points at the places failures can happen (a worker about to run a job, a
// cache compute, a response writer); a seeded, schedule-driven Plan decides
// at each hit whether the fault fires. With no plan enabled every helper is
// a single atomic load and a nil check, so the simulator's golden outputs
// are byte-identical with the framework compiled in.
//
// Schedules are strings so they can travel through flags and environment
// variables (cdpd's -faults / CDPD_FAULTS):
//
//	point[:key=value]*  ( "," separated rules )
//
// with keys
//
//	p=0.25      fire with probability 0.25 per hit (default 1)
//	after=10    skip the first 10 hits
//	times=3     fire at most 3 times (default unlimited)
//	delay=5ms   sleep duration for latency points (default 1ms)
//
// Example: "jobq.worker.panic:p=0.1:times=2,simcache.compute.error:after=5".
//
// Determinism: each rule draws from its own splitmix64 stream seeded by
// (plan seed, point name), so a single-threaded caller sees the same fire
// schedule for the same seed. Under concurrency the per-point hit order is
// whatever the scheduler produces — chaos tests therefore assert
// invariants (no lost jobs, coherent cache), not exact traces.
package faultinject

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Point describes one declared fault site. The catalog below is the
// authoritative list; Parse rejects schedules naming unknown points so a
// typo fails loudly instead of silently injecting nothing.
type Point struct {
	Name string
	// Effect documents what firing does at this site.
	Effect string
}

// catalog lists every fault point the codebase declares, in rough
// request-flow order. Tests and DESIGN.md §9 render this table.
var catalog = []Point{
	{"jobq.worker.crash", "panics the worker goroutine between popping a job and running it (worker-crash drill; the pool must fail the job, keep occupancy exact, and keep serving)"},
	{"jobq.worker.stall", "sleeps the worker before it runs a popped job (queue stall / slow-worker drill)"},
	{"jobq.job.panic", "panics inside the job function itself (exercises runSafely's recovery and stack capture)"},
	{"simcache.compute.error", "fails a cache compute with an injected error (the error must not be cached; waiters must retry)"},
	{"simcache.evict.storm", "evicts every resident entry before inserting a freshly computed one (eviction-storm drill)"},
	{"api.respond.latency", "sleeps before writing a response body (slow-server drill for client timeout/retry)"},
	{"api.respond.partialwrite", "writes a truncated response body and aborts the connection (partial-write drill; clients must retry)"},
	{"api.stream.drop", "terminates an NDJSON progress stream mid-flight (mid-stream disconnect drill)"},
	{"sim.checkpoint.abort", "fails a checkpointed simulation at its next op-count boundary (budget-exhaustion / crash-mid-run drill; resume must complete it)"},
	{"ckpt.write.error", "fails persisting a checkpoint snapshot to disk (resume must fall back to the previous snapshot)"},
	{"cluster.register.error", "fails a worker's registration with the coordinator (the heartbeat loop must keep retrying until admitted)"},
	{"cluster.heartbeat.drop", "drops a worker heartbeat before it reaches the coordinator (lease-lapse drill; enough drops expire the lease and trigger stealing)"},
	{"cluster.steal.stall", "sleeps the coordinator between dropping a dead worker and re-routing its jobs (slow-steal drill; clients keep waiting, nothing is lost)"},
	{"cluster.peerfetch.error", "fails a peer cache fetch (the tier must fall through to recomputing, never error the request)"},
	{"cluster.journal.write-error", "fails appending a record to the coordinator's write-ahead journal (recovery loses that record but live requests must not fail)"},
	{"disk.cache.torn-write", "truncates a disk-tier spill mid-payload, simulating a torn write (the CRC trailer must quarantine the entry on the next read)"},
}

// Points returns the declared fault-point catalog, sorted by name.
func Points() []Point {
	out := make([]Point, len(catalog))
	copy(out, catalog)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

func known(name string) bool {
	for _, p := range catalog {
		if p.Name == name {
			return true
		}
	}
	return false
}

// rule is one armed schedule entry.
type rule struct {
	point string
	prob  float64
	after uint64
	times uint64
	delay time.Duration

	mu    sync.Mutex
	hits  uint64
	fired uint64
	rng   uint64 // splitmix64 state
}

// splitmix64 advances the rule's private stream and returns a uniform
// float64 in [0,1).
func (r *rule) next() float64 {
	r.rng += 0x9E3779B97F4A7C15
	z := r.rng
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return float64(z>>11) / float64(1<<53)
}

// shouldFire applies the (after, times, p) gates for one hit.
func (r *rule) shouldFire() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.hits++
	if r.hits <= r.after {
		return false
	}
	if r.times > 0 && r.fired >= r.times {
		return false
	}
	if r.prob < 1 && r.next() >= r.prob {
		return false
	}
	r.fired++
	return true
}

// Plan is a parsed, seeded fault schedule. A Plan is inert until Enable
// installs it.
type Plan struct {
	seed  int64
	rules map[string]*rule
	fired atomic.Uint64
}

// seedFor mixes the plan seed with the point name so distinct points get
// independent deterministic streams.
func seedFor(seed int64, point string) uint64 {
	h := uint64(seed) ^ 0xD6E8FEB86659FD93
	for i := 0; i < len(point); i++ {
		h ^= uint64(point[i])
		h *= 0x100000001B3
	}
	return h
}

// Parse builds a Plan from a schedule string (see the package comment for
// the grammar). An empty spec yields a valid plan with no armed points.
func Parse(seed int64, spec string) (*Plan, error) {
	p := &Plan{seed: seed, rules: map[string]*rule{}}
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		fields := strings.Split(part, ":")
		name := fields[0]
		if !known(name) {
			return nil, fmt.Errorf("faultinject: unknown fault point %q (see faultinject.Points)", name)
		}
		if _, dup := p.rules[name]; dup {
			return nil, fmt.Errorf("faultinject: duplicate rule for %q", name)
		}
		r := &rule{point: name, prob: 1, delay: time.Millisecond, rng: seedFor(seed, name)}
		for _, opt := range fields[1:] {
			k, v, ok := strings.Cut(opt, "=")
			if !ok {
				return nil, fmt.Errorf("faultinject: malformed option %q in rule %q", opt, part)
			}
			var err error
			switch k {
			case "p":
				r.prob, err = strconv.ParseFloat(v, 64)
				if err == nil && (r.prob < 0 || r.prob > 1 || math.IsNaN(r.prob)) {
					err = fmt.Errorf("probability %v outside [0,1]", r.prob)
				}
			case "after":
				r.after, err = strconv.ParseUint(v, 10, 64)
			case "times":
				r.times, err = strconv.ParseUint(v, 10, 64)
			case "delay":
				r.delay, err = time.ParseDuration(v)
				if err == nil && r.delay < 0 {
					err = fmt.Errorf("negative delay %v", r.delay)
				}
			default:
				err = fmt.Errorf("unknown key %q", k)
			}
			if err != nil {
				return nil, fmt.Errorf("faultinject: rule %q: %v", part, err)
			}
		}
		p.rules[name] = r
	}
	return p, nil
}

// MustParse is Parse for tests and static schedules; it panics on error.
func MustParse(seed int64, spec string) *Plan {
	p, err := Parse(seed, spec)
	if err != nil {
		panic(err)
	}
	return p
}

// Fired reports how many faults this plan has injected in total.
func (p *Plan) Fired() uint64 { return p.fired.Load() }

// active is the installed plan; nil means every fault helper is a no-op.
var active atomic.Pointer[Plan]

// Enable installs p as the process-wide fault plan (nil disables). It
// returns the previously installed plan so tests can restore it.
func Enable(p *Plan) *Plan { return active.Swap(p) }

// Disable removes any installed plan.
func Disable() { active.Store(nil) }

// Enabled reports whether a fault plan is installed.
func Enabled() bool { return active.Load() != nil }

// hit resolves one arrival at a fault point against the active plan.
func hit(point string) (*rule, bool) {
	p := active.Load()
	if p == nil {
		return nil, false
	}
	r, ok := p.rules[point]
	if !ok || !r.shouldFire() {
		return nil, false
	}
	p.fired.Add(1)
	return r, true
}

// Should reports whether the fault at point fires on this hit. Sites with
// bespoke effects (truncating a write, dropping a stream) use this form.
func Should(point string) bool {
	_, fire := hit(point)
	return fire
}

// InjectedError is the error type every error-mode fault returns, so tests
// and retry loops can recognise injected failures with errors.As.
type InjectedError struct{ Point string }

func (e *InjectedError) Error() string {
	return fmt.Sprintf("faultinject: injected fault at %s", e.Point)
}

// Error returns an injected error when the fault at point fires, else nil.
func Error(point string) error {
	if _, fire := hit(point); fire {
		return &InjectedError{Point: point}
	}
	return nil
}

// Sleep blocks for the rule's delay when the fault at point fires; it
// returns early if ctx is done first. It reports whether a delay was
// injected.
func Sleep(ctx context.Context, point string) bool {
	r, fire := hit(point)
	if !fire {
		return false
	}
	t := time.NewTimer(r.delay)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
	return true
}

// MaybePanic panics with an identifiable value when the fault at point
// fires. Recovery layers match on PanicValue to distinguish injected
// crashes from real ones in tests.
func MaybePanic(point string) {
	if _, fire := hit(point); fire {
		panic(PanicValue{Point: point})
	}
}

// PanicValue is what MaybePanic panics with.
type PanicValue struct{ Point string }

func (v PanicValue) String() string { return "faultinject: injected panic at " + v.Point }
