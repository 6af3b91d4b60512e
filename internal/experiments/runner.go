// Package experiments regenerates every table and figure of the paper's
// evaluation (the per-experiment index lives in DESIGN.md). Each experiment
// runs a matrix of (benchmark, machine-configuration) simulations in
// parallel and renders the paper's rows or series as text.
package experiments

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// SimsRun reports how many simulations this process has completed,
// including runs made outside the matrix runner. cmd/bench divides
// the delta across an experiment by its wall time for the sims/sec
// telemetry.
func SimsRun() uint64 { return sim.Runs() }

// Options scales an experiment run.
type Options struct {
	// Ctx cancels a run between simulations (nil = context.Background()).
	// Cancellation is cooperative at matrix-cell granularity: a simulation
	// that has started always finishes, so partial results stay
	// byte-identical to what an uncancelled run would have produced.
	Ctx context.Context
	// Ops is the per-benchmark µop budget (0 = workloads.DefaultOps).
	Ops int
	// Reps restricts multi-config sweeps to one benchmark per suite
	// (Figure 1's readability subset); full per-benchmark experiments
	// (Table 2, Figures 10/11) always use all fifteen.
	Reps bool
	// Parallelism bounds concurrent simulations (0 = GOMAXPROCS).
	Parallelism int
	// Progress, when non-nil, is called after each completed matrix cell
	// with the running completion count and the matrix total. Calls are
	// serialized but may arrive from any worker goroutine.
	Progress func(done, total int)
}

// rootCtx is the experiments package's single ambient-context fallback: an
// Options with no Ctx belongs to a process-lifecycle caller (cmd/repro,
// cmd/bench) that runs the experiment to completion or dies with it, so the
// detached context is the intended semantics, not an accident. Every other
// path must thread Options.Ctx. Keeping the fallback in one declared root
// means `go run ./cmd/simlint` proves no new ambient context sneaks into
// the service layer.
//
// simlint:rootctx
func rootCtx() context.Context {
	return context.Background()
}

func (o Options) ctx() context.Context {
	if o.Ctx != nil {
		return o.Ctx
	}
	return rootCtx()
}

func (o Options) ops() int {
	if o.Ops > 0 {
		return o.Ops
	}
	return workloads.DefaultOps
}

func (o Options) workers() int {
	if o.Parallelism > 0 {
		return o.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

func (o Options) sweepSpecs() []workloads.Spec {
	if o.Reps {
		return workloads.SuiteRepresentatives()
	}
	return workloads.All()
}

// warmFor scales the warm-up boundary to the trace budget (the paper uses
// ~1/6 of the trace; see Section 2.2).
func warmFor(ops int) uint64 { return uint64(ops / 8) }

// baseConfig is the Table 1 stride-only baseline scaled to the options.
func baseConfig(o Options) sim.Config {
	cfg := sim.Default()
	cfg.WarmupOps = warmFor(o.ops())
	cfg.MPTUBucketOps = uint64(o.ops() / 48)
	return cfg
}

// with4MB returns cfg with the 4 MiB UL2 of Figure 1 / Table 2.
func with4MB(cfg sim.Config) sim.Config {
	cfg.L2.SizeBytes = 4 * 1024 * 1024
	cfg.Name += "-4MB"
	return cfg
}

// Report is one experiment's rendered outcome.
type Report struct {
	ID    string
	Title string
	Text  string
}

// cell identifies one simulation in a matrix run.
type cell struct {
	cfg sim.Config
	si  int
	ci  int
}

// runMatrix simulates every (spec, config) pair and returns results indexed
// [spec][config]. Checkpoints are generated once per spec and shared (the
// simulator never mutates them). Cancelling o.Ctx stops the sweep between
// cells: completed cells keep their results, unstarted cells stay nil, and
// the returned error reports the partial coverage.
func runMatrix(o Options, specs []workloads.Spec, cfgs []sim.Config) ([][]*sim.Result, error) {
	// Pre-generate checkpoints sequentially (generation itself is
	// allocation-heavy; doing it once also warms the cache).
	cks := make([]*trace.Checkpoint, len(specs))
	for i, s := range specs {
		if err := o.ctx().Err(); err != nil {
			return nil, partialErr(0, len(specs)*len(cfgs), err)
		}
		cks[i] = workloads.Checkpoint(s, o.ops())
	}
	return runCheckpoints(o, cks, cfgs)
}

// runCheckpoints is runMatrix over prebuilt checkpoints: it simulates every
// (checkpoint, config) pair on o's worker pool, reports each completed
// cell to o.Progress, and returns results indexed [checkpoint][config].
func runCheckpoints(o Options, cks []*trace.Checkpoint, cfgs []sim.Config) ([][]*sim.Result, error) {
	ctx := o.ctx()
	total := len(cks) * len(cfgs)
	out := make([][]*sim.Result, len(cks))
	for i := range out {
		out[i] = make([]*sim.Result, len(cfgs))
	}
	var cells []cell
	for si := range cks {
		for ci, c := range cfgs {
			cells = append(cells, cell{cfg: c, si: si, ci: ci})
		}
	}
	var (
		done   atomic.Uint64
		progMu sync.Mutex
	)
	work := make(chan cell)
	var wg sync.WaitGroup
	for w := 0; w < o.workers(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := range work {
				// The cooperative cancellation check between matrix
				// cells: once ctx is cancelled, remaining cells are
				// drained without simulating.
				res, err := sim.RunContext(ctx, cks[c.si], c.cfg)
				if err != nil {
					continue
				}
				out[c.si][c.ci] = res
				n := int(done.Add(1))
				if o.Progress != nil {
					progMu.Lock()
					o.Progress(n, total)
					progMu.Unlock()
				}
			}
		}()
	}
	for _, c := range cells {
		work <- c
	}
	close(work)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return out, partialErr(int(done.Load()), total, err)
	}
	return out, nil
}

// partialErr wraps a context error with the sweep coverage at the moment it
// took effect, so callers can report how much of a matrix survives.
func partialErr(done, total int, err error) error {
	return fmt.Errorf("experiments: sweep cancelled after %d of %d simulations: %w", done, total, err)
}

// meanSpeedup averages per-benchmark speedups of column ci relative to
// column base.
func meanSpeedup(results [][]*sim.Result, ci, base int) float64 {
	var sum float64
	for _, row := range results {
		sum += row[ci].SpeedupOver(row[base])
	}
	return sum / float64(len(results))
}

// Runner is one registered experiment. Run returns a non-nil error only
// when the options' context was cancelled; the report then covers whatever
// completed before the cut.
type Runner struct {
	ID    string
	Title string
	Run   func(Options) (*Report, error)
}

var registry []Runner

func register(id, title string, fn func(Options) (*Report, error)) {
	registry = append(registry, Runner{ID: id, Title: title, Run: fn})
}

// IDs lists registered experiment ids in registration order.
func IDs() []string {
	out := make([]string, len(registry))
	for i, r := range registry {
		out[i] = r.ID
	}
	return out
}

// Get finds an experiment by id.
func Get(id string) (Runner, error) {
	for _, r := range registry {
		if r.ID == id {
			return r, nil
		}
	}
	sorted := append([]string(nil), IDs()...)
	sort.Strings(sorted)
	return Runner{}, fmt.Errorf("experiments: unknown id %q (have %v)", id, sorted)
}

// RunAll executes every experiment and returns the reports in order. On
// cancellation it returns the reports completed so far together with the
// partial-result error of the experiment that was cut short.
func RunAll(o Options) ([]*Report, error) {
	out := make([]*Report, 0, len(registry))
	for _, r := range registry {
		rep, err := r.Run(o)
		if err != nil {
			return out, fmt.Errorf("experiments: %s: %w", r.ID, err)
		}
		out = append(out, rep)
	}
	return out, nil
}
