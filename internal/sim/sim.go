package sim

import (
	"context"
	"fmt"
	"sync/atomic"

	"repro/internal/cpu"
	"repro/internal/simtrace"
	"repro/internal/stats"
	"repro/internal/trace"
)

// runs counts completed simulations process-wide: perfbench's sims/sec,
// cdpd's cdpd_sims_total and the exactly-once checks of the cluster and
// chaos tests read it.
var runs atomic.Uint64

// Runs reports how many simulations this process has completed.
func Runs() uint64 { return runs.Load() }

// Result is one complete simulation outcome.
type Result struct {
	Config   Config
	Core     cpu.Result
	Counters *stats.Counters
	MPTU     *stats.MPTUSeries

	// MeasuredCycles and MeasuredUops cover the post-warm-up region only
	// (the paper's measurement methodology, Section 2.2).
	MeasuredCycles int64
	MeasuredUops   uint64

	// TLBHits/TLBMisses are lifetime translation counts.
	TLBHits   uint64
	TLBMisses uint64
}

// IPC is retired µops per cycle over the measured region.
func (r *Result) IPC() float64 {
	if r.MeasuredCycles == 0 {
		return 0
	}
	return float64(r.MeasuredUops) / float64(r.MeasuredCycles)
}

// SpeedupOver returns base's measured cycles divided by r's — the paper's
// speedup metric (relative to the stride-prefetcher baseline).
func (r *Result) SpeedupOver(base *Result) float64 {
	if r.MeasuredCycles == 0 {
		return 0
	}
	return float64(base.MeasuredCycles) / float64(r.MeasuredCycles)
}

func (r *Result) String() string {
	return fmt.Sprintf("result{%s: %d µops in %d cycles, IPC %.3f, L2 MPTU %.2f}",
		r.Config.Name, r.MeasuredUops, r.MeasuredCycles, r.IPC(),
		r.Counters.MPTUFor(r.MeasuredUops))
}

// RunContext is Run with cooperative cancellation at simulation granularity:
// it checks ctx once before starting and refuses to run when it is already
// cancelled. The inner event loop is deliberately not interrupted — a
// simulation that starts always finishes, which keeps every result
// byte-identical to Run and makes the cancellation boundary the natural
// unit callers (experiment sweeps, the cdpd job queue) reason about.
func RunContext(ctx context.Context, ck *trace.Checkpoint, cfg Config) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return Run(ck, cfg), nil
}

// Run simulates one checkpoint on one machine configuration.
func Run(ck *trace.Checkpoint, cfg Config) *Result {
	return RunTraced(ck, cfg, nil)
}

// RunTraced is Run with an event tracer attached (nil is exactly Run).
// Tracing observes the simulation without perturbing it: the result is
// byte-identical whether or not a tracer is attached. An invalid cfg
// panics (NewMemSystem validates it).
func RunTraced(ck *trace.Checkpoint, cfg Config, tr *simtrace.Tracer) *Result {
	m := newMachine(ck, cfg, tr)
	m.armWarmup()
	return m.finish(m.c.Run(ck.Trace, m.ms, cfg.MaxOps))
}
