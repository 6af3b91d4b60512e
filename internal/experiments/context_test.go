package experiments

import (
	"context"
	"errors"
	"testing"

	"repro/internal/sim"
	"repro/internal/workloads"
)

// TestRunMatrixPreCancelled: a context that is already cancelled never
// simulates anything and surfaces the cancellation as a partial-result
// error.
func TestRunMatrixPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	o := Options{Ops: 20_000, Ctx: ctx, Parallelism: 2}
	specs := workloads.SuiteRepresentatives()[:2]
	before := sim.Runs()
	_, err := runMatrix(o, specs, []sim.Config{baseConfig(o)})
	if err == nil {
		t.Fatal("cancelled context produced no error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not wrap context.Canceled", err)
	}
	if got := sim.Runs() - before; got != 0 {
		t.Fatalf("cancelled sweep still ran %d simulations", got)
	}
}

// TestRunMatrixCancelMidSweep cancels after the first completed cell and
// requires the sweep to stop early: the error reports partial coverage and
// at least one cell of the result grid stays nil.
func TestRunMatrixCancelMidSweep(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	specs := workloads.SuiteRepresentatives()
	o := Options{
		Ops:         20_000,
		Ctx:         ctx,
		Parallelism: 1, // serialize so "after the first cell" is exact
		Progress: func(done, total int) {
			if done == 1 {
				cancel()
			}
		},
	}
	cfgs := []sim.Config{baseConfig(o), with4MB(baseConfig(o))}
	results, err := runMatrix(o, specs, cfgs)
	if err == nil {
		t.Fatal("mid-sweep cancellation produced no error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not wrap context.Canceled", err)
	}
	completed, missing := 0, 0
	for _, row := range results {
		for _, r := range row {
			if r != nil {
				completed++
			} else {
				missing++
			}
		}
	}
	total := len(specs) * len(cfgs)
	if completed == 0 || completed >= total {
		t.Fatalf("want a partial grid, got %d of %d cells completed", completed, total)
	}
	if missing == 0 {
		t.Fatal("no cell was skipped after cancellation")
	}
}

// TestRunnerPropagatesCancellation pins the user-visible contract: an
// experiment Run with a dead context returns the partial-result error
// rather than a report.
func TestRunnerPropagatesCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r, err := Get("fig1")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.Run(Options{Ops: 20_000, Reps: true, Ctx: ctx})
	if err == nil {
		t.Fatalf("cancelled fig1 returned a report: %+v", rep)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not wrap context.Canceled", err)
	}
}
