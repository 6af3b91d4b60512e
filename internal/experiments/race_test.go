package experiments

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// TestRunMatrixParallelismInvariant runs one small matrix serially and with
// four workers and requires identical results cell by cell: the worker pool
// must not leak state between simulations, share checkpoints unsafely, or
// race on the result grid. CI runs this package under -race, which turns
// any such sharing into a hard failure even when the outputs happen to
// agree.
func TestRunMatrixParallelismInvariant(t *testing.T) {
	specs := workloads.SuiteRepresentatives()
	if len(specs) > 3 {
		specs = specs[:3]
	}
	o := Options{Ops: 30_000}
	base := baseConfig(o)
	cfgs := []sim.Config{base, base.WithContent(core.DefaultConfig)}

	serial, err := runMatrix(Options{Ops: o.Ops, Parallelism: 1}, specs, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := runMatrix(Options{Ops: o.Ops, Parallelism: 4}, specs, cfgs)
	if err != nil {
		t.Fatal(err)
	}

	for si := range serial {
		for ci := range serial[si] {
			a, b := serial[si][ci], parallel[si][ci]
			if a == nil || b == nil {
				t.Fatalf("cell [%d][%d]: missing result (serial %v, parallel %v)", si, ci, a != nil, b != nil)
			}
			if a.MeasuredCycles != b.MeasuredCycles || a.MeasuredUops != b.MeasuredUops {
				t.Errorf("cell [%d][%d] (%s/%s): serial %d cycles / %d µops, parallel %d / %d",
					si, ci, specs[si].Name, cfgs[ci].Name,
					a.MeasuredCycles, a.MeasuredUops, b.MeasuredCycles, b.MeasuredUops)
			}
			if !reflect.DeepEqual(a.Counters, b.Counters) {
				t.Errorf("cell [%d][%d] (%s/%s): counter blocks differ between serial and parallel runs",
					si, ci, specs[si].Name, cfgs[ci].Name)
			}
			if !reflect.DeepEqual(a.MPTU.Values(), b.MPTU.Values()) {
				t.Errorf("cell [%d][%d] (%s/%s): MPTU series differ between serial and parallel runs",
					si, ci, specs[si].Name, cfgs[ci].Name)
			}
		}
	}
}

// TestSimsRunCounterAdvances pins the telemetry hook: a matrix of N cells
// advances the process-wide counter by exactly N.
func TestSimsRunCounterAdvances(t *testing.T) {
	specs := workloads.SuiteRepresentatives()[:1]
	o := Options{Ops: 20_000, Parallelism: 2}
	cfgs := []sim.Config{baseConfig(o), with4MB(baseConfig(o))}
	before := sim.Runs()
	if _, err := runMatrix(o, specs, cfgs); err != nil {
		t.Fatal(err)
	}
	if got := sim.Runs() - before; got != uint64(len(specs)*len(cfgs)) {
		t.Fatalf("sim.Runs advanced by %d, want %d", got, len(specs)*len(cfgs))
	}
}
