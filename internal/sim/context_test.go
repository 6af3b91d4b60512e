package sim

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"repro/internal/workloads"
)

// TestRunContextCancelled: a dead context refuses to simulate and does not
// advance the process-wide run counter.
func TestRunContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	spec, err := workloads.ByName("b2c")
	if err != nil {
		t.Fatal(err)
	}
	ck := workloads.Checkpoint(spec, 10_000)
	before := Runs()
	res, err := RunContext(ctx, ck, Default())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Fatal("cancelled RunContext still returned a result")
	}
	if Runs() != before {
		t.Fatal("cancelled RunContext advanced the run counter")
	}
}

// TestRunContextMatchesRun: with a live context, RunContext is Run — same
// counters, same measured region, bit for bit.
func TestRunContextMatchesRun(t *testing.T) {
	spec, err := workloads.ByName("b2c")
	if err != nil {
		t.Fatal(err)
	}
	ck := workloads.Checkpoint(spec, 30_000)
	cfg := Default()
	cfg.WarmupOps = 5_000
	want := Run(ck, cfg)
	got, err := RunContext(context.Background(), ck, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got.MeasuredCycles != want.MeasuredCycles || got.MeasuredUops != want.MeasuredUops {
		t.Fatalf("RunContext measured %d cycles / %d µops, Run measured %d / %d",
			got.MeasuredCycles, got.MeasuredUops, want.MeasuredCycles, want.MeasuredUops)
	}
	if !reflect.DeepEqual(got.Counters, want.Counters) {
		t.Fatal("RunContext and Run produced different counter blocks")
	}
}

// TestCheckpointedRunCanceledInLastSegment: a segmented run canceled after
// its last boundary has no boundary left to stop at. It runs the segment
// out, but must then return the context's error and no result, and must
// not count in Runs: a killed worker's cell would otherwise count beside
// the steal that reruns its tail elsewhere. Resume takes the same path.
func TestCheckpointedRunCanceledInLastSegment(t *testing.T) {
	cfg := ckptConfig()
	var boundaries []*Snapshot
	if _, err := RunCheckpointed(buildChase(t, 2000, 2, 2, true), cfg, func(s *Snapshot) error {
		boundaries = append(boundaries, s)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(boundaries) < 2 {
		t.Fatalf("only %d boundaries; the trace is too short for the test to mean anything", len(boundaries))
	}
	last := boundaries[len(boundaries)-1].OpsFetched
	for _, tc := range []struct {
		name string
		run  func(context.Context, func(*Snapshot) error) (*Result, error)
	}{
		{"run", func(ctx context.Context, sink func(*Snapshot) error) (*Result, error) {
			return RunCheckpointedTraced(ctx, buildChase(t, 2000, 2, 2, true), cfg, nil, sink)
		}},
		{"resume", func(ctx context.Context, sink func(*Snapshot) error) (*Result, error) {
			return Resume(ctx, buildChase(t, 2000, 2, 2, true), cfg, boundaries[0], sink)
		}},
	} {
		ctx, cancel := context.WithCancel(context.Background())
		before := Runs()
		res, err := tc.run(ctx, func(s *Snapshot) error {
			if s.OpsFetched == last {
				cancel()
			}
			return nil
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", tc.name, err)
		}
		if res != nil {
			t.Errorf("%s: a run canceled in its last segment still returned a result", tc.name)
		}
		if Runs() != before {
			t.Errorf("%s: a run canceled in its last segment counted in Runs (%d → %d)", tc.name, before, Runs())
		}
	}
}
