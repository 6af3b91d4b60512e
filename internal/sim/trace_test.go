package sim

import (
	"context"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/simtrace"
	"repro/internal/stats"
)

// TestTracedRunIsByteIdentical is the observe-without-perturbing contract:
// attaching a tracer must not change a single counter or cycle. Goldens and
// determinism therefore hold whether or not -trace is passed.
func TestTracedRunIsByteIdentical(t *testing.T) {
	cfg := testConfig().WithContent(core.DefaultConfig)
	plain := Run(buildChase(t, 6000, 2, 4, true), cfg)
	tr := simtrace.New(1 << 19)
	traced := RunTraced(buildChase(t, 6000, 2, 4, true), cfg, tr)

	if *plain.Counters != *traced.Counters {
		t.Fatal("stats.Counters differ between traced and untraced runs")
	}
	if plain.Core.Cycles != traced.Core.Cycles {
		t.Fatalf("cycles differ: %d untraced vs %d traced",
			plain.Core.Cycles, traced.Core.Cycles)
	}
	if tr.Len() == 0 {
		t.Fatal("traced run emitted no events")
	}
}

// TestChainLineageMatchesCounters reconstructs CDP chain lineage from the
// trace of a synthetic pointer chase and checks it against the simulator's
// own unconditional counters: the trace and the counters are two
// descriptions of the same run, so chain count and the per-depth issue
// histogram must agree exactly — and at least one chain must be
// reconstructable end-to-end (fill → scan → deeper issue → fill, all under
// one chain ID) at depth >= 2.
func TestChainLineageMatchesCounters(t *testing.T) {
	cfg := testConfig().WithContent(core.DefaultConfig)
	ck := buildChase(t, 6000, 2, 4, true)
	tr := simtrace.New(1 << 19)
	res := RunTraced(ck, cfg, tr)

	if tr.Dropped() != 0 {
		t.Fatalf("ring dropped %d events; grow the capacity so lineage is complete", tr.Dropped())
	}
	c := res.Counters
	if c.CDPChains == 0 {
		t.Fatal("pointer chase started no content chains")
	}

	chains := tr.Chains()
	if uint64(len(chains)) != c.CDPChains {
		t.Fatalf("trace reconstructed %d chains, counters say %d", len(chains), c.CDPChains)
	}

	var perDepth [stats.MaxChainDepth]uint64
	var issued uint64
	for _, ch := range chains {
		for d, n := range ch.IssuedAtDepth {
			perDepth[d] += uint64(n)
		}
		issued += uint64(ch.Issued)
	}
	if perDepth != c.CDPIssuedAtDepth {
		t.Fatalf("per-depth issue histogram from trace %v != counters %v",
			perDepth, c.CDPIssuedAtDepth)
	}
	if issued != c.PrefIssued[cache.SrcContent] {
		t.Fatalf("trace saw %d content issues, counters say %d",
			issued, c.PrefIssued[cache.SrcContent])
	}

	// Find a chain that went at least two deep and replay its events,
	// demanding the full lineage: an issue at depth d, its fill, the scan
	// of that fill, a deeper issue at d+1, and that issue's fill — all
	// carrying the same chain ID.
	deep := uint64(0)
	for _, ch := range chains {
		if ch.MaxDepth >= 2 {
			deep = ch.ID
			break
		}
	}
	if deep == 0 {
		t.Fatal("no chain reached depth >= 2; the chase should chain deeper")
	}
	const (
		wantIssue0 = iota
		wantFill0
		wantScan
		wantIssue1
		wantFill1
		done
	)
	state := wantIssue0
	var d int16
	for _, e := range tr.Events() {
		if e.Chain != deep || state == done {
			continue
		}
		switch state {
		case wantIssue0:
			if e.Kind == simtrace.KindIssue {
				d, state = e.Depth, wantFill0
			}
		case wantFill0:
			if e.Kind == simtrace.KindFill && e.Depth == d {
				state = wantScan
			}
		case wantScan:
			if e.Kind == simtrace.KindScan && e.Depth == d {
				state = wantIssue1
			}
		case wantIssue1:
			if e.Kind == simtrace.KindIssue && e.Depth == d+1 {
				state = wantFill1
			}
		case wantFill1:
			if e.Kind == simtrace.KindFill && e.Depth == d+1 {
				state = done
			}
		}
	}
	if state != done {
		t.Fatalf("chain %d not reconstructable end-to-end: stuck waiting for step %d", deep, state)
	}
}

// TestCheckpointedTracedRunMatches runs the checkpoint path with a tracer
// attached and checks the result matches an untraced checkpointed run —
// tracing must not perturb the snapshotting runner either, and MemState
// carries ChainSeq so chain IDs stay stable across snapshots.
func TestCheckpointedTracedRunMatches(t *testing.T) {
	cfg := testConfig().WithContent(core.DefaultConfig)
	cfg.CheckpointEveryOps = 5000
	plain, err := RunCheckpointed(buildChase(t, 4000, 1, 4, true), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	tr := simtrace.New(1 << 18)
	traced, err := RunCheckpointedTraced(context.Background(), buildChase(t, 4000, 1, 4, true), cfg, tr, nil)
	if err != nil {
		t.Fatal(err)
	}

	if *plain.Counters != *traced.Counters {
		t.Fatal("checkpointed traced run diverged from untraced checkpointed run")
	}
	if tr.Len() == 0 {
		t.Fatal("checkpointed traced run emitted no events")
	}
}
