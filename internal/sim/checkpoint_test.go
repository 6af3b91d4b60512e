package sim

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/workloads"
)

// ckptConfig is a full-featured machine (stride + content + warm-up) so
// snapshots cover every stateful component, with a checkpoint interval that
// produces several boundaries on the test traces — including at least one
// before the warm-up boundary, exercising observer re-arming on resume.
func ckptConfig() Config {
	cfg := testConfig().WithContent(core.DefaultConfig)
	cfg.WarmupOps = 12_000
	cfg.CheckpointEveryOps = 5_000
	return cfg
}

// sameResult asserts byte-level equality of everything a rendered result
// exposes.
func sameResult(t *testing.T, want, got *Result) {
	t.Helper()
	if want.Core != got.Core {
		t.Errorf("core result drifted:\nwant %+v\ngot  %+v", want.Core, got.Core)
	}
	if !reflect.DeepEqual(*want.Counters, *got.Counters) {
		t.Errorf("counters drifted:\nwant %+v\ngot  %+v", *want.Counters, *got.Counters)
	}
	if !reflect.DeepEqual(want.MPTU.Values(), got.MPTU.Values()) {
		t.Errorf("MPTU series drifted")
	}
	if want.MeasuredCycles != got.MeasuredCycles || want.MeasuredUops != got.MeasuredUops {
		t.Errorf("measured region drifted: want (%d cycles, %d µops), got (%d, %d)",
			want.MeasuredCycles, want.MeasuredUops, got.MeasuredCycles, got.MeasuredUops)
	}
	if want.TLBHits != got.TLBHits || want.TLBMisses != got.TLBMisses {
		t.Errorf("TLB counts drifted")
	}
}

func TestCheckpointedRunIsDeterministic(t *testing.T) {
	cfg := ckptConfig()
	a, err := RunCheckpointed(buildChase(t, 2000, 2, 2, true), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunCheckpointed(buildChase(t, 2000, 2, 2, true), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, a, b)
}

// TestResumeByteIdentical is the tentpole property: resuming from *every*
// boundary snapshot — serialized through the gob codec, as the daemon
// stores it — reproduces the uninterrupted checkpointed run exactly.
func TestResumeByteIdentical(t *testing.T) {
	cfg := ckptConfig()
	var blobs [][]byte
	want, err := RunCheckpointed(buildChase(t, 2000, 2, 2, true), cfg, func(s *Snapshot) error {
		blob, err := EncodeSnapshot(s)
		if err != nil {
			return err
		}
		blobs = append(blobs, blob)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(blobs) < 3 {
		t.Fatalf("only %d boundaries hit; trace too short for the test to mean anything", len(blobs))
	}
	for i, blob := range blobs {
		snap, err := DecodeSnapshot(blob)
		if err != nil {
			t.Fatalf("snapshot %d: %v", i, err)
		}
		got, err := Resume(buildChase(t, 2000, 2, 2, true), cfg, snap, nil)
		if err != nil {
			t.Fatalf("resume from boundary %d: %v", snap.OpsFetched, err)
		}
		sameResult(t, want, got)
	}
}

// TestCheckpointAbortFaultThenResume drives the sim.checkpoint.abort fault
// point: the run dies at its second boundary, and resuming from the last
// snapshot that made it out completes with the uninterrupted result.
func TestCheckpointAbortFaultThenResume(t *testing.T) {
	cfg := ckptConfig()
	want, err := RunCheckpointed(buildChase(t, 2000, 2, 2, true), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}

	prev := faultinject.Enable(faultinject.MustParse(1, "sim.checkpoint.abort:after=1"))
	var last *Snapshot
	_, err = RunCheckpointed(buildChase(t, 2000, 2, 2, true), cfg, func(s *Snapshot) error {
		last = s
		return nil
	})
	faultinject.Enable(prev)
	var inj *faultinject.InjectedError
	if !errors.As(err, &inj) || inj.Point != "sim.checkpoint.abort" {
		t.Fatalf("want injected abort, got %v", err)
	}
	if last == nil {
		t.Fatal("no snapshot escaped before the abort")
	}
	if last.OpsFetched != cfg.CheckpointEveryOps {
		t.Fatalf("abort after=1 should leave the first boundary's snapshot, got %d", last.OpsFetched)
	}

	got, err := Resume(buildChase(t, 2000, 2, 2, true), cfg, last, nil)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, want, got)
}

func TestSnapshotCodecRejectsGarbage(t *testing.T) {
	if _, err := DecodeSnapshot([]byte("not a snapshot at all")); err == nil {
		t.Fatal("garbage header accepted")
	}
	if _, err := DecodeSnapshot([]byte(snapshotMagic + "\x01\x02garbage")); err == nil {
		t.Fatal("garbage gob body accepted")
	}
	// A stream from before the caches (cdpsnap2) or the content prefetcher
	// (cdpsnap3) owned their payloads carries an older magic; it must fail
	// the header check, so the daemon reruns that job from µop zero instead
	// of misreading its state.
	var blob []byte
	if _, err := RunCheckpointed(buildChase(t, 1500, 1, 2, true), ckptConfig(), func(s *Snapshot) error {
		var err error
		if blob == nil {
			blob, err = EncodeSnapshot(s)
		}
		return err
	}); err != nil {
		t.Fatal(err)
	}
	for _, old := range []string{"cdpsnap2", "cdpsnap3"} {
		copy(blob, old)
		if _, err := DecodeSnapshot(blob); err == nil || !strings.Contains(err.Error(), old) {
			t.Fatalf("%s stream: got %v, want a header error naming it", old, err)
		}
	}
}

func TestResumeRejectsMismatchedSnapshot(t *testing.T) {
	cfg := ckptConfig()
	ck := buildChase(t, 1500, 1, 2, true)
	var snap *Snapshot
	if _, err := RunCheckpointed(ck, cfg, func(s *Snapshot) error {
		if snap == nil {
			snap = s
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if snap == nil {
		t.Fatal("no snapshot captured")
	}

	// Each rejection wraps ErrRestore, which is how callers tell a bad
	// snapshot from a failed run.
	other := cfg
	other.Name = "some-other-machine"
	if _, err := Resume(ck, other, snap, nil); !errors.Is(err, ErrRestore) {
		t.Fatalf("config-name mismatch: got %v, want ErrRestore", err)
	}
	offGrid := *snap
	offGrid.OpsFetched += 17
	if _, err := Resume(ck, cfg, &offGrid, nil); !errors.Is(err, ErrRestore) {
		t.Fatalf("off-boundary snapshot: got %v, want ErrRestore", err)
	}
	bare := cfg
	bare.Content = nil
	bare.Name = cfg.Name
	if _, err := Resume(ck, bare, snap, nil); !errors.Is(err, ErrRestore) {
		t.Fatalf("prefetcher-set mismatch: got %v, want ErrRestore", err)
	}
}

func TestRunCheckpointedRequiresInterval(t *testing.T) {
	cfg := ckptConfig()
	cfg.CheckpointEveryOps = 0
	if _, err := RunCheckpointed(buildChase(t, 200, 1, 1, false), cfg, nil); err == nil {
		t.Fatal("zero interval accepted")
	}
}

// BenchmarkBoundarySnapshot times capturing and encoding one boundary
// snapshot on a heavy cdpd miss: creation at 20,000 µops with a 12,345-µop
// interval, on the configuration api.buildSim assembles for that request.
// The run stops at its first boundary, and every iteration captures and
// encodes the machine state there.
func BenchmarkBoundarySnapshot(b *testing.B) {
	const ops = 20_000
	spec, err := workloads.ByName("creation")
	if err != nil {
		b.Fatal(err)
	}
	ck := workloads.Checkpoint(spec, ops)
	cfg := Default()
	cfg.WarmupOps = ops / 8
	cfg.MPTUBucketOps = ops / 48
	cfg.CheckpointEveryOps = 12_345
	m := newMachine(ck, cfg, nil)
	m.armWarmup()
	errStop := errors.New("stopped at the first boundary")
	size := 0
	_, err = m.run(ck, func(s *Snapshot) error {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			snap, err := m.snapshot(s.OpsFetched)
			if err != nil {
				return err
			}
			blob, err := EncodeSnapshot(snap)
			if err != nil {
				return err
			}
			size = len(blob)
		}
		b.StopTimer()
		return errStop
	})
	if !errors.Is(err, errStop) {
		b.Fatalf("run did not stop at its first boundary: %v", err)
	}
	b.ReportMetric(float64(size), "bytes/op")
}
