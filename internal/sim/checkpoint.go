// Checkpoint/resume for the simulator. A simulation with
// Config.CheckpointEveryOps > 0 runs in segments: fetch pauses at absolute
// multiples of the interval, the machine drains completely (empty ROB,
// drained store buffer, quiesced memory system), and the whole deterministic
// state is captured as a Snapshot. Because the in-flight machinery — event
// heap, arbiters, bus transactions, page-walk records — is empty by
// construction at a boundary, the snapshot is a plain value with no
// callbacks, and resuming from it replays the remaining segments
// byte-identically to an uninterrupted checkpointed run.
package sim

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"io"

	"repro/internal/bus"
	"repro/internal/cpu"
	"repro/internal/faultinject"
	"repro/internal/simtrace"
	"repro/internal/stats"
	"repro/internal/tlb"
	"repro/internal/trace"
)

// Quiesced reports whether the memory system is fully drained: no pending
// events, no in-flight transactions, empty arbiters. cpu.RunSegmented polls
// it while draining a segment.
func (ms *MemSystem) Quiesced() bool {
	return ms.sched.next() < 0 && ms.inflight.len() == 0 &&
		ms.l2q.Len() == 0 && ms.busq.Len() == 0 && ms.nextPumpAt == 0
}

// MemState is the checkpointable state of a quiesced memory system. The
// stride-recent set is carried as its insertion-ordered FIFO alone, oldest
// first; the membership table is rebuilt from it on restore (the FIFO
// already holds every member in a canonical order).
type MemState struct {
	Now        int64
	ReqID      uint64
	ChainSeq   uint64
	L2PortFree int64
	InjLCG     uint32
	LastInject int64
	StrideFIFO []uint32
	Bus        bus.State
	// L1 and L2 are the caches' opaque MarshalState payloads. The cache
	// package owns their binary encoding, so the thousands of resident
	// lines a boundary carries bypass gob's per-field reflection.
	L1, L2 []byte
	TLB    tlb.State
	// Content is the content prefetcher's MarshalState payload (nil when
	// it is off). Engines pins the engine list the snapshot was taken
	// under; EngineStates holds one MarshalState payload per engine, in
	// list order. The engine contract owns each encoding, so every
	// prefetcher checkpoints through one path and new zoo entrants
	// checkpoint without touching this struct.
	Content      []byte
	Engines      string
	EngineStates [][]byte
}

// state snapshots a quiesced memory system; it fails if anything is in
// flight.
func (ms *MemSystem) state() (MemState, error) {
	if !ms.Quiesced() {
		return MemState{}, fmt.Errorf("sim: memory system not quiesced (next event %d, inflight %d, l2q %d, busq %d)",
			ms.sched.next(), ms.inflight.len(), ms.l2q.Len(), ms.busq.Len())
	}
	st := MemState{
		Now: ms.now, ReqID: ms.reqID, ChainSeq: ms.chainSeq, L2PortFree: ms.l2PortFree,
		InjLCG: ms.injLCG, LastInject: ms.lastInject,
		StrideFIFO: ms.strideFIFO.oldestFirst(),
		Bus:        ms.fsb.State(),
		L1:         ms.l1.MarshalState(),
		L2:         ms.l2.MarshalState(),
		TLB:        ms.dtlb.State(),
		Engines:    ms.cfg.Engines,
	}
	if ms.cdp != nil {
		data, err := ms.cdp.MarshalState()
		if err != nil {
			return MemState{}, err
		}
		st.Content = data
	}
	for i := range ms.ports {
		data, err := ms.ports[i].eng.MarshalState()
		if err != nil {
			return MemState{}, err
		}
		st.EngineStates = append(st.EngineStates, data)
	}
	return st, nil
}

// restore loads a quiesce-point snapshot into a freshly built memory
// system. The snapshot's prefetcher set must match the configuration's.
func (ms *MemSystem) restore(st MemState) error {
	if (st.Content != nil) != (ms.cdp != nil) {
		return fmt.Errorf("sim: snapshot prefetcher set does not match the configuration")
	}
	if st.Engines != ms.cfg.Engines || len(st.EngineStates) != len(ms.ports) {
		return fmt.Errorf("sim: snapshot engine list %q does not match configured engine list %q", st.Engines, ms.cfg.Engines)
	}
	if err := ms.l1.UnmarshalState(st.L1); err != nil {
		return fmt.Errorf("sim: restoring L1: %w", err)
	}
	if err := ms.l2.UnmarshalState(st.L2); err != nil {
		return fmt.Errorf("sim: restoring L2: %w", err)
	}
	if err := ms.dtlb.Restore(st.TLB); err != nil {
		return err
	}
	if ms.cdp != nil {
		if err := ms.cdp.UnmarshalState(st.Content); err != nil {
			return err
		}
	}
	for i := range ms.ports {
		if err := ms.ports[i].eng.UnmarshalState(st.EngineStates[i]); err != nil {
			return err
		}
	}
	ms.fsb.Restore(st.Bus)
	ms.now, ms.reqID, ms.l2PortFree = st.Now, st.ReqID, st.L2PortFree
	ms.chainSeq = st.ChainSeq
	ms.injLCG, ms.lastInject = st.InjLCG, st.LastInject
	ms.sched.now = st.Now
	ms.restoreStrideRecent(st.StrideFIFO)
	return nil
}

// restoreStrideRecent rebuilds the stride-recent set and its FIFO from
// fifo, oldest first.
func (ms *MemSystem) restoreStrideRecent(fifo []uint32) {
	ms.strideFIFO.reset(fifo)
	ms.strideRecent = newLineTable[struct{}](len(fifo))
	for _, pa := range fifo {
		ms.strideRecent.put(pa, struct{}{})
	}
}

// Snapshot is the complete deterministic state of a checkpointed simulation
// at an op-count boundary. It is a plain gob-encodable value: everything
// with in-flight structure is empty at a boundary and therefore absent.
type Snapshot struct {
	// ConfigName guards against resuming a snapshot under a different
	// machine; Resume additionally re-validates the live Config.
	ConfigName string
	// OpsFetched is the absolute µop boundary the snapshot was taken at.
	OpsFetched int
	// Warmed records whether the warm-up reset has already happened, so a
	// resumed run re-arms the retire observer only when it must.
	Warmed    bool
	WarmCycle int64

	Core     cpu.CoreState
	Mem      MemState
	Counters stats.Counters
	MPTU     stats.SeriesState
}

// snapshotMagic versions the serialized stream; bump it when Snapshot's
// shape, or a payload a component owns, changes incompatibly.
const snapshotMagic = "cdpsnap4"

// WriteSnapshot serializes s to w behind a version header.
func WriteSnapshot(w io.Writer, s *Snapshot) error {
	if _, err := io.WriteString(w, snapshotMagic); err != nil {
		return err
	}
	return gob.NewEncoder(w).Encode(s)
}

// ReadSnapshot reads a snapshot written by WriteSnapshot.
func ReadSnapshot(r io.Reader) (*Snapshot, error) {
	magic := make([]byte, len(snapshotMagic))
	if _, err := io.ReadFull(r, magic); err != nil {
		return nil, fmt.Errorf("sim: reading snapshot header: %w", err)
	}
	if string(magic) != snapshotMagic {
		return nil, fmt.Errorf("sim: not a %s snapshot stream (header %q)", snapshotMagic, magic)
	}
	var s Snapshot
	if err := gob.NewDecoder(r).Decode(&s); err != nil {
		return nil, fmt.Errorf("sim: decoding snapshot: %w", err)
	}
	return &s, nil
}

// EncodeSnapshot renders s to bytes (WriteSnapshot into a buffer).
func EncodeSnapshot(s *Snapshot) ([]byte, error) {
	var b bytes.Buffer
	if err := WriteSnapshot(&b, s); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

// DecodeSnapshot parses bytes produced by EncodeSnapshot.
func DecodeSnapshot(data []byte) (*Snapshot, error) {
	return ReadSnapshot(bytes.NewReader(data))
}

// machine bundles the components of one simulation so the plain,
// checkpointed and resumed paths share construction, warm-up arming, and
// result assembly.
type machine struct {
	cfg  Config
	st   *stats.Counters
	mptu *stats.MPTUSeries
	ms   *MemSystem
	c    *cpu.Core

	warmCycle int64
	warmed    bool
}

// newMachine builds the memory system and core for cfg, with tr attached to
// both when non-nil. NewMemSystem panics on an invalid cfg.
func newMachine(ck *trace.Checkpoint, cfg Config, tr *simtrace.Tracer) *machine {
	m := &machine{cfg: cfg, st: &stats.Counters{}}
	m.mptu = stats.NewMPTUSeries(cfg.MPTUBucketOps)
	m.ms = NewMemSystem(&m.cfg, ck.Space, m.st, m.mptu)
	m.c = cpu.New(cfg.Core, m.st)
	if tr != nil {
		m.ms.AttachTracer(tr)
		m.c.AttachTracer(tr)
	}
	return m
}

// armWarmup attaches the warm-up retire observer unless the boundary has
// already passed (a resume from a post-warm-up snapshot). The observer
// unsubscribes at the boundary so the post-warm-up region (the measured
// bulk of the run) retires with batched accounting and no per-µop
// callback.
func (m *machine) armWarmup() {
	if m.cfg.WarmupOps == 0 || m.warmed {
		return
	}
	m.c.OnRetire = func(retired uint64, cycle int64) {
		if retired >= m.cfg.WarmupOps {
			m.warmCycle = cycle
			m.warmed = true
			m.st.Reset(cycle)
			m.c.OnRetire = nil
		}
	}
}

func (m *machine) snapshot(opsFetched int) (*Snapshot, error) {
	cs, err := m.c.State()
	if err != nil {
		return nil, err
	}
	mst, err := m.ms.state()
	if err != nil {
		return nil, err
	}
	return &Snapshot{
		ConfigName: m.cfg.Name,
		OpsFetched: opsFetched,
		Warmed:     m.warmed,
		WarmCycle:  m.warmCycle,
		Core:       cs,
		Mem:        mst,
		Counters:   *m.st,
		MPTU:       m.mptu.State(),
	}, nil
}

func (m *machine) restoreSnapshot(snap *Snapshot) error {
	if snap.ConfigName != m.cfg.Name {
		return fmt.Errorf("sim: snapshot is for config %q, machine is %q", snap.ConfigName, m.cfg.Name)
	}
	if m.cfg.CheckpointEveryOps <= 0 {
		return fmt.Errorf("sim: resuming requires CheckpointEveryOps > 0")
	}
	if snap.OpsFetched <= 0 || snap.OpsFetched%m.cfg.CheckpointEveryOps != 0 {
		return fmt.Errorf("sim: snapshot boundary %d is not a positive multiple of the %d-µop interval",
			snap.OpsFetched, m.cfg.CheckpointEveryOps)
	}
	if err := m.c.Restore(snap.Core); err != nil {
		return err
	}
	if err := m.ms.restore(snap.Mem); err != nil {
		return err
	}
	*m.st = snap.Counters
	if err := m.mptu.Restore(snap.MPTU); err != nil {
		return err
	}
	m.warmed, m.warmCycle = snap.Warmed, snap.WarmCycle
	return nil
}

// finish assembles the Result of a completed run.
func (m *machine) finish(coreRes cpu.Result) *Result {
	m.st.Cycles = coreRes.Cycles
	m.st.WarmCycles = m.warmCycle
	hits, misses := m.ms.TLBStats()
	// Mirror the lifetime translation counts into the counter block so the
	// report emitter sees them (statsreg keeps the two in lockstep).
	m.st.TLBHits = hits
	m.st.TLBMisses = misses
	res := &Result{
		Config:         m.cfg,
		Core:           coreRes,
		Counters:       m.st,
		MPTU:           m.mptu,
		MeasuredCycles: coreRes.Cycles - m.warmCycle,
		MeasuredUops:   coreRes.Retired,
		TLBHits:        hits,
		TLBMisses:      misses,
	}
	if m.cfg.WarmupOps > 0 && coreRes.Retired > m.cfg.WarmupOps {
		res.MeasuredUops = coreRes.Retired - m.cfg.WarmupOps
	}
	runs.Add(1)
	return res
}

// run executes the remaining segments, handing each boundary snapshot to
// sink (nil = segmentation only). The sim.checkpoint.abort fault point
// fires here, before the snapshot is captured, modeling a budget-exhausted
// or killed run whose latest persisted snapshot is the previous boundary's.
// ctx is checked at every boundary, before the capture, and once more after
// the last segment: a canceled run returns ctx's error and never counts in
// Runs, even one canceled past its last boundary.
func (m *machine) run(ctx context.Context, ck *trace.Checkpoint, sink func(*Snapshot) error) (*Result, error) {
	plan := cpu.SegmentPlan{
		Every:    m.cfg.CheckpointEveryOps,
		Quiesced: m.ms.Quiesced,
		OnBoundary: func(opsFetched int) error {
			if err := faultinject.Error("sim.checkpoint.abort"); err != nil {
				return fmt.Errorf("sim: aborted at %d-µop boundary: %w", opsFetched, err)
			}
			if err := ctx.Err(); err != nil {
				return err
			}
			if sink == nil {
				return nil
			}
			snap, err := m.snapshot(opsFetched)
			if err != nil {
				return err
			}
			return sink(snap)
		},
	}
	coreRes, err := m.c.RunSegmented(ck.Trace, m.ms, m.cfg.MaxOps, plan)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return m.finish(coreRes), nil
}

// RunCheckpointed simulates ck under cfg with checkpoint segmentation
// (cfg.CheckpointEveryOps must be > 0), calling sink with a Snapshot at
// every mid-run boundary. Results differ from Run's by the drain stalls the
// boundaries introduce — which is why the interval lives in Config and
// flows into the content hash — but are identical across uninterrupted and
// resumed executions of the same configuration. It cannot be canceled;
// RunCheckpointedTraced takes a context.
func RunCheckpointed(ck *trace.Checkpoint, cfg Config, sink func(*Snapshot) error) (*Result, error) {
	return RunCheckpointedTraced(context.TODO(), ck, cfg, nil, sink)
}

// RunCheckpointedTraced is RunCheckpointed with an event tracer attached
// (nil is exactly RunCheckpointed) and a context that cancels the run at
// its next boundary or, past the last one, before it completes. As with
// RunTraced, the result is byte-identical with and without the tracer.
func RunCheckpointedTraced(ctx context.Context, ck *trace.Checkpoint, cfg Config, tr *simtrace.Tracer, sink func(*Snapshot) error) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.CheckpointEveryOps <= 0 {
		return nil, fmt.Errorf("sim: RunCheckpointed needs CheckpointEveryOps > 0")
	}
	m := newMachine(ck, cfg, tr)
	m.armWarmup()
	return m.run(ctx, ck, sink)
}

// ErrRestore marks a snapshot that Resume could not restore onto the
// machine cfg builds: another configuration, an off-grid boundary, or a
// component payload its owner rejects. Nothing has run when Resume returns
// it, so the caller may discard the snapshot and run from µop zero.
var ErrRestore = errors.New("sim: snapshot does not restore")

// Resume continues a checkpointed simulation from snap, replaying the
// remaining segments. The returned result is byte-identical to what the
// uninterrupted RunCheckpointed would have produced. A snapshot that does
// not restore fails with an error wrapping ErrRestore. ctx cancels the run
// as it does RunCheckpointedTraced's.
func Resume(ctx context.Context, ck *trace.Checkpoint, cfg Config, snap *Snapshot, sink func(*Snapshot) error) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := newMachine(ck, cfg, nil)
	if err := m.restoreSnapshot(snap); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrRestore, err)
	}
	m.armWarmup()
	return m.run(ctx, ck, sink)
}
