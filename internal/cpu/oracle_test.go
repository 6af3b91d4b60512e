package cpu

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/stats"
	"repro/internal/trace"
)

// oraclePort is a deterministic memory port for the oracle tests. Each
// access's latency is a hash of its address: some complete synchronously
// (from "already due" to well past the completion wheel's reach), the rest
// complete from a later Tick, in the reverse of their arrival order and
// sometimes reporting a cycle earlier or later than the one they are
// delivered in. It logs every call, so two cores driven through two ports
// must log the same calls at the same cycles.
type oraclePort struct {
	pending []oracleFill
	log     []string
}

type oracleFill struct {
	due, at int64 // delivered at Tick(due), reporting completion cycle at
	done    func(int64)
}

// oracleMaxCycle bounds a run: the test traces finish in well under a
// tenth of it, so a core that gets this far has lost track of its work.
const oracleMaxCycle = 1_000_000

func (p *oraclePort) Tick(cycle int64) {
	if cycle > oracleMaxCycle {
		panic(fmt.Sprintf("oraclePort: run still going at cycle %d", cycle))
	}
	p.log = append(p.log, fmt.Sprintf("tick %d", cycle))
	keep := p.pending[:0]
	var fire []oracleFill
	for _, f := range p.pending {
		if f.due <= cycle {
			fire = append(fire, f)
		} else {
			keep = append(keep, f)
		}
	}
	p.pending = keep
	for i := len(fire) - 1; i >= 0; i-- {
		fire[i].done(fire[i].at)
	}
}

func (p *oraclePort) NextEvent() int64 {
	next := int64(-1)
	for _, f := range p.pending {
		if next == -1 || f.due < next {
			next = f.due
		}
	}
	p.log = append(p.log, fmt.Sprintf("next %d", next))
	return next
}

func (p *oraclePort) Load(cycle int64, va, pc uint32, done func(int64)) {
	p.log = append(p.log, fmt.Sprintf("load %d %#x %#x", cycle, va, pc))
	p.access(cycle, va, done)
}

func (p *oraclePort) Store(cycle int64, va, pc uint32, done func(int64)) {
	p.log = append(p.log, fmt.Sprintf("store %d %#x %#x", cycle, va, pc))
	p.access(cycle, va, done)
}

func (p *oraclePort) access(cycle int64, va uint32, done func(int64)) {
	h := (va>>2 ^ va>>9) * 2654435761
	lat := int64(h >> 8 % 150)
	switch h >> 29 {
	case 0, 1: // synchronous hit: due now or up to 12 cycles out
		done(cycle + lat%13)
	case 2: // synchronous but long: lands in the completion heap
		done(cycle + 8 + lat%40)
	case 3, 4: // miss, delivered from a later Tick
		p.pending = append(p.pending, oracleFill{due: cycle + 2 + lat, at: cycle + 2 + lat, done: done})
	case 5: // miss delivered late, claiming an earlier completion cycle
		p.pending = append(p.pending, oracleFill{due: cycle + 2 + lat%30, at: cycle + lat%30 - int64(h>>4%4), done: done})
	default: // miss delivered early, claiming a completion up to 12 cycles on
		p.pending = append(p.pending, oracleFill{due: cycle + 2 + lat%30, at: cycle + 2 + lat%30 + int64(h>>4%13), done: done})
	}
}

func (p *oraclePort) quiesced() bool { return len(p.pending) == 0 }

// randomConfig draws a small core, now and then the Table 1 machine.
// Latencies straddle the wheel's reach so both completion paths run.
func randomConfig(rng *rand.Rand) Config {
	if rng.Intn(6) == 0 {
		return DefaultConfig()
	}
	return Config{
		FetchWidth: 1 + rng.Intn(4), IssueWidth: 1 + rng.Intn(4), RetireWidth: 1 + rng.Intn(4),
		ROBSize: 1 + rng.Intn(40), LoadBuf: 1 + rng.Intn(6), StoreBuf: 1 + rng.Intn(4),
		IntUnits: 1 + rng.Intn(3), MemUnits: 1 + rng.Intn(3), FPUnits: 1 + rng.Intn(2),
		MispredictPenalty: int64(rng.Intn(30)), GshareBits: uint(1 + rng.Intn(8)),
		IntLatency: 1 + int64(rng.Intn(12)), FPLatency: 1 + int64(rng.Intn(12)),
	}
}

// randomTrace draws n µops of all five kinds over a few registers, with
// unused operands, ops reading one register twice, and branches at a
// handful of PCs with random outcomes (so gshare mispredicts).
func randomTrace(rng *rand.Rand, n int) *trace.Trace {
	reg := func() uint8 {
		if rng.Intn(4) == 0 {
			return trace.NoReg
		}
		return uint8(rng.Intn(6))
	}
	ops := make([]trace.Op, n)
	for i := range ops {
		op := trace.Op{
			PC:   uint32(0x1000 + 4*rng.Intn(64)),
			Kind: trace.Kind(rng.Intn(5)),
			Src1: reg(), Src2: reg(), Dst: reg(),
		}
		if rng.Intn(5) == 0 {
			op.Src2 = op.Src1
		}
		switch op.Kind {
		case trace.KLoad, trace.KStore:
			op.Addr = uint32(rng.Intn(1 << 16))
		case trace.KBranch:
			op.PC = uint32(0x8000 + 4*rng.Intn(4))
			op.Taken = rng.Intn(3) != 0
			op.Dst = trace.NoReg
		}
		ops[i] = op
	}
	return &trace.Trace{Ops: ops}
}

// coreRun is everything one run exposes: the result, the counters, each
// µop's completion and retirement cycles (indexed by seq, which equals
// the µop's 1-based position since retirement is in order), the segment
// boundaries and the memory port's call log.
type coreRun struct {
	res        Result
	counters   stats.Counters
	finished   []int64
	retired    []int64
	boundaries []int
	log        []string
	err        error
}

type runMode struct {
	observe  bool // attach per-µop observers (OnRetire un-batches retirement)
	maxOps   int
	segEvery int // 0 = Run, else RunSegmented with this interval
}

func (m runMode) String() string {
	return fmt.Sprintf("observe=%v maxOps=%d segEvery=%d", m.observe, m.maxOps, m.segEvery)
}

func (r *coreRun) finishHook(n int) func(seq uint64, cycle int64) {
	r.finished = make([]int64, n+1)
	return func(seq uint64, cycle int64) { r.finished[seq] = cycle }
}

func (r *coreRun) retireHook(n int) func(retired uint64, cycle int64) {
	r.retired = make([]int64, n+1)
	return func(retired uint64, cycle int64) { r.retired[retired] = cycle }
}

// simCore is what the oracle test drives: Core or the reference core.
type simCore interface {
	Run(tr *trace.Trace, mp MemPort, maxOps int) Result
	RunSegmented(tr *trace.Trace, mp MemPort, maxOps int, plan SegmentPlan) (Result, error)
}

// drive runs c over tr in mode m through a fresh oraclePort, recording
// into run. atBoundary is checked at every segment boundary.
func drive(c simCore, tr *trace.Trace, m runMode, run *coreRun, atBoundary func() error) {
	port := &oraclePort{}
	if m.segEvery == 0 {
		run.res = c.Run(tr, port, m.maxOps)
	} else {
		run.res, run.err = c.RunSegmented(tr, port, m.maxOps, SegmentPlan{
			Every:    m.segEvery,
			Quiesced: port.quiesced,
			OnBoundary: func(fetched int) error {
				if err := atBoundary(); err != nil {
					return fmt.Errorf("boundary at %d: %v", fetched, err)
				}
				run.boundaries = append(run.boundaries, fetched)
				return nil
			},
		})
	}
	run.log = port.log
}

// runCore runs Core, also reporting whether any completion was seen
// waiting in the wheel or in the heap, and requiring State to succeed at
// every segment boundary.
func runCore(cfg Config, tr *trace.Trace, m runMode) (run coreRun, sawWheel, sawHeap bool) {
	c := New(cfg, &run.counters)
	if m.observe {
		finished := run.finishHook(len(tr.Ops))
		c.onFinish = func(seq uint64, cycle int64) {
			sawWheel = sawWheel || c.wheelLen() > 0
			sawHeap = sawHeap || len(c.completed) > 0
			finished(seq, cycle)
		}
		c.OnRetire = run.retireHook(len(tr.Ops))
	}
	drive(c, tr, m, &run, func() error {
		_, err := c.State()
		return err
	})
	return run, sawWheel, sawHeap
}

func runRef(cfg Config, tr *trace.Trace, m runMode) (run coreRun) {
	c := newRefCore(cfg, &run.counters)
	if m.observe {
		c.onFinish = run.finishHook(len(tr.Ops))
		c.OnRetire = run.retireHook(len(tr.Ops))
	}
	drive(c, tr, m, &run, func() error { return nil })
	return run
}

// diffRuns reports the first difference between two runs, or "".
func diffRuns(got, want coreRun) string {
	switch {
	case got.err != nil || want.err != nil:
		return fmt.Sprintf("errors: core %v, reference %v", got.err, want.err)
	case got.res != want.res:
		return fmt.Sprintf("result %+v, reference %+v", got.res, want.res)
	case got.counters != want.counters:
		return fmt.Sprintf("counters %+v, reference %+v", got.counters, want.counters)
	case !reflect.DeepEqual(got.boundaries, want.boundaries):
		return fmt.Sprintf("boundaries %v, reference %v", got.boundaries, want.boundaries)
	}
	for seq := range want.finished {
		if got.finished[seq] != want.finished[seq] {
			return fmt.Sprintf("µop %d completes at cycle %d, reference %d", seq, got.finished[seq], want.finished[seq])
		}
	}
	for seq := range want.retired {
		if got.retired[seq] != want.retired[seq] {
			return fmt.Sprintf("µop %d retires at cycle %d, reference %d", seq, got.retired[seq], want.retired[seq])
		}
	}
	for i := 0; i < len(got.log) || i < len(want.log); i++ {
		var g, w string
		if i < len(got.log) {
			g = got.log[i]
		}
		if i < len(want.log) {
			w = want.log[i]
		}
		if g != w {
			return fmt.Sprintf("memory-port call %d is %q, reference %q", i, g, w)
		}
	}
	return ""
}

// TestCoreMatchesReference runs random traces on random machines through
// Core and the reference core under Run and RunSegmented, and requires the
// same result, counters, per-µop completion and retirement cycles, segment
// boundaries and memory-port calls, cycle for cycle.
func TestCoreMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20021005))
	cases := 300
	if testing.Short() {
		cases = 60
	}
	var sawWheel, sawHeap bool
	var mispredicts uint64
	for i := 0; i < cases; i++ {
		cfg := randomConfig(rng)
		tr := randomTrace(rng, 20+rng.Intn(600))
		modes := []runMode{{observe: true}, {}}
		if rng.Intn(3) == 0 {
			modes = append(modes, runMode{observe: true, maxOps: 1 + rng.Intn(len(tr.Ops))})
		}
		for j := 0; j < 2; j++ {
			modes = append(modes, runMode{observe: j == 0, segEvery: 1 + rng.Intn(len(tr.Ops)+10)})
		}
		for _, m := range modes {
			got, wheel, heap := runCore(cfg, tr, m)
			want := runRef(cfg, tr, m)
			if d := diffRuns(got, want); d != "" {
				t.Fatalf("case %d (%d µops, %+v, %v): %s", i, len(tr.Ops), cfg, m, d)
			}
			sawWheel = sawWheel || wheel
			sawHeap = sawHeap || heap
			mispredicts += got.res.Mispredicts
		}
	}
	if !sawWheel || !sawHeap || mispredicts == 0 {
		t.Fatalf("random cases missed a path: wheel %v, heap %v, mispredicts %d", sawWheel, sawHeap, mispredicts)
	}
}
