package cpu

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
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
	// onTick, if set, runs at the start of every Tick: between one cycle's
	// fetch and the next cycle's complete, when the core is at rest.
	onTick func()
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
	if p.onTick != nil {
		p.onTick()
	}
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

// oracleHash is the address hash behind an access's latency and path.
func oracleHash(va uint32) uint32 { return (va>>2 ^ va>>9) * 2654435761 }

func (p *oraclePort) access(cycle int64, va uint32, done func(int64)) {
	h := oracleHash(va)
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
	b := trace.NewBuilder()
	for range n {
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
		b.Emit(op)
	}
	return b.Trace()
}

// loadHeavyTrace draws n µops, three in four of them loads. Most loads
// read no register, and every load address misses in oraclePort for over
// 100 cycles; the rest are integer µops, some reading a load's result,
// and a few stores. On the Table 1 machine the loads back up behind the
// 48-entry load buffer while younger integer µops keep issuing past them.
func loadHeavyTrace(rng *rand.Rand, n int) *trace.Trace {
	reg := func() uint8 {
		if rng.Intn(2) == 0 {
			return trace.NoReg
		}
		return uint8(rng.Intn(6))
	}
	slowAddr := func() uint32 {
		for {
			va := uint32(rng.Intn(1 << 16))
			if h := oracleHash(va); (h>>29 == 3 || h>>29 == 4) && h>>8%150 > 100 {
				return va
			}
		}
	}
	b := trace.NewBuilder()
	for range n {
		op := trace.Op{PC: uint32(0x1000 + 4*rng.Intn(64)), Kind: trace.KInt, Src1: reg(), Src2: trace.NoReg, Dst: reg()}
		switch r := rng.Intn(16); {
		case r < 12:
			op.Kind, op.Addr = trace.KLoad, slowAddr()
			if r > 1 {
				op.Src1 = trace.NoReg
			}
		case r == 12:
			op.Kind, op.Addr, op.Dst = trace.KStore, slowAddr(), trace.NoReg
		}
		b.Emit(op)
	}
	return b.Trace()
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

// drive runs c over tr in mode m through port, which must be fresh,
// recording into run. atBoundary is checked at every segment boundary.
func drive(c simCore, port *oraclePort, tr *trace.Trace, m runMode, run *coreRun, atBoundary func() error) {
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

// corePaths records which of Core's paths a run went through.
type corePaths struct {
	wheel, heap bool // a completion waited in the wheel; in the heap
	// passedLoad: a cycle's issue sent a µop that is not a load past an
	// older ready load that the full load buffer held back.
	passedLoad bool
}

// runCore runs Core, also reporting the paths it saw and requiring State
// to succeed at every segment boundary.
func runCore(cfg Config, tr *trace.Trace, m runMode) (run coreRun, saw corePaths) {
	c := New(cfg, &run.counters)
	if m.observe {
		finished := run.finishHook(tr.Len())
		c.onFinish = func(seq uint64, cycle int64) {
			saw.wheel = saw.wheel || c.wheelLen() > 0
			saw.heap = saw.heap || len(c.completed) > 0
			finished(seq, cycle)
		}
		c.OnRetire = run.retireHook(tr.Len())
	}
	port := &oraclePort{}
	// Between two Ticks the core runs exactly one issue, and nothing but
	// that issue takes a µop off a ready list. So a load ready at both
	// Ticks was passed over, and a µop ready at the first Tick but not the
	// second was issued.
	var loads, others []uint64 // ready seqs at the previous Tick
	port.onTick = func() {
		if !saw.passedLoad && c.outstandingLoads >= cfg.LoadBuf {
			saw.passedLoad = passedLoad(c, loads, others)
		}
		loads = readySeqs(c, loads[:0], c.readyLoads)
		others = readySeqs(c, others[:0], c.ready)
	}
	drive(c, port, tr, m, &run, func() error {
		_, err := c.State()
		return err
	})
	return run, saw
}

// readySeqs appends the seqs of the µops in list to dst.
func readySeqs(c *Core, dst []uint64, list []int32) []uint64 {
	for _, slot := range list {
		dst = append(dst, c.rob[slot].seq)
	}
	return dst
}

// inReady reports whether the µop with seq is in list, which is in seq
// order.
func inReady(c *Core, list []int32, seq uint64) bool {
	i := sort.Search(len(list), func(i int) bool { return c.rob[list[i]].seq >= seq })
	return i < len(list) && c.rob[list[i]].seq == seq
}

// passedLoad reports whether, given the ready seqs loads and others at the
// previous Tick, the issue since then sent a µop that is not a load past
// an older load that is still waiting. With the load buffer full now, it
// was full when that load's turn came: once no load can go, none does.
func passedLoad(c *Core, loads, others []uint64) bool {
	for _, l := range loads {
		if !inReady(c, c.readyLoads, l) {
			continue // issued
		}
		for _, o := range others {
			if o > l && !inReady(c, c.ready, o) {
				return true
			}
		}
		return false
	}
	return false
}

func runRef(cfg Config, tr *trace.Trace, m runMode) (run coreRun) {
	c := newRefCore(cfg, &run.counters)
	if m.observe {
		c.onFinish = run.finishHook(tr.Len())
		c.OnRetire = run.retireHook(tr.Len())
	}
	drive(c, &oraclePort{}, tr, m, &run, func() error { return nil })
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
// boundaries and memory-port calls, cycle for cycle. One case in four runs
// a load-heavy trace, every other one of those on the Table 1 machine.
func TestCoreMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20021005))
	cases := 300
	if testing.Short() {
		cases = 60
	}
	var saw corePaths
	var passedLoadTable1 bool
	var mispredicts uint64
	for i := 0; i < cases; i++ {
		cfg := randomConfig(rng)
		tr := randomTrace(rng, 20+rng.Intn(600))
		if i%4 == 3 {
			if i%8 == 7 {
				cfg = DefaultConfig()
			}
			tr = loadHeavyTrace(rng, 100+rng.Intn(600))
		}
		modes := []runMode{{observe: true}, {}}
		if rng.Intn(3) == 0 {
			modes = append(modes, runMode{observe: true, maxOps: 1 + rng.Intn(tr.Len())})
		}
		for j := 0; j < 2; j++ {
			modes = append(modes, runMode{observe: j == 0, segEvery: 1 + rng.Intn(tr.Len()+10)})
		}
		for _, m := range modes {
			got, paths := runCore(cfg, tr, m)
			want := runRef(cfg, tr, m)
			if d := diffRuns(got, want); d != "" {
				t.Fatalf("case %d (%d µops, %+v, %v): %s", i, tr.Len(), cfg, m, d)
			}
			saw.wheel = saw.wheel || paths.wheel
			saw.heap = saw.heap || paths.heap
			saw.passedLoad = saw.passedLoad || paths.passedLoad
			passedLoadTable1 = passedLoadTable1 || paths.passedLoad && cfg == DefaultConfig()
			mispredicts += got.res.Mispredicts
		}
	}
	if !saw.wheel || !saw.heap || !passedLoadTable1 || mispredicts == 0 {
		t.Fatalf("random cases missed a path: wheel %v, heap %v, µop issued past a load held by a full load buffer %v (on the Table 1 machine %v), mispredicts %d",
			saw.wheel, saw.heap, saw.passedLoad, passedLoadTable1, mispredicts)
	}
}
