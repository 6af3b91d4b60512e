package cpu

import (
	"math/rand"
	"testing"
	"unsafe"

	"repro/internal/stats"
	"repro/internal/trace"
)

// fakeMem is a fixed-latency memory port with optional per-line "slow"
// addresses, used to test the core's timing in isolation.
type fakeMem struct {
	latency int64
	slow    map[uint32]int64
	loads   int
	stores  int
	pending []pendingFill
	now     int64
}

type pendingFill struct {
	at int64
	cb func(int64)
}

func (f *fakeMem) Tick(cycle int64) {
	f.now = cycle
	rest := f.pending[:0]
	for _, p := range f.pending {
		if p.at <= cycle {
			p.cb(p.at)
		} else {
			rest = append(rest, p)
		}
	}
	f.pending = rest
}

func (f *fakeMem) NextEvent() int64 {
	next := int64(-1)
	for _, p := range f.pending {
		if next == -1 || p.at < next {
			next = p.at
		}
	}
	return next
}

func (f *fakeMem) Load(cycle int64, va, pc uint32, done func(int64)) {
	f.loads++
	lat := f.latency
	if extra, ok := f.slow[va&^63]; ok {
		lat = extra
	}
	if lat <= 1 {
		done(cycle + 1)
		return
	}
	f.pending = append(f.pending, pendingFill{at: cycle + lat, cb: done})
}

func (f *fakeMem) Store(cycle int64, va, pc uint32, done func(int64)) {
	f.stores++
	done(cycle + 1)
}

// traceOf packs ops into a trace.
func traceOf(ops []trace.Op) *trace.Trace {
	b := trace.NewBuilder()
	for _, op := range ops {
		b.Emit(op)
	}
	return b.Trace()
}

func run(t *testing.T, ops []trace.Op, mem *fakeMem) Result {
	t.Helper()
	c := New(DefaultConfig(), &stats.Counters{})
	return c.Run(traceOf(ops), mem, 0)
}

// A ROB entry holds the µop as the trace packs it: 8 bytes of µop, the
// seq, the pending-operand count and two flags.
func TestROBEntryIs24Bytes(t *testing.T) {
	if size := unsafe.Sizeof(robEntry{}); size != 24 {
		t.Fatalf("robEntry is %d bytes, want 24", size)
	}
}

func TestAllOpsRetire(t *testing.T) {
	var ops []trace.Op
	for i := 0; i < 1000; i++ {
		ops = append(ops, trace.Op{PC: uint32(i * 4), Kind: trace.KInt, Dst: trace.NoReg, Src1: trace.NoReg, Src2: trace.NoReg})
	}
	res := run(t, ops, &fakeMem{latency: 3})
	if res.Retired != 1000 {
		t.Fatalf("retired = %d", res.Retired)
	}
	// 3-wide machine on independent single-cycle ops: IPC near 3.
	if ipc := res.IPC(); ipc < 2.0 {
		t.Fatalf("independent-int IPC = %.2f, want near 3", ipc)
	}
}

func TestRetireWidthBoundsIPC(t *testing.T) {
	var ops []trace.Op
	for i := 0; i < 3000; i++ {
		ops = append(ops, trace.Op{Kind: trace.KInt, Dst: trace.NoReg, Src1: trace.NoReg, Src2: trace.NoReg})
	}
	res := run(t, ops, &fakeMem{latency: 1})
	if ipc := res.IPC(); ipc > 3.01 {
		t.Fatalf("IPC %.2f exceeds retire width", ipc)
	}
}

func TestDependenceChainSerialises(t *testing.T) {
	// r1 = op(r1) repeated: each op waits for the previous one.
	var ops []trace.Op
	for i := 0; i < 500; i++ {
		ops = append(ops, trace.Op{Kind: trace.KInt, Dst: 1, Src1: 1, Src2: trace.NoReg})
	}
	res := run(t, ops, &fakeMem{latency: 1})
	if res.Cycles < 499 {
		t.Fatalf("dependence chain finished in %d cycles, want >= 499", res.Cycles)
	}
}

func TestPointerChaseLatencyVisible(t *testing.T) {
	// Dependent loads: load r1 <- [r1]. With 100-cycle memory, each load
	// serialises: >= 100 cycles per load.
	var ops []trace.Op
	for i := 0; i < 50; i++ {
		ops = append(ops, trace.Op{Kind: trace.KLoad, Dst: 1, Src1: 1, Src2: trace.NoReg, Addr: uint32(i * 4096)})
	}
	slow := map[uint32]int64{}
	for i := 0; i < 50; i++ {
		slow[uint32(i*4096)&^63] = 100
	}
	res := run(t, ops, &fakeMem{latency: 3, slow: slow})
	if res.Cycles < 50*100 {
		t.Fatalf("dependent slow loads took %d cycles, want >= 5000", res.Cycles)
	}
}

func TestIndependentLoadsOverlap(t *testing.T) {
	// Independent loads to slow lines must overlap (non-blocking cache,
	// 48-entry load buffer): total well under 50 * 100.
	var ops []trace.Op
	slow := map[uint32]int64{}
	for i := 0; i < 50; i++ {
		ops = append(ops, trace.Op{Kind: trace.KLoad, Dst: uint8(i % 8), Src1: trace.NoReg, Src2: trace.NoReg, Addr: uint32(i * 4096)})
		slow[uint32(i*4096)&^63] = 100
	}
	res := run(t, ops, &fakeMem{latency: 3, slow: slow})
	if res.Cycles > 1000 {
		t.Fatalf("independent loads took %d cycles: no memory-level parallelism", res.Cycles)
	}
}

func TestLoadBufferLimitsMLP(t *testing.T) {
	cfg := DefaultConfig()
	cfg.LoadBuf = 2
	var ops []trace.Op
	slow := map[uint32]int64{}
	for i := 0; i < 20; i++ {
		ops = append(ops, trace.Op{Kind: trace.KLoad, Dst: uint8(i % 8), Src1: trace.NoReg, Src2: trace.NoReg, Addr: uint32(i * 4096)})
		slow[uint32(i*4096)&^63] = 100
	}
	c := New(cfg, &stats.Counters{})
	res := c.Run(traceOf(ops), &fakeMem{latency: 3, slow: slow}, 0)
	// 20 loads, 2 at a time, 100 cycles each: >= 1000 cycles.
	if res.Cycles < 900 {
		t.Fatalf("load buffer not limiting: %d cycles", res.Cycles)
	}
}

func TestMispredictPenaltyCosts(t *testing.T) {
	// Alternating-taken branch defeats gshare only until it learns the
	// pattern; random-looking patterns stay mispredicted. Compare a
	// predictable all-taken loop against a pseudo-random pattern.
	mk := func(pattern func(i int) bool) []trace.Op {
		var ops []trace.Op
		for i := 0; i < 2000; i++ {
			ops = append(ops, trace.Op{Kind: trace.KInt, Dst: 1, Src1: trace.NoReg, Src2: trace.NoReg})
			ops = append(ops, trace.Op{PC: 0x40, Kind: trace.KBranch, Src1: 1, Src2: trace.NoReg, Dst: trace.NoReg, Taken: pattern(i)})
		}
		return ops
	}
	easy := run(t, mk(func(i int) bool { return true }), &fakeMem{latency: 1})
	lcg := uint32(12345)
	hard := run(t, mk(func(i int) bool {
		lcg = lcg*1664525 + 1013904223
		return lcg>>16&1 != 0
	}), &fakeMem{latency: 1})
	if easy.Mispredicts > 50 {
		t.Fatalf("all-taken branch mispredicted %d times", easy.Mispredicts)
	}
	if hard.Mispredicts < 200 {
		t.Fatalf("random branch mispredicted only %d times", hard.Mispredicts)
	}
	if hard.Cycles < easy.Cycles+int64(hard.Mispredicts-easy.Mispredicts)*20 {
		t.Fatalf("mispredicts too cheap: easy %d vs hard %d cycles (%d vs %d misses)",
			easy.Cycles, hard.Cycles, easy.Mispredicts, hard.Mispredicts)
	}
}

func TestStoresReachMemory(t *testing.T) {
	var ops []trace.Op
	for i := 0; i < 100; i++ {
		ops = append(ops, trace.Op{Kind: trace.KStore, Dst: trace.NoReg, Src1: trace.NoReg, Src2: trace.NoReg, Addr: uint32(i * 64)})
	}
	mem := &fakeMem{latency: 1}
	res := run(t, ops, mem)
	if res.Stores != 100 || mem.stores != 100 {
		t.Fatalf("stores executed %d, reached memory %d", res.Stores, mem.stores)
	}
}

func TestMaxOpsLimits(t *testing.T) {
	var ops []trace.Op
	for i := 0; i < 1000; i++ {
		ops = append(ops, trace.Op{Kind: trace.KInt, Dst: trace.NoReg, Src1: trace.NoReg, Src2: trace.NoReg})
	}
	c := New(DefaultConfig(), &stats.Counters{})
	res := c.Run(traceOf(ops), &fakeMem{latency: 1}, 250)
	if res.Retired != 250 {
		t.Fatalf("retired = %d, want 250", res.Retired)
	}
}

func TestGshareLearnsLoop(t *testing.T) {
	g := NewGshare(10)
	// taken, taken, taken, not-taken loop pattern (4-iteration loop).
	miss := 0
	for i := 0; i < 4000; i++ {
		taken := i%4 != 3
		if g.Predict(0x100) != taken {
			miss++
		}
		g.Update(0x100, taken)
	}
	if miss > 400 {
		t.Fatalf("gshare failed to learn 4-cycle loop: %d/4000 misses", miss)
	}
}

func TestOnRetireCallback(t *testing.T) {
	var ops []trace.Op
	for i := 0; i < 10; i++ {
		ops = append(ops, trace.Op{Kind: trace.KInt, Dst: trace.NoReg, Src1: trace.NoReg, Src2: trace.NoReg})
	}
	c := New(DefaultConfig(), &stats.Counters{})
	var calls []uint64
	c.OnRetire = func(r uint64, cyc int64) { calls = append(calls, r) }
	c.Run(traceOf(ops), &fakeMem{latency: 1}, 0)
	if len(calls) != 10 || calls[9] != 10 {
		t.Fatalf("OnRetire calls = %v", calls)
	}
}

// mustPanic reports whether f panics.
func mustPanic(f func()) (panicked bool) {
	defer func() { panicked = recover() != nil }()
	f()
	return false
}

// TestNewEnforcesValidate checks that New builds every configuration
// Validate accepts, and that the core it builds runs a trace to the end,
// while every configuration Validate rejects makes New panic.
func TestNewEnforcesValidate(t *testing.T) {
	zeroInt := DefaultConfig()
	zeroInt.IntUnits = 0
	if !mustPanic(func() { New(zeroInt, nil) }) {
		t.Fatal("New built a core with no integer units")
	}
	bigGshare := DefaultConfig()
	bigGshare.GshareBits = maxGshareBits + 1
	if bigGshare.Validate() == nil || !mustPanic(func() { New(bigGshare, nil) }) {
		t.Fatalf("gshare bits %d: accepted by Validate or built by New", bigGshare.GshareBits)
	}

	rng := rand.New(rand.NewSource(7))
	tr := randomTrace(rng, 200)
	accepted, rejected := 0, 0
	for i := 0; i < 300; i++ {
		cfg := randomConfig(rng)
		cfg.GshareBits = uint(1 + rng.Intn(maxGshareBits))
		if rng.Intn(2) == 0 { // push one field to or past its bound
			bad := -1 + rng.Intn(2)
			switch rng.Intn(13) {
			case 0:
				cfg.FetchWidth = bad
			case 1:
				cfg.IssueWidth = bad
			case 2:
				cfg.RetireWidth = bad
			case 3:
				cfg.ROBSize = bad
			case 4:
				cfg.LoadBuf = bad
			case 5:
				cfg.StoreBuf = bad
			case 6:
				cfg.IntUnits = bad
			case 7:
				cfg.MemUnits = bad
			case 8:
				cfg.FPUnits = bad
			case 9:
				cfg.MispredictPenalty = int64(bad)
			case 10:
				cfg.GshareBits = uint(rng.Intn(2)) * (maxGshareBits + 1)
			case 11:
				cfg.IntLatency = int64(bad)
			case 12:
				cfg.FPLatency = int64(bad)
			}
		}
		if err := cfg.Validate(); err != nil {
			rejected++
			if !mustPanic(func() { New(cfg, nil) }) {
				t.Fatalf("New built %+v, which Validate rejects: %v", cfg, err)
			}
			continue
		}
		accepted++
		res := New(cfg, nil).Run(tr, &fakeMem{latency: 4}, 0)
		if res.Retired != uint64(tr.Len()) {
			t.Fatalf("config %+v retired %d of %d µops", cfg, res.Retired, tr.Len())
		}
	}
	if accepted == 0 || rejected == 0 {
		t.Fatalf("accepted %d, rejected %d: the draw missed a side", accepted, rejected)
	}
}
