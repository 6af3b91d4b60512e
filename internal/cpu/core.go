package cpu

import (
	"fmt"

	"repro/internal/simtrace"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Config sizes the core per Table 1.
type Config struct {
	FetchWidth  int
	IssueWidth  int
	RetireWidth int
	ROBSize     int
	LoadBuf     int
	StoreBuf    int
	IntUnits    int
	MemUnits    int
	FPUnits     int
	// MispredictPenalty is the fetch-redirect penalty in cycles, applied
	// after a mispredicted branch resolves.
	MispredictPenalty int64
	// GshareBits is log2 of the predictor table (14 = 16K entries).
	GshareBits uint
	// FPLatency and IntLatency are execution latencies.
	IntLatency int64
	FPLatency  int64
}

// Validate checks the core geometry; New panics on what this rejects.
func (c Config) Validate() error {
	if c.FetchWidth <= 0 || c.IssueWidth <= 0 || c.RetireWidth <= 0 {
		return fmt.Errorf("cpu: non-positive pipeline width %+v", c)
	}
	if c.ROBSize <= 0 || c.LoadBuf <= 0 || c.StoreBuf <= 0 {
		return fmt.Errorf("cpu: non-positive buffer size %+v", c)
	}
	if c.IntUnits <= 0 || c.MemUnits <= 0 || c.FPUnits <= 0 {
		return fmt.Errorf("cpu: every functional-unit class needs at least one unit %+v", c)
	}
	if c.MispredictPenalty < 0 {
		return fmt.Errorf("cpu: negative mispredict penalty %d", c.MispredictPenalty)
	}
	if c.GshareBits < 1 || c.GshareBits > maxGshareBits {
		return fmt.Errorf("cpu: gshare bits %d outside [1,%d]", c.GshareBits, maxGshareBits)
	}
	if c.IntLatency <= 0 || c.FPLatency <= 0 {
		return fmt.Errorf("cpu: non-positive execution latency %+v", c)
	}
	return nil
}

// DefaultConfig is the 4 GHz machine of Table 1.
func DefaultConfig() Config {
	return Config{
		FetchWidth: 3, IssueWidth: 3, RetireWidth: 3,
		ROBSize: 128, LoadBuf: 48, StoreBuf: 32,
		IntUnits: 3, MemUnits: 2, FPUnits: 1,
		MispredictPenalty: 28, GshareBits: 14,
		IntLatency: 1, FPLatency: 3,
	}
}

// MemPort is the memory system as seen by the core.
type MemPort interface {
	// Tick processes memory-system events up to and including cycle.
	Tick(cycle int64)
	// NextEvent returns the cycle of the earliest pending memory event,
	// or -1 when none (used to skip idle cycles).
	NextEvent() int64
	// Load issues a demand load; done is called exactly once with the
	// cycle at which the value is available. done may be invoked
	// synchronously (cache hit) or from a later Tick (miss).
	Load(cycle int64, va, pc uint32, done func(at int64))
	// Store issues a committed store; done is called when the store has
	// drained from the store buffer's perspective.
	Store(cycle int64, va, pc uint32, done func(at int64))
}

// Result summarises one run.
type Result struct {
	Cycles      int64
	Retired     uint64
	Branches    uint64
	Mispredicts uint64
	Loads       uint64
	Stores      uint64
}

// IPC returns retired µops per cycle.
func (r Result) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Retired) / float64(r.Cycles)
}

// robEntry is one reorder-buffer slot. It holds no pointers: the µops
// waiting on its result are linked through Core.depHead and Core.depNext,
// beside rob, so an entry is 32 bytes that the garbage collector never
// scans. An unfinished µop needs no state field: it waits while
// pendingSrcs > 0, then sits in the ready list, then in the wheel or the
// heap until complete sets done.
type robEntry struct {
	op          trace.Op
	seq         uint64
	pendingSrcs int32
	done        bool
	mispredict  bool
}

// wheelSize is the completion wheel's bucket count. A completion due fewer
// than wheelSize cycles ahead goes into bucket at&wheelMask; one due later
// goes into the completion heap.
const (
	wheelSize = 8
	wheelMask = wheelSize - 1
)

type completion struct {
	at   int64
	slot int32
}

// completionHeap is a hand-rolled binary min-heap ordered by at.
// container/heap would box every completion into an `any` on Push — one
// heap allocation per push. Equal-cycle completions are all drained within
// one complete() call, which makes their relative order unobservable.
type completionHeap []completion

func (h completion) less(o completion) bool { return h.at < o.at }

func (h *completionHeap) push(c completion) {
	*h = append(*h, c)
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !s[i].less(s[parent]) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

func (h *completionHeap) pop() completion {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s = s[:n]
	*h = s
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && s[r].less(s[l]) {
			m = r
		}
		if !s[m].less(s[i]) {
			break
		}
		s[i], s[m] = s[m], s[i]
		i = m
	}
	return top
}

func (h completionHeap) peekAt() int64 { return h[0].at }

// Core runs traces against a memory port.
type Core struct {
	cfg Config
	bp  *Gshare
	st  *stats.Counters

	rob []robEntry
	// The µops waiting on rob[p]'s result form a list of operand edges:
	// edge 2*slot+k is operand k (Src1, Src2) of the µop in slot, so an
	// op reading one register twice waits on it twice. depHead[p] is the
	// first edge waiting on p and depNext[edge] the next, -1 ending both.
	// complete walks and empties p's list when p finishes, and a µop
	// cannot retire before the producers it waits on finish, so both a
	// slot's list and its edges are free by the time fetch reuses the slot.
	depHead []int32
	depNext []int32
	robSize int32
	head    int32
	count   int

	// lastWriter[r] is 1 + the ROB slot of the youngest unfinished µop
	// writing register r, or 0 when r's value is available. complete
	// clears a µop's entry when it finishes, so a drained core has none.
	lastWriter [trace.NumRegs]int32

	// ready holds the slots whose operands are all available, in
	// ascending seq order: fetch appends (a new µop has the largest seq)
	// and a wakeup inserts by seq, so one in-order pass in issue visits
	// candidates oldest-first.
	ready []int32

	// Completions due within wheelSize-1 cycles wait in wheel[at&wheelMask];
	// later ones wait in the completed heap. Every completion is due after
	// the cycle it was scheduled in and the loop never skips past the
	// earliest one, so bucket cycle&wheelMask holds exactly the completions
	// due at cycle when complete() drains it.
	wheel     [wheelSize][]int32
	completed completionHeap

	// loadDone and storeDone are memory-port completion callbacks built
	// once at construction. A per-load closure literal would escape (the
	// memory system stores it on miss) and cost one allocation per load;
	// the per-slot callback is safe because a ROB slot holds at most one
	// outstanding load.
	loadDone  []func(at int64)
	storeDone func(at int64)

	outstandingLoads  int
	outstandingStores int

	fetchIdx          int
	nextSeq           uint64
	haltFetch         bool
	fetchBlockedUntil int64

	cycle int64
	res   Result

	// OnRetire, if set, is called after each retired µop with the
	// running retired count and current cycle (warm-up detection). The
	// callback may set OnRetire to nil to unsubscribe once it has seen
	// what it needs; retirement accounting is batched while no observer
	// is attached.
	OnRetire func(retired uint64, cycle int64)

	// onFinish, if set, is called with each µop's seq and the cycle it
	// completes in. Tests use it to compare per-µop timing between cores.
	onFinish func(seq uint64, cycle int64)

	// tr, when non-nil, receives ROB-stall events; robStallStart tracks
	// the cycle an ongoing full-ROB fetch stall began (0 = not stalled).
	// Tracing-only state: it is not part of CoreState.
	tr            *simtrace.Tracer
	robStallStart int64
}

// AttachTracer wires an event tracer into the core (nil detaches).
func (c *Core) AttachTracer(tr *simtrace.Tracer) { c.tr = tr }

// New builds a core. counters may be nil. It panics on a configuration
// that Validate rejects.
func New(cfg Config, st *stats.Counters) *Core {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if st == nil {
		st = &stats.Counters{}
	}
	c := &Core{
		cfg:     cfg,
		bp:      NewGshare(cfg.GshareBits),
		st:      st,
		rob:     make([]robEntry, cfg.ROBSize),
		depHead: make([]int32, cfg.ROBSize),
		depNext: make([]int32, 2*cfg.ROBSize),
		robSize: int32(cfg.ROBSize),
		// Every ready or completing µop occupies a ROB slot, so neither
		// the ready list nor a wheel bucket ever outgrows the ROB.
		ready:     make([]int32, 0, cfg.ROBSize),
		completed: make(completionHeap, 0, cfg.ROBSize),
	}
	for i := range c.depHead {
		c.depHead[i] = -1
	}
	for i := range c.wheel {
		c.wheel[i] = make([]int32, 0, cfg.ROBSize)
	}
	c.loadDone = make([]func(at int64), cfg.ROBSize)
	for i := range c.loadDone {
		slot := int32(i)
		c.loadDone[i] = func(at int64) { c.markComplete(slot, at) }
	}
	c.storeDone = func(int64) { c.outstandingStores-- }
	return c
}

// Run executes up to maxOps µops of tr (0 = all) and returns timing.
func (c *Core) Run(tr *trace.Trace, mp MemPort, maxOps int) Result {
	c.run(opsUpTo(tr, maxOps), mp, nil)
	c.res.Cycles = c.cycle
	c.st.Cycles = c.cycle
	return c.res
}

// opsUpTo returns the first maxOps µops of tr (all of them when maxOps is
// 0 or exceeds the trace).
func opsUpTo(tr *trace.Trace, maxOps int) []trace.Op {
	if maxOps > 0 && maxOps < len(tr.Ops) {
		return tr.Ops[:maxOps]
	}
	return tr.Ops
}

// run is the cycle loop behind Run and RunSegmented: it steps the machine
// until every op in ops has been fetched and retired, skipping idle
// stretches. A non-nil quiesced makes it a segment drain: it also waits for
// the store buffer to empty and the memory system to quiesce, and a store
// drained by the memory system counts as progress.
func (c *Core) run(ops []trace.Op, mp MemPort, quiesced func() bool) {
	drain := quiesced != nil
	lastProgress := c.cycle
	for c.fetchIdx < len(ops) || c.count > 0 || drain && (c.outstandingStores > 0 || !quiesced()) {
		if c.step(ops, mp, drain) {
			lastProgress = c.cycle
			continue
		}
		c.skipIdle(mp)
		if c.cycle-lastProgress > 5_000_000 {
			state := ""
			if drain {
				state = fmt.Sprintf(", quiesced %v", quiesced())
			}
			panic(fmt.Sprintf("cpu: no progress since cycle %d (rob %d, ready %d, loads %d, stores %d, fetch %d/%d%s)",
				lastProgress, c.count, len(c.ready), c.outstandingLoads, c.outstandingStores, c.fetchIdx, len(ops), state))
		}
	}
}

// step advances the machine one cycle and reports whether any stage made
// progress. With drains set, a store the memory system drained during the
// cycle's Tick also counts.
//
// simlint:hotpath
func (c *Core) step(ops []trace.Op, mp MemPort, drains bool) bool {
	stores := c.outstandingStores
	c.cycle++
	mp.Tick(c.cycle)
	progress := drains && c.outstandingStores != stores
	if c.complete() {
		progress = true
	}
	if c.retire(mp) {
		progress = true
	}
	if c.issue(mp) {
		progress = true
	}
	if c.fetch(ops) {
		progress = true
	}
	return progress
}

// skipIdle runs after a cycle in which nothing moved. Nothing can move
// again before the next completion, fetch unblock or memory event, so it
// advances the clock to the cycle before the earliest of those.
func (c *Core) skipIdle(mp MemPort) {
	next := int64(-1)
	consider := func(t int64) {
		if t > c.cycle && (next == -1 || t < next) {
			next = t
		}
	}
	for t := c.cycle + 1; t < c.cycle+wheelSize; t++ {
		if len(c.wheel[t&wheelMask]) > 0 {
			consider(t)
			break
		}
	}
	if len(c.completed) > 0 {
		consider(c.completed.peekAt())
	}
	if !c.haltFetch && c.fetchBlockedUntil > c.cycle {
		consider(c.fetchBlockedUntil)
	}
	if t := mp.NextEvent(); t >= 0 {
		consider(t)
	}
	if next > c.cycle+1 {
		c.cycle = next - 1
	}
}

// complete finishes every µop due at the current cycle and wakes its
// dependents. Heap completions that have come due join this cycle's wheel
// bucket first, so one loop finishes them all. The order in which one
// cycle's completions finish does not matter: each only sets its own state
// and decrements counters, a mispredict sets fetchBlockedUntil from the
// cycle alone, and wake keeps the ready list sorted whatever order it is
// called in.
//
// simlint:hotpath
func (c *Core) complete() bool {
	b := &c.wheel[c.cycle&wheelMask]
	for len(c.completed) > 0 && c.completed.peekAt() <= c.cycle {
		*b = append(*b, c.completed.pop().slot)
	}
	due := *b
	if len(due) == 0 {
		return false
	}
	for _, slot := range due {
		e := &c.rob[slot]
		e.done = true
		switch {
		case e.op.Kind == trace.KLoad:
			c.outstandingLoads--
		case e.mispredict:
			c.haltFetch = false
			c.fetchBlockedUntil = c.cycle + c.cfg.MispredictPenalty
		}
		for edge := c.depHead[slot]; edge >= 0; edge = c.depNext[edge] {
			dep := edge >> 1
			if c.rob[dep].pendingSrcs--; c.rob[dep].pendingSrcs == 0 {
				c.wake(dep)
			}
		}
		c.depHead[slot] = -1
		if r := e.op.Dst; r < trace.NumRegs && c.lastWriter[r] == slot+1 {
			c.lastWriter[r] = 0
		}
		if c.onFinish != nil {
			c.onFinish(e.seq, c.cycle)
		}
	}
	*b = due[:0]
	return true
}

// wake inserts slot, whose operands have all become available, into the
// ready list at its seq position.
//
// simlint:hotpath
func (c *Core) wake(slot int32) {
	seq := c.rob[slot].seq
	r := append(c.ready, slot)
	i := len(r) - 1
	for ; i > 0 && c.rob[r[i-1]].seq > seq; i-- {
		r[i] = r[i-1]
	}
	r[i] = slot
	c.ready = r
}

// markComplete schedules completion of an issued entry at cycle at (at the
// earliest the next cycle).
//
// simlint:hotpath
func (c *Core) markComplete(slot int32, at int64) {
	if at <= c.cycle {
		at = c.cycle + 1
	}
	if at-c.cycle < wheelSize {
		c.toWheel(slot, at)
		return
	}
	c.completed.push(completion{at: at, slot: slot})
}

// toWheel files slot's completion, due at cycle at, fewer than wheelSize
// cycles from now, in the wheel.
func (c *Core) toWheel(slot int32, at int64) {
	b := &c.wheel[at&wheelMask]
	*b = append(*b, slot)
}

// wheelLen counts the completions waiting in the wheel.
func (c *Core) wheelLen() int {
	n := 0
	for _, b := range c.wheel {
		n += len(b)
	}
	return n
}

// retire commits completed µops in order. Retirement accounting is batched:
// the counters are flushed once per retire burst rather than incremented
// per µop, except while an OnRetire observer is attached (warm-up only),
// where the flush precedes each callback so the warm-up reset sees exact
// counts.
//
// simlint:hotpath
func (c *Core) retire(mp MemPort) bool {
	any := false
	var retired, stores uint64
	for n := 0; n < c.cfg.RetireWidth && c.count > 0; n++ {
		e := &c.rob[c.head]
		if !e.done {
			break
		}
		if e.op.Kind == trace.KStore {
			if c.outstandingStores >= c.cfg.StoreBuf {
				break // store buffer full: stall retirement
			}
			c.outstandingStores++
			stores++
			mp.Store(c.cycle, e.op.Addr, e.op.PC, c.storeDone)
		}
		if c.head++; c.head == c.robSize {
			c.head = 0
		}
		c.count--
		c.res.Retired++
		retired++
		if c.OnRetire != nil {
			c.st.AddRetired(retired, stores)
			retired, stores = 0, 0
			c.OnRetire(c.res.Retired, c.cycle)
		}
		any = true
	}
	c.st.AddRetired(retired, stores)
	return any
}

// issue makes one oldest-first pass over the ready list, issuing each µop
// whose functional unit (and, for a load, load-buffer entry) is free until
// IssueWidth µops have gone. Units and load-buffer room only shrink within
// a cycle, so a µop passed over stays ineligible for the rest of the pass:
// the result is the same as picking the oldest eligible µop once per slot.
//
// simlint:hotpath
func (c *Core) issue(mp MemPort) bool {
	r := c.ready
	if len(r) == 0 {
		return false
	}
	intLeft, memLeft, fpLeft := c.cfg.IntUnits, c.cfg.MemUnits, c.cfg.FPUnits
	width := c.cfg.IssueWidth
	kept, i := 0, 0
	for ; i < len(r) && width > 0; i++ {
		slot := r[i]
		e := &c.rob[slot]
		var lat int64 // 0 for a load, whose latency the memory port decides
		switch k := e.op.Kind; {
		case (k == trace.KInt || k == trace.KBranch) && intLeft > 0:
			intLeft--
			lat = c.cfg.IntLatency
		case k == trace.KFP && fpLeft > 0:
			fpLeft--
			lat = c.cfg.FPLatency
		case k == trace.KStore && memLeft > 0:
			// Address generation only; memory traffic happens at retire.
			memLeft--
			c.res.Stores++
			lat = c.cfg.IntLatency
		case k == trace.KLoad && memLeft > 0 && c.outstandingLoads < c.cfg.LoadBuf:
			memLeft--
			c.outstandingLoads++
			c.res.Loads++
		default: // no free unit (or load-buffer entry) this cycle
			r[kept] = slot
			kept++
			continue
		}
		width--
		switch {
		case lat == 0:
			mp.Load(c.cycle, e.op.Addr, e.op.PC, c.loadDone[slot])
		case lat < wheelSize:
			// markComplete's wheel path: a latency is at least 1, so the
			// completion is due after this cycle.
			c.toWheel(slot, c.cycle+lat)
		default:
			c.markComplete(slot, c.cycle+lat)
		}
	}
	if kept == i {
		return false
	}
	if i < len(r) {
		kept += copy(r[kept:], r[i:])
	}
	c.ready = r[:kept]
	return true
}

// dependOn makes operand edge wait on the unfinished writer of register
// src, if there is one, and reports how many writers (0 or 1) it now waits
// on. NoReg is out of range, so one bound check skips it.
func (c *Core) dependOn(src uint8, edge int32) int32 {
	if src >= trace.NumRegs {
		return 0
	}
	w := c.lastWriter[src]
	if w == 0 {
		return 0
	}
	c.depNext[edge] = c.depHead[w-1]
	c.depHead[w-1] = edge
	return 1
}

// fetch brings µops into the ROB, predicting branches and halting at a
// mispredicted one until it resolves.
//
// simlint:hotpath
func (c *Core) fetch(ops []trace.Op) bool {
	if c.tr.Enabled() && c.fetchIdx < len(ops) {
		// Edge-triggered ROB-stall tracking: record when fetch first finds
		// the ROB full, emit one event with the stall length once a slot
		// frees up.
		if c.count >= c.cfg.ROBSize {
			if c.robStallStart == 0 {
				c.robStallStart = c.cycle
			}
		} else if c.robStallStart != 0 {
			c.tr.Emit(simtrace.Event{
				Kind: simtrace.KindROBStall, Comp: simtrace.CompCore,
				Cycle: c.cycle, Arg: uint64(c.cycle - c.robStallStart),
			})
			c.robStallStart = 0
		}
	}
	any := false
	for n := 0; n < c.cfg.FetchWidth; n++ {
		if c.fetchIdx >= len(ops) || c.count >= c.cfg.ROBSize ||
			c.haltFetch || c.cycle < c.fetchBlockedUntil {
			break
		}
		op := ops[c.fetchIdx]
		c.fetchIdx++
		slot := c.head + int32(c.count)
		if slot >= c.robSize {
			slot -= c.robSize
		}
		c.count++
		c.nextSeq++
		e := &c.rob[slot]
		e.op = op
		e.seq = c.nextSeq
		e.pendingSrcs = c.dependOn(op.Src1, 2*slot) + c.dependOn(op.Src2, 2*slot+1)
		e.done = false
		e.mispredict = false
		if op.Dst < trace.NumRegs {
			c.lastWriter[op.Dst] = slot + 1
		}
		if e.pendingSrcs == 0 {
			c.ready = append(c.ready, slot)
		}
		any = true

		if op.Kind == trace.KBranch {
			c.res.Branches++
			pred := c.bp.Predict(op.PC)
			c.bp.Update(op.PC, op.Taken)
			if pred != op.Taken {
				c.res.Mispredicts++
				e.mispredict = true
				c.haltFetch = true
				break
			}
		}
	}
	return any
}
