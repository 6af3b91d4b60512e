package cpu

import (
	"fmt"

	"repro/internal/stats"
	"repro/internal/trace"
)

// refCore is the reference the property tests hold Core to: the core as it
// was before the completion wheel, the seq-ordered ready list and the
// pointer-free ROB. Every completion goes through one (at, seq) heap, the
// ready queue is an unordered bag searched for its oldest eligible µop once
// per issue slot, and each ROB entry carries its own dependents slice. It
// is slow and simple on purpose; Core must match it cycle for cycle.
type refCore struct {
	cfg Config
	bp  *Gshare
	st  *stats.Counters

	rob   []refEntry
	head  int32
	count int

	lastWriter [trace.NumRegs]refWriter
	readyQ     []int32
	completed  refHeap

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

	OnRetire func(retired uint64, cycle int64)
	onFinish func(seq uint64, cycle int64)
}

type refState uint8

const (
	esEmpty refState = iota
	esWaiting
	esReady
	esIssued
	esDone
)

type refEntry struct {
	op          trace.Op
	seq         uint64
	state       refState
	pendingSrcs int
	dependents  []int32
	mispredict  bool
}

type refWriter struct {
	slot  int32
	seq   uint64
	valid bool
}

type refCompletion struct {
	at   int64
	slot int32
	seq  uint64
}

// refHeap is a binary min-heap of completions ordered by (at, seq).
type refHeap []refCompletion

func (h refCompletion) less(o refCompletion) bool {
	if h.at != o.at {
		return h.at < o.at
	}
	return h.seq < o.seq
}

func (h *refHeap) push(c refCompletion) {
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

func (h *refHeap) pop() refCompletion {
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

func (h refHeap) peekAt() int64 { return h[0].at }

func newRefCore(cfg Config, st *stats.Counters) *refCore {
	c := &refCore{cfg: cfg, bp: NewGshare(cfg.GshareBits), st: st, rob: make([]refEntry, cfg.ROBSize)}
	c.loadDone = make([]func(at int64), cfg.ROBSize)
	for i := range c.loadDone {
		slot := int32(i)
		c.loadDone[i] = func(at int64) { c.markComplete(slot, c.rob[slot].seq, at) }
	}
	c.storeDone = func(int64) { c.outstandingStores-- }
	return c
}

func (c *refCore) Run(tr *trace.Trace, mp MemPort, maxOps int) Result {
	ops := opsUpTo(tr, maxOps)
	lastProgress := int64(0)
	for c.fetchIdx < len(ops) || c.count > 0 {
		c.cycle++
		mp.Tick(c.cycle)
		progress := false
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
		if progress {
			lastProgress = c.cycle
			continue
		}
		c.skipIdle(mp, lastProgress)
	}
	c.res.Cycles = c.cycle
	c.st.Cycles = c.cycle
	return c.res
}

func (c *refCore) RunSegmented(tr *trace.Trace, mp MemPort, maxOps int, plan SegmentPlan) (Result, error) {
	ops := opsUpTo(tr, maxOps)
	for c.fetchIdx < len(ops) || c.count > 0 || c.outstandingStores > 0 {
		fetchLimit := (c.fetchIdx/plan.Every + 1) * plan.Every
		if fetchLimit > len(ops) {
			fetchLimit = len(ops)
		}
		c.runSegment(ops[:fetchLimit], mp, plan.Quiesced)
		c.lastWriter = [trace.NumRegs]refWriter{}
		if c.fetchIdx < len(ops) {
			if err := plan.OnBoundary(c.fetchIdx); err != nil {
				c.res.Cycles = c.cycle
				c.st.Cycles = c.cycle
				return c.res, err
			}
		}
	}
	c.res.Cycles = c.cycle
	c.st.Cycles = c.cycle
	return c.res, nil
}

func (c *refCore) runSegment(ops []trace.Op, mp MemPort, quiesced func() bool) {
	lastProgress := c.cycle
	for c.fetchIdx < len(ops) || c.count > 0 || c.outstandingStores > 0 || !quiesced() {
		storesBefore := c.outstandingStores
		c.cycle++
		mp.Tick(c.cycle)
		progress := c.outstandingStores != storesBefore
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
		if progress {
			lastProgress = c.cycle
			continue
		}
		c.skipIdle(mp, lastProgress)
	}
}

func (c *refCore) skipIdle(mp MemPort, lastProgress int64) {
	next := int64(-1)
	consider := func(t int64) {
		if t > c.cycle && (next == -1 || t < next) {
			next = t
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
	if c.cycle-lastProgress > 5_000_000 {
		panic(fmt.Sprintf("refCore: no progress since cycle %d", lastProgress))
	}
}

func (c *refCore) complete() bool {
	any := false
	for len(c.completed) > 0 && c.completed.peekAt() <= c.cycle {
		comp := c.completed.pop()
		e := &c.rob[comp.slot]
		if e.seq != comp.seq || e.state != esIssued {
			continue
		}
		e.state = esDone
		any = true
		if e.op.Kind == trace.KLoad {
			c.outstandingLoads--
		}
		if e.op.Kind == trace.KBranch && e.mispredict {
			c.haltFetch = false
			c.fetchBlockedUntil = c.cycle + c.cfg.MispredictPenalty
		}
		for _, dep := range e.dependents {
			d := &c.rob[dep]
			d.pendingSrcs--
			if d.pendingSrcs == 0 && d.state == esWaiting {
				d.state = esReady
				c.readyQ = append(c.readyQ, dep)
			}
		}
		e.dependents = e.dependents[:0]
		if c.onFinish != nil {
			c.onFinish(e.seq, c.cycle)
		}
	}
	return any
}

func (c *refCore) markComplete(slot int32, seq uint64, at int64) {
	if at <= c.cycle {
		at = c.cycle + 1
	}
	c.completed.push(refCompletion{at: at, slot: slot, seq: seq})
}

func (c *refCore) retire(mp MemPort) bool {
	any := false
	var retired, stores uint64
	for n := 0; n < c.cfg.RetireWidth && c.count > 0; n++ {
		e := &c.rob[c.head]
		if e.state != esDone {
			break
		}
		if e.op.Kind == trace.KStore {
			if c.outstandingStores >= c.cfg.StoreBuf {
				break
			}
			c.outstandingStores++
			stores++
			mp.Store(c.cycle, e.op.Addr, e.op.PC, c.storeDone)
		}
		e.state = esEmpty
		c.head = (c.head + 1) % int32(c.cfg.ROBSize)
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

func (c *refCore) issue(mp MemPort) bool {
	intLeft, memLeft, fpLeft := c.cfg.IntUnits, c.cfg.MemUnits, c.cfg.FPUnits
	any := false
	for issued := 0; issued < c.cfg.IssueWidth; issued++ {
		best := -1
		for qi, slot := range c.readyQ {
			e := &c.rob[slot]
			ok := false
			switch e.op.Kind {
			case trace.KInt, trace.KBranch:
				ok = intLeft > 0
			case trace.KFP:
				ok = fpLeft > 0
			case trace.KLoad:
				ok = memLeft > 0 && c.outstandingLoads < c.cfg.LoadBuf
			case trace.KStore:
				ok = memLeft > 0
			}
			if !ok {
				continue
			}
			if best == -1 || e.seq < c.rob[c.readyQ[best]].seq {
				best = qi
			}
		}
		if best == -1 {
			break
		}
		slot := c.readyQ[best]
		c.readyQ[best] = c.readyQ[len(c.readyQ)-1]
		c.readyQ = c.readyQ[:len(c.readyQ)-1]
		e := &c.rob[slot]
		e.state = esIssued
		any = true
		switch e.op.Kind {
		case trace.KInt, trace.KBranch:
			intLeft--
			c.markComplete(slot, e.seq, c.cycle+c.cfg.IntLatency)
		case trace.KFP:
			fpLeft--
			c.markComplete(slot, e.seq, c.cycle+c.cfg.FPLatency)
		case trace.KLoad:
			memLeft--
			c.outstandingLoads++
			c.res.Loads++
			mp.Load(c.cycle, e.op.Addr, e.op.PC, c.loadDone[slot])
		case trace.KStore:
			memLeft--
			c.res.Stores++
			c.markComplete(slot, e.seq, c.cycle+c.cfg.IntLatency)
		}
	}
	return any
}

func (c *refCore) fetch(ops []trace.Op) bool {
	any := false
	for n := 0; n < c.cfg.FetchWidth; n++ {
		if c.fetchIdx >= len(ops) || c.count >= c.cfg.ROBSize ||
			c.haltFetch || c.cycle < c.fetchBlockedUntil {
			break
		}
		op := ops[c.fetchIdx]
		c.fetchIdx++
		slot := (c.head + int32(c.count)) % int32(c.cfg.ROBSize)
		c.count++
		c.nextSeq++
		e := &c.rob[slot]
		*e = refEntry{op: op, seq: c.nextSeq, dependents: e.dependents[:0]}

		for _, src := range [2]uint8{op.Src1, op.Src2} {
			if src == trace.NoReg || src >= trace.NumRegs {
				continue
			}
			lw := c.lastWriter[src]
			if !lw.valid {
				continue
			}
			p := &c.rob[lw.slot]
			if p.seq != lw.seq || p.state == esDone || p.state == esEmpty {
				continue
			}
			p.dependents = append(p.dependents, slot)
			e.pendingSrcs++
		}
		if op.Dst != trace.NoReg && op.Dst < trace.NumRegs {
			c.lastWriter[op.Dst] = refWriter{slot: slot, seq: e.seq, valid: true}
		}
		if e.pendingSrcs == 0 {
			e.state = esReady
			c.readyQ = append(c.readyQ, slot)
		} else {
			e.state = esWaiting
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
