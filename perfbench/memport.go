package main

import (
	"fmt"
	"time"

	"repro/internal/cpu"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// sampleEvery is the traced run's timing stride: one in this many Tick
// calls, and one in this many Load/Store calls, is timed. Timing every
// call nearly doubles a run; one in 64 keeps the overhead to a few per cent.
const sampleEvery = 64

// portStats is what the MemPort wrapper measured over one or more sims.
// Counts are exact; the *Ns fields are sums over the timed samples only.
type portStats struct {
	tickCalls, accessCalls, nextEventCalls uint64
	tickSamples, accessSamples             uint64
	tickNs, accessNs                       int64
	// doneNs is time spent in completion callbacks that ran inside a timed
	// call. Completion work belongs to the core, so it is taken out of the
	// sampled memory-system time.
	doneNs int64
	// coreNs is the wall time of (*cpu.Core).Run.
	coreNs int64
}

func (s *portStats) add(o portStats) {
	s.tickCalls += o.tickCalls
	s.accessCalls += o.accessCalls
	s.nextEventCalls += o.nextEventCalls
	s.tickSamples += o.tickSamples
	s.accessSamples += o.accessSamples
	s.tickNs += o.tickNs
	s.accessNs += o.accessNs
	s.doneNs += o.doneNs
	s.coreNs += o.coreNs
}

// estimates scales the sampled times to all calls: memory-system time in
// Tick and in Load+Store, and the core's own time, all in nanoseconds.
func (s *portStats) estimates() (tickNs, accessNs, cpuSelfNs float64) {
	if s.tickSamples > 0 {
		tickNs = float64(s.tickNs) * float64(s.tickCalls) / float64(s.tickSamples)
	}
	if s.accessSamples > 0 {
		accessNs = float64(s.accessNs) * float64(s.accessCalls) / float64(s.accessSamples)
	}
	return tickNs, accessNs, float64(s.coreNs) - tickNs - accessNs
}

// tracedPort is a cpu.MemPort that forwards to a sim.MemSystem, counting
// every call and timing a sample of them. It also wraps each completion
// callback so that completion work done inside a timed call is charged to
// the core rather than to the memory system.
type tracedPort struct {
	ms    *sim.MemSystem
	stats portStats

	// inSample is set while a timed call runs; doneInSample accumulates
	// the completion time inside it.
	inSample     bool
	doneInSample int64

	// free recycles completion wrappers: every callback fires exactly once,
	// so a wrapper returns here when it fires and the steady state
	// allocates nothing.
	free []*doneWrap
}

type doneWrap struct {
	p    *tracedPort
	done func(int64)
	fn   func(int64) // w.fire, bound once
}

func (w *doneWrap) fire(at int64) {
	done, p := w.done, w.p
	w.done = nil
	p.free = append(p.free, w)
	if !p.inSample {
		done(at)
		return
	}
	start := time.Now()
	done(at)
	p.doneInSample += time.Since(start).Nanoseconds()
}

func (p *tracedPort) wrap(done func(int64)) func(int64) {
	var w *doneWrap
	if n := len(p.free); n > 0 {
		w = p.free[n-1]
		p.free = p.free[:n-1]
	} else {
		w = &doneWrap{p: p}
		w.fn = w.fire
	}
	w.done = done
	return w.fn
}

// timed runs f as a timed sample and returns its memory-system time.
func (p *tracedPort) timed(f func()) int64 {
	p.inSample, p.doneInSample = true, 0
	start := time.Now()
	f()
	d := time.Since(start).Nanoseconds() - p.doneInSample
	p.stats.doneNs += p.doneInSample
	p.inSample = false
	return d
}

func (p *tracedPort) Tick(cycle int64) {
	p.stats.tickCalls++
	if p.stats.tickCalls%sampleEvery != 0 {
		p.ms.Tick(cycle)
		return
	}
	p.stats.tickSamples++
	p.stats.tickNs += p.timed(func() { p.ms.Tick(cycle) })
}

func (p *tracedPort) NextEvent() int64 {
	p.stats.nextEventCalls++
	return p.ms.NextEvent()
}

func (p *tracedPort) Load(cycle int64, va, pc uint32, done func(int64)) {
	p.access(false, cycle, va, pc, done)
}

func (p *tracedPort) Store(cycle int64, va, pc uint32, done func(int64)) {
	p.access(true, cycle, va, pc, done)
}

func (p *tracedPort) access(store bool, cycle int64, va, pc uint32, done func(int64)) {
	p.stats.accessCalls++
	wrapped := p.wrap(done)
	call := func() {
		if store {
			p.ms.Store(cycle, va, pc, wrapped)
		} else {
			p.ms.Load(cycle, va, pc, wrapped)
		}
	}
	if p.stats.accessCalls%sampleEvery != 0 {
		call()
		return
	}
	p.stats.accessSamples++
	p.stats.accessNs += p.timed(call)
}

// portedRun is one simulation assembled from the public pieces sim.Run
// uses, with the core driving a tracedPort.
type portedRun struct {
	core     cpu.Result
	counters *stats.Counters
	ms       *sim.MemSystem
	// start, built and done bound the construction and (*cpu.Core).Run.
	start, built, done time.Time
	port               portStats
}

// runPorted replays sim.RunTraced's assembly (memory system, core,
// warm-up boundary, result counters) with the MemPort wrapper in between.
// Its cycles, retired µops and counters must equal sim.Run's.
func runPorted(ck *trace.Checkpoint, cfg sim.Config) (*portedRun, error) {
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("invalid machine %s: %w", cfg.Name, err)
	}
	start := time.Now()
	st := &stats.Counters{}
	mptu := stats.NewMPTUSeries(cfg.MPTUBucketOps)
	ms := sim.NewMemSystem(&cfg, ck.Space, st, mptu)
	c := cpu.New(cfg.Core, st)
	built := time.Now()

	var warmCycle int64
	if cfg.WarmupOps > 0 {
		c.OnRetire = func(retired uint64, cycle int64) {
			if retired >= cfg.WarmupOps {
				warmCycle = cycle
				st.Reset(cycle)
				c.OnRetire = nil
			}
		}
	}
	port := &tracedPort{ms: ms}
	runStart := time.Now()
	res := c.Run(ck.Trace, port, cfg.MaxOps)
	done := time.Now()
	port.stats.coreNs = done.Sub(runStart).Nanoseconds()
	st.Cycles = res.Cycles
	st.WarmCycles = warmCycle
	st.TLBHits, st.TLBMisses = ms.TLBStats()
	return &portedRun{core: res, counters: st, ms: ms, start: start, built: built, done: done, port: port.stats}, nil
}

// construct times only the memory-system and core construction of one
// simulation.
func construct(ck *trace.Checkpoint, cfg sim.Config) time.Duration {
	start := time.Now()
	st := &stats.Counters{}
	sim.NewMemSystem(&cfg, ck.Space, st, stats.NewMPTUSeries(cfg.MPTUBucketOps))
	cpu.New(cfg.Core, st)
	return time.Since(start)
}
