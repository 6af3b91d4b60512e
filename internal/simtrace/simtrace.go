// Package simtrace is a zero-cost-when-disabled, ring-buffered structured
// event tracer for the simulator. Components emit typed, cycle-stamped
// events (cache fills, CDP scans and candidate matches, TLB activity,
// prefetch issues, demand hits on prefetched lines, evictions, ROB
// stalls); every content-directed prefetch carries a chain ID and depth so
// a whole pointer chase can be reconstructed end-to-end and classified
// useful / late / polluting after the run.
//
// The disabled path is a nil *Tracer: Enabled() reports false on a nil
// receiver, so call sites guard every emission with
//
//	if tr.Enabled() {
//		tr.Emit(simtrace.Event{...})
//	}
//
// and pay one pointer compare per site when tracing is off (the tracegate
// simlint analyzer enforces the guard). The enabled path writes into a
// preallocated ring and performs zero heap allocations per event; when the
// ring wraps, the oldest events are overwritten and Dropped() reports how
// many were lost.
package simtrace

// Kind identifies the type of a traced event.
type Kind uint8

const (
	// KindFill: a line arrived in the L2 (Addr = line VA, Addr2 = PA).
	KindFill Kind = iota + 1
	// KindEvict: a valid line left the L2 (Addr = line VA; Arg = 1 when
	// the victim was a prefetched line that was never consumed).
	KindEvict
	// KindScan: the CDP scanned a filled line for pointers (Addr = line
	// VA, Addr2 = trigger VA, Arg = candidates produced).
	KindScan
	// KindCandidate: one candidate pointer matched during a scan
	// (Addr = candidate target VA, Addr2 = the pointer word's VA).
	KindCandidate
	// KindIssue: a prefetch entered the L2 queue (Addr = line VA,
	// Addr2 = PA, Class = bus class).
	KindIssue
	// KindDemandHit: a demand access hit a resident prefetched line.
	KindDemandHit
	// KindPartialHit: a demand access caught its line still in flight
	// behind a prefetch (the prefetch was issued but arrived late).
	KindPartialHit
	// KindRescan: a reinforcement rescan of a hot line was scheduled.
	KindRescan
	// KindTLBHit: a DTLB lookup hit (Addr = VA).
	KindTLBHit
	// KindTLBMiss: a DTLB lookup missed (Addr = VA).
	KindTLBMiss
	// KindWalk: a page walk started (Addr = VA, Arg = 1 when
	// speculative, i.e. on behalf of a prefetch).
	KindWalk
	// KindROBStall: fetch stalled on a full ROB; emitted once at stall
	// end with Arg = stall length in cycles.
	KindROBStall
)

var kindNames = [...]string{
	KindFill:       "fill",
	KindEvict:      "evict",
	KindScan:       "scan",
	KindCandidate:  "candidate",
	KindIssue:      "issue",
	KindDemandHit:  "demand-hit",
	KindPartialHit: "partial-hit",
	KindRescan:     "rescan",
	KindTLBHit:     "tlb-hit",
	KindTLBMiss:    "tlb-miss",
	KindWalk:       "walk",
	KindROBStall:   "rob-stall",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return "unknown"
}

// Comp identifies the component that emitted an event; the Chrome export
// renders one track per component.
type Comp uint8

const (
	CompCore Comp = iota + 1
	CompCache
	CompTLB
	CompBus
	CompCDP
)

var compNames = [...]string{
	CompCore:  "core",
	CompCache: "cache",
	CompTLB:   "tlb",
	CompBus:   "bus",
	CompCDP:   "cdp",
}

func (c Comp) String() string {
	if int(c) < len(compNames) && compNames[c] != "" {
		return compNames[c]
	}
	return "unknown"
}

// Event is one traced occurrence. It is a plain value — emitting one never
// allocates. Addr/Addr2 and Arg are kind-specific (see the Kind
// constants); Chain is nonzero only for events tied to a content-directed
// prefetch chain, and Depth is the chain depth at which the event
// happened.
type Event struct {
	Cycle int64
	Chain uint64
	Arg   uint64
	Addr  uint32
	Addr2 uint32
	Depth int16
	Kind  Kind
	Comp  Comp
	Class uint8 // bus.Class for fills/issues (0 = demand)
}

// Tracer buffers events in a fixed-capacity ring. The zero value is not
// usable; construct with New. A nil *Tracer is the disabled tracer.
type Tracer struct {
	buf []Event
	n   uint64 // total events emitted; buf index is n % cap
	now int64  // cycle stamp for components that do not carry the clock
}

// New returns an enabled tracer whose ring holds capacity events. When the
// ring is full the oldest events are overwritten.
func New(capacity int) *Tracer {
	if capacity < 1 {
		capacity = 1
	}
	return &Tracer{buf: make([]Event, capacity)}
}

// Enabled is the fast-path gate: false on a nil receiver. Every Emit call
// site must be guarded by it so the disabled path costs one comparison
// and zero allocations.
func (t *Tracer) Enabled() bool { return t != nil }

// Emit records an event. Events with Cycle == 0 are stamped with the
// tracer's current cycle (see SetNow), so components that do not carry
// the clock (TLB, prefetcher) can still produce cycle-accurate events.
// Emit sits on every traced µop: the Event must arrive and stay by value
// (one ring-slot copy, zero allocations), which cmd/allocheck enforces on
// the compiler's escape analysis.
//
// simlint:hotpath
func (t *Tracer) Emit(e Event) {
	if e.Cycle == 0 {
		e.Cycle = t.now
	}
	t.buf[t.n%uint64(len(t.buf))] = e
	t.n++
}

// SetNow updates the cycle stamp applied to events emitted without one.
// The memory system calls this wherever it learns the current cycle.
func (t *Tracer) SetNow(cycle int64) { t.now = cycle }

// Now returns the tracer's current cycle stamp.
func (t *Tracer) Now() int64 { return t.now }

// Len reports how many events are resident in the ring.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	if t.n < uint64(len(t.buf)) {
		return int(t.n)
	}
	return len(t.buf)
}

// Dropped reports how many events were overwritten because the ring
// wrapped.
func (t *Tracer) Dropped() uint64 {
	if t == nil || t.n <= uint64(len(t.buf)) {
		return 0
	}
	return t.n - uint64(len(t.buf))
}

// Events returns the resident events oldest-first. The slice is a copy;
// mutating it does not affect the ring.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	out := make([]Event, 0, t.Len())
	cap64 := uint64(len(t.buf))
	start := uint64(0)
	if t.n > cap64 {
		start = t.n - cap64
	}
	for i := start; i < t.n; i++ {
		out = append(out, t.buf[i%cap64])
	}
	return out
}
