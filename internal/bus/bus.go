// Package bus models the memory-request path below the L2: the L2 request
// arbiter, the bus queue, and the front-side bus itself. Table 1's numbers
// are built in as defaults: a 460-processor-cycle round trip (8 bus cycles
// through the chipset plus 55 ns of DRAM at 4 GHz), 4.26 GB/s of bandwidth
// (one 64-byte line occupies the bus for ~60 cycles), a 32-entry bus queue
// and a 128-entry L2 queue.
//
// Arbiters keep the paper's strict priority order — demand requests first,
// stride prefetches over content prefetches (higher accuracy), shallower
// request depths over deeper ones — and implement its overflow rules: a
// full arbiter drops incoming prefetches, and an incoming demand request
// squashes the lowest-priority queued prefetch rather than stalling.
package bus

import (
	"fmt"
	"math/bits"
)

// Class ranks request sources for arbitration.
type Class uint8

const (
	// ClassDemand is a demand fetch (highest priority). Page walks are
	// demand-class: a stalled translation blocks a demand access.
	ClassDemand Class = iota
	// ClassStride is a stride-prefetcher request, favoured over content
	// requests because of its higher accuracy.
	ClassStride
	// ClassContent is a content-directed prefetch.
	ClassContent
	// ClassMarkov is a Markov prefetch (same rank as content).
	ClassMarkov
)

// rank collapses classes to arbitration levels.
func (c Class) rank() int {
	switch c {
	case ClassDemand:
		return 0
	case ClassStride:
		return 1
	default:
		return 2
	}
}

// IsPrefetch reports whether the class is speculative.
func (c Class) IsPrefetch() bool { return c != ClassDemand }

func (c Class) String() string {
	switch c {
	case ClassDemand:
		return "demand"
	case ClassStride:
		return "stride"
	case ClassContent:
		return "content"
	case ClassMarkov:
		return "markov"
	default:
		return fmt.Sprintf("Class(%d)", uint8(c))
	}
}

// Request is one memory transaction below the L2.
type Request struct {
	ID       uint64
	PABase   uint32 // physical line base address
	VABase   uint32 // virtual line base (content scanning context)
	TrigVA   uint32 // effective VA of the triggering access (scan compare)
	Class    Class
	Depth    int  // request depth (0 = non-speculative; never negative)
	PageWalk bool // page-table fill: bypasses the content scanner
	IsStore  bool
	Injected bool // bad-prefetch injection (limit study): never scanned
	Overlap  bool // content prefetch also covered by the stride engine
	// Widened marks a next-/previous-line companion prefetch. Widened
	// fills are not scanned: chaining recurses only through the lines
	// candidate pointers actually name, which keeps the candidate tree
	// from exploding combinatorially (cf. the page-walk bypass).
	Widened bool
	// Chain is the content-prefetch chain this request belongs to (0 for
	// demand, stride and Markov traffic). Deeper prefetches triggered by
	// this request's fill inherit it, so a whole pointer chase shares one
	// ID — the lineage simtrace reconstructs.
	Chain uint64

	Enqueued int64 // cycle the request entered the memory system
	Granted  int64 // cycle the bus transfer began
	Arrive   int64 // cycle the fill returns

	// Waiters are the completions to run when the fill arrives; the
	// demand promotion path appends here when a load catches an in-flight
	// prefetch (a "partial" mask in Figure 10's terms).
	Waiters []Waiter

	// DemandWaited marks that some demand access attached to this
	// request while it was in flight (partial timeliness accounting).
	DemandWaited bool

	// Arbiter links, owned by the arbiter that holds the request: the
	// neighbours in its bucket and the arbiter itself (nil when queued
	// nowhere).
	prev, next *Request
	arb        *Arbiter
	bucket     uint8
}

// Waiter is one completion parked on an in-flight request: a core
// callback, or (when Done is nil) the index of a page-walk record its
// owner resumes.
type Waiter struct {
	Done func(arrive int64)
	Walk int32
}

// Better reports whether r should be granted before o: lower class rank
// first, then shallower depth, then older.
func (r *Request) Better(o *Request) bool {
	if a, b := r.Class.rank(), o.Class.rank(); a != b {
		return a < b
	}
	if r.Depth != o.Depth {
		return r.Depth < o.Depth
	}
	return r.ID < o.ID
}

// Bucket layout: each of the three ranks owns depthLevels consecutive
// buckets, one per depth, the last shared by every deeper request. A bucket
// is a doubly linked list kept in Better order — by ID, and in the shared
// bucket by (depth, ID) — so its head is its best request and its tail its
// worst. Arrival order is not ID order: a promoted prefetch keeps its old
// ID, and the bus queue is fed in priority order.
const (
	ranks       = 3
	depthLevels = 64 / ranks // 21: depths 0–19 alone, 20 and deeper shared
	numBuckets  = ranks * depthLevels

	// demandMask covers rank 0's buckets; every other bucket holds
	// prefetches.
	demandMask = 1<<depthLevels - 1
)

func bucketOf(r *Request) uint8 {
	d := r.Depth
	if d < 0 {
		panic(fmt.Sprintf("bus: request %d has negative depth %d", r.ID, d))
	}
	if d >= depthLevels {
		d = depthLevels - 1
	}
	return uint8(r.Class.rank()*depthLevels + d)
}

// Arbiter is a bounded priority queue of requests. Requests sit in
// (rank, depth) buckets with a 64-bit occupancy mask, so popping the best
// request and squashing the worst prefetch each cost one bit scan and no
// walk over queued requests or empty buckets.
type Arbiter struct {
	name string
	cap  int
	n    int
	mask uint64
	head [numBuckets]*Request
	tail [numBuckets]*Request
}

// NewArbiter builds an arbiter holding at most capacity requests.
func NewArbiter(name string, capacity int) *Arbiter {
	if capacity <= 0 {
		panic("bus: arbiter needs positive capacity")
	}
	return &Arbiter{name: name, cap: capacity}
}

// Len returns the number of queued requests.
func (a *Arbiter) Len() int { return a.n }

// Full reports whether the arbiter has no free slot.
func (a *Arbiter) Full() bool { return a.n >= a.cap }

// Enqueue inserts r, or reports false when full. Per the paper a full
// arbiter simply drops prefetch requests — no retry buffering. Demand
// requests should use EnqueueDemand.
func (a *Arbiter) Enqueue(r *Request) bool {
	if a.Full() {
		return false
	}
	a.insert(r)
	if debugInvariants {
		a.checkBounds()
	}
	return true
}

// EnqueueDemand inserts a demand-class request. If the arbiter is full, the
// lowest-priority queued prefetch is removed (squashed) to make room; the
// squashed request is returned so the caller can account for the drop. A
// demand request is never rejected unless the arbiter is full of demands,
// which the caller treats as back-pressure (ok = false).
func (a *Arbiter) EnqueueDemand(r *Request) (squashed *Request, ok bool) {
	if a.Full() {
		pf := a.mask &^ demandMask
		if pf == 0 {
			return nil, false // all demands: stall
		}
		squashed = a.tail[63-bits.LeadingZeros64(pf)]
		a.remove(squashed)
	}
	a.insert(r)
	if debugInvariants {
		a.checkBounds()
	}
	return squashed, true
}

// PopBest removes and returns the highest-priority request, or nil when
// empty.
func (a *Arbiter) PopBest() *Request {
	if a.mask == 0 {
		return nil
	}
	r := a.head[bits.TrailingZeros64(a.mask)]
	a.remove(r)
	if debugInvariants {
		a.checkBounds()
	}
	return r
}

// Promote turns r into a demand request at depth 0, as a demand access
// that catches an in-flight prefetch does. If r is queued, its arbiter
// re-files it under the new priority; it keeps its ID, and so its age.
func (r *Request) Promote() {
	a := r.arb
	if a != nil {
		a.remove(r)
	}
	r.Class, r.Depth = ClassDemand, 0
	if a != nil {
		a.insert(r)
		if debugInvariants {
			a.checkBounds()
		}
	}
}

// Requests returns the queued requests in grant order, in a fresh slice
// (the simdebug invariant layer's view).
func (a *Arbiter) Requests() []*Request {
	out := make([]*Request, 0, a.n)
	for m := a.mask; m != 0; m &= m - 1 {
		for r := a.head[bits.TrailingZeros64(m)]; r != nil; r = r.next {
			out = append(out, r)
		}
	}
	return out
}

// insert files r in its bucket after the last request that grants before
// it. IDs mostly arrive in increasing order, so the walk back from the tail
// usually stops at once.
func (a *Arbiter) insert(r *Request) {
	b := bucketOf(r)
	after := a.tail[b]
	for after != nil && r.Better(after) {
		after = after.prev
	}
	r.arb, r.bucket, r.prev = a, b, after
	if after == nil {
		r.next = a.head[b]
		a.head[b] = r
	} else {
		r.next = after.next
		after.next = r
	}
	if r.next == nil {
		a.tail[b] = r
	} else {
		r.next.prev = r
	}
	a.mask |= 1 << b
	a.n++
}

// remove unlinks r from its bucket.
func (a *Arbiter) remove(r *Request) {
	b := r.bucket
	if r.prev == nil {
		a.head[b] = r.next
	} else {
		r.prev.next = r.next
	}
	if r.next == nil {
		a.tail[b] = r.prev
	} else {
		r.next.prev = r.prev
	}
	if a.head[b] == nil {
		a.mask &^= 1 << b
	}
	r.prev, r.next, r.arb = nil, nil, nil
	a.n--
}

func (a *Arbiter) String() string {
	return fmt.Sprintf("arbiter{%s %d/%d}", a.name, a.n, a.cap)
}

// Bus models front-side-bus timing: one transfer at a time, each occupying
// the bus for Occupancy cycles and returning its fill Latency cycles after
// the transfer begins.
type Bus struct {
	Latency   int64
	Occupancy int64
	freeAt    int64

	transfers uint64
	busyCycle uint64
}

// DefaultLatency is Table 1's 460-processor-cycle bus round trip.
const DefaultLatency = 460

// DefaultOccupancy is one 64-byte line at 4.26 GB/s on a 4 GHz core:
// 64 / 4.26e9 s ≈ 15 ns ≈ 60 cycles.
const DefaultOccupancy = 60

// NewBus returns a bus with the given timing; zero values select Table 1
// defaults.
func NewBus(latency, occupancy int64) *Bus {
	if latency == 0 {
		latency = DefaultLatency
	}
	if occupancy == 0 {
		occupancy = DefaultOccupancy
	}
	return &Bus{Latency: latency, Occupancy: occupancy}
}

// FreeAt returns the cycle at which the bus can begin its next transfer.
func (b *Bus) FreeAt() int64 { return b.freeAt }

// Idle reports whether the bus could start a transfer at cycle now.
func (b *Bus) Idle(now int64) bool { return now >= b.freeAt }

// Grant starts a transfer at or after cycle now and returns when the
// transfer begins and when the fill arrives.
func (b *Bus) Grant(now int64) (start, arrive int64) {
	start = now
	if b.freeAt > start {
		start = b.freeAt
	}
	b.freeAt = start + b.Occupancy
	b.transfers++
	b.busyCycle += uint64(b.Occupancy)
	return start, start + b.Latency
}

// Stats returns the number of transfers granted and total occupied cycles.
func (b *Bus) Stats() (transfers, busyCycles uint64) { return b.transfers, b.busyCycle }

// State is a checkpointable copy of the bus clock and lifetime counters.
// Arbiter queues are intentionally absent: checkpoints are taken at
// quiesce points, where both arbiters are empty.
type State struct {
	FreeAt     int64
	Transfers  uint64
	BusyCycles uint64
}

// State snapshots the bus.
func (b *Bus) State() State {
	return State{FreeAt: b.freeAt, Transfers: b.transfers, BusyCycles: b.busyCycle}
}

// Restore overwrites the bus clock and counters.
func (b *Bus) Restore(st State) {
	b.freeAt = st.FreeAt
	b.transfers = st.Transfers
	b.busyCycle = st.BusyCycles
}
