//go:build simdebug

package sim

import (
	"fmt"

	"repro/internal/bus"
)

// debugInvariants enables the runtime invariant layer: monotonicity of the
// event heap, consistency of the inflight table with the queue and bus
// occupancy, and the arbiter bounds, asserted on every pump. Violations
// panic with enough context to localise the model bug. Normal builds (no
// -tags simdebug) compile all of this away; see debug_off.go.
const debugInvariants = true

// debugPastSchedule fires when an event is scheduled before the cycle the
// scheduler is currently executing — time travel that release builds merely
// clamp away.
func debugPastSchedule(at, now int64) {
	panic(fmt.Sprintf("sim: event scheduled at cycle %d, in the past of tracked now %d", at, now))
}

// assertMonotone verifies the heap yields events in non-decreasing cycle
// order (a violated comparator or corrupted heap would break determinism
// silently otherwise).
func assertMonotone(at, now int64) {
	if at < now {
		panic(fmt.Sprintf("sim: event heap popped cycle %d after already executing cycle %d", at, now))
	}
}

// checkInvariants asserts the cross-structure consistency of the memory
// system:
//
//   - both arbiters respect their configured bounds;
//   - every queued request is tracked in the inflight table under its own
//     physical line base;
//   - the inflight table contains exactly the queued plus the bus-flying
//     transactions — no leaked and no orphaned entries.
func (ms *MemSystem) checkInvariants(at int64) {
	l2q := ms.l2q.Requests()
	busq := ms.busq.Requests()
	if len(l2q) > ms.cfg.L2QueueSize {
		panic(fmt.Sprintf("sim: L2 queue holds %d requests, capacity %d, at cycle %d",
			len(l2q), ms.cfg.L2QueueSize, at))
	}
	if len(busq) > ms.cfg.BusQueueSize {
		panic(fmt.Sprintf("sim: bus queue holds %d requests, capacity %d, at cycle %d",
			len(busq), ms.cfg.BusQueueSize, at))
	}
	queued := 0
	for _, reqs := range [2][]*bus.Request{l2q, busq} {
		for _, r := range reqs {
			if got, _ := ms.inflight.get(r.PABase); got != r {
				panic(fmt.Sprintf("sim: queued %s request %d (line %#x) not tracked in inflight at cycle %d",
					r.Class, r.ID, r.PABase, at))
			}
			queued++
		}
	}
	if ms.inflight.len() != queued+ms.flying {
		panic(fmt.Sprintf("sim: inflight table holds %d lines but %d are queued and %d flying at cycle %d",
			ms.inflight.len(), queued, ms.flying, at))
	}
}
