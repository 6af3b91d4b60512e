package bus

import (
	"math/rand"
	"testing"
)

// refArbiter is the linear-scan arbiter the bucketed one replaced, kept as
// the property oracle: it holds requests in a plain slice and rescans it
// with Better on every pop and squash.
type refArbiter struct {
	cap int
	q   []*Request
}

func (a *refArbiter) Len() int   { return len(a.q) }
func (a *refArbiter) Full() bool { return len(a.q) >= a.cap }

func (a *refArbiter) Enqueue(r *Request) bool {
	if a.Full() {
		return false
	}
	a.q = append(a.q, r)
	return true
}

func (a *refArbiter) EnqueueDemand(r *Request) (squashed *Request, ok bool) {
	if !a.Full() {
		a.q = append(a.q, r)
		return nil, true
	}
	worst := -1
	for i, q := range a.q {
		if !q.Class.IsPrefetch() {
			continue
		}
		if worst == -1 || a.q[worst].Better(q) {
			worst = i
		}
	}
	if worst == -1 {
		return nil, false
	}
	squashed = a.q[worst]
	a.q[worst] = r
	return squashed, true
}

func (a *refArbiter) PopBest() *Request {
	if len(a.q) == 0 {
		return nil
	}
	best := 0
	for i := 1; i < len(a.q); i++ {
		if a.q[i].Better(a.q[best]) {
			best = i
		}
	}
	r := a.q[best]
	a.q[best] = a.q[len(a.q)-1]
	a.q = a.q[:len(a.q)-1]
	return r
}

// Property: over random streams of Enqueue, EnqueueDemand (with squashes),
// Promote and PopBest on every class and on depths from 0 to past the
// bucket range, the bucketed arbiter returns exactly the oracle's requests
// and agrees on Len and Full after every step. Requests are never shared:
// each side gets its own copy, promoted in step, so only the returned IDs
// are compared.
func TestArbiterMatchesLinearScanOracle(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		capacity := 1 + rng.Intn(40)
		a := NewArbiter("bucketed", capacity)
		ref := &refArbiter{cap: capacity}
		var queued []uint64 // IDs queued in both, for Promote
		mine := map[uint64]*Request{}
		theirs := map[uint64]*Request{}
		nextID := uint64(0)
		// Issue IDs out of order now and then, as a promoted prefetch
		// and the bus queue's priority-ordered feed do.
		newPair := func(class Class) (*Request, *Request) {
			nextID++
			id := nextID * 4
			if rng.Intn(4) == 0 {
				id -= uint64(1 + rng.Intn(3))
			}
			depth := 0
			if class != ClassDemand || rng.Intn(8) == 0 {
				depth = rng.Intn(depthLevels + 6)
			}
			r1 := &Request{ID: id, Class: class, Depth: depth}
			r2 := *r1
			mine[id], theirs[id] = r1, &r2
			return r1, &r2
		}
		dropQueued := func(id uint64) {
			for i, q := range queued {
				if q == id {
					queued = append(queued[:i], queued[i+1:]...)
					return
				}
			}
			t.Fatalf("seed %d: request %d left the arbiter twice", seed, id)
		}
		idOf := func(r *Request) uint64 {
			if r == nil {
				return 0
			}
			return r.ID
		}
		for step := 0; step < 400; step++ {
			switch op := rng.Intn(10); {
			case op < 4:
				r1, r2 := newPair(Class(1 + rng.Intn(3)))
				ok1, ok2 := a.Enqueue(r1), ref.Enqueue(r2)
				if ok1 != ok2 {
					t.Fatalf("seed %d step %d: Enqueue = %v, oracle %v", seed, step, ok1, ok2)
				}
				if ok1 {
					queued = append(queued, r1.ID)
				}
			case op < 6:
				r1, r2 := newPair(ClassDemand)
				sq1, ok1 := a.EnqueueDemand(r1)
				sq2, ok2 := ref.EnqueueDemand(r2)
				if ok1 != ok2 || idOf(sq1) != idOf(sq2) {
					t.Fatalf("seed %d step %d: EnqueueDemand = (%d, %v), oracle (%d, %v)",
						seed, step, idOf(sq1), ok1, idOf(sq2), ok2)
				}
				if ok1 {
					queued = append(queued, r1.ID)
				}
				if sq1 != nil {
					dropQueued(sq1.ID)
				}
			case op < 7:
				if len(queued) == 0 {
					continue
				}
				id := queued[rng.Intn(len(queued))]
				mine[id].Promote()
				theirs[id].Class, theirs[id].Depth = ClassDemand, 0
			default:
				r1, r2 := a.PopBest(), ref.PopBest()
				if idOf(r1) != idOf(r2) {
					t.Fatalf("seed %d step %d: PopBest = %d, oracle %d", seed, step, idOf(r1), idOf(r2))
				}
				if r1 != nil {
					dropQueued(r1.ID)
					// A request that left the arbiter is only relabelled.
					if rng.Intn(4) == 0 {
						r1.Promote()
					}
				}
			}
			if a.Len() != ref.Len() || a.Full() != ref.Full() {
				t.Fatalf("seed %d step %d: Len/Full = %d/%v, oracle %d/%v",
					seed, step, a.Len(), a.Full(), ref.Len(), ref.Full())
			}
		}
		for r := ref.PopBest(); r != nil; r = ref.PopBest() {
			if got := a.PopBest(); idOf(got) != r.ID {
				t.Fatalf("seed %d drain: PopBest = %d, oracle %d", seed, idOf(got), r.ID)
			}
		}
		if a.PopBest() != nil || a.Len() != 0 {
			t.Fatalf("seed %d: bucketed arbiter not empty after the oracle drained", seed)
		}
	}
}
