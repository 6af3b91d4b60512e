package bus

import (
	"testing"
	"testing/quick"
)

func req(id uint64, class Class, depth int) *Request {
	return &Request{ID: id, Class: class, Depth: depth, PABase: uint32(id) << 6}
}

func TestPriorityOrdering(t *testing.T) {
	a := NewArbiter("test", 16)
	a.Enqueue(req(1, ClassContent, 3))
	a.Enqueue(req(2, ClassStride, 1))
	a.Enqueue(req(3, ClassDemand, 0))
	a.Enqueue(req(4, ClassContent, 1))
	a.Enqueue(req(5, ClassMarkov, 1))

	order := []uint64{}
	for r := a.PopBest(); r != nil; r = a.PopBest() {
		order = append(order, r.ID)
	}
	// demand, stride, then content/markov by depth then age.
	want := []uint64{3, 2, 4, 5, 1}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("pop order = %v, want %v", order, want)
		}
	}
}

func TestDepthOrdersWithinClass(t *testing.T) {
	a := NewArbiter("test", 8)
	a.Enqueue(req(1, ClassContent, 3))
	a.Enqueue(req(2, ClassContent, 0))
	a.Enqueue(req(3, ClassContent, 2))
	if got := a.PopBest().ID; got != 2 {
		t.Fatalf("first pop = %d, want 2 (shallowest)", got)
	}
	if got := a.PopBest().ID; got != 3 {
		t.Fatalf("second pop = %d, want 3", got)
	}
}

func TestEnqueueDropsWhenFull(t *testing.T) {
	a := NewArbiter("test", 2)
	if !a.Enqueue(req(1, ClassContent, 1)) || !a.Enqueue(req(2, ClassContent, 1)) {
		t.Fatal("enqueue failed below capacity")
	}
	if a.Enqueue(req(3, ClassContent, 1)) {
		t.Fatal("enqueue succeeded when full")
	}
	if a.Len() != 2 {
		t.Fatalf("len = %d", a.Len())
	}
}

func TestDemandSquashesLowestPrefetch(t *testing.T) {
	a := NewArbiter("test", 3)
	a.Enqueue(req(1, ClassStride, 0))
	a.Enqueue(req(2, ClassContent, 1))
	a.Enqueue(req(3, ClassContent, 3)) // lowest priority
	squashed, ok := a.EnqueueDemand(req(4, ClassDemand, 0))
	if !ok {
		t.Fatal("demand rejected")
	}
	if squashed == nil || squashed.ID != 3 {
		t.Fatalf("squashed = %+v, want ID 3", squashed)
	}
	if a.Len() != 3 {
		t.Fatalf("len = %d", a.Len())
	}
	if got := a.PopBest().ID; got != 4 {
		t.Fatalf("best = %d, want the demand", got)
	}
}

func TestDemandStallsWhenAllDemand(t *testing.T) {
	a := NewArbiter("test", 2)
	a.EnqueueDemand(req(1, ClassDemand, 0))
	a.EnqueueDemand(req(2, ClassDemand, 0))
	if _, ok := a.EnqueueDemand(req(3, ClassDemand, 0)); ok {
		t.Fatal("demand accepted into a full all-demand arbiter")
	}
}

func TestBusTiming(t *testing.T) {
	b := NewBus(0, 0)
	if b.Latency != DefaultLatency || b.Occupancy != DefaultOccupancy {
		t.Fatalf("defaults = %d/%d", b.Latency, b.Occupancy)
	}
	s1, a1 := b.Grant(100)
	if s1 != 100 || a1 != 560 {
		t.Fatalf("first grant = %d/%d", s1, a1)
	}
	// Second transfer must wait for occupancy, not full latency.
	s2, a2 := b.Grant(100)
	if s2 != 160 || a2 != 620 {
		t.Fatalf("second grant = %d/%d, want 160/620", s2, a2)
	}
	if !b.Idle(220) || b.Idle(219) {
		t.Fatalf("idle boundary wrong: freeAt=%d", b.FreeAt())
	}
	if tr, busy := b.Stats(); tr != 2 || busy != 120 {
		t.Fatalf("stats = %d/%d", tr, busy)
	}
}

func TestBusGrantAfterIdleGap(t *testing.T) {
	b := NewBus(460, 60)
	b.Grant(0)
	s, _ := b.Grant(1000) // long idle gap: starts immediately
	if s != 1000 {
		t.Fatalf("start = %d, want 1000", s)
	}
}

// Property: PopBest drains exactly what was enqueued, in non-increasing
// priority order.
func TestArbiterDrainQuick(t *testing.T) {
	f := func(seeds []uint8) bool {
		a := NewArbiter("q", 64)
		n := 0
		for i, s := range seeds {
			if n >= 64 {
				break
			}
			r := req(uint64(i), Class(s%4), int(s%5))
			if a.Enqueue(r) {
				n++
			}
		}
		var prev *Request
		for i := 0; i < n; i++ {
			r := a.PopBest()
			if r == nil {
				return false
			}
			if prev != nil && r.Better(prev) {
				return false // priority inversion
			}
			prev = r
		}
		return a.PopBest() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
