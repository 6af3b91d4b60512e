package prefetch

import (
	"testing"
	"testing/quick"
)

func TestSteadyStreamPredicts(t *testing.T) {
	s := NewStride(StrideConfig{TableEntries: 64, Degree: 2})
	pc := uint32(0x400)
	if got := s.Observe(Event{PC: pc, VA: 1000}, nil); got != nil {
		t.Fatalf("first miss predicted %v", got)
	}
	if got := s.Observe(Event{PC: pc, VA: 1064}, nil); got != nil {
		t.Fatalf("second miss predicted %v", got)
	}
	got := s.Observe(Event{PC: pc, VA: 1128}, nil) // stride 64 confirmed twice
	if len(got) != 2 || got[0] != 1192 || got[1] != 1256 {
		t.Fatalf("steady prediction = %v, want [1192 1256]", got)
	}
}

func TestNegativeStride(t *testing.T) {
	s := NewStride(StrideConfig{TableEntries: 64, Degree: 1})
	pc := uint32(0x404)
	s.Observe(Event{PC: pc, VA: 5000}, nil)
	s.Observe(Event{PC: pc, VA: 4900}, nil)
	got := s.Observe(Event{PC: pc, VA: 4800}, nil)
	if len(got) != 1 || got[0] != 4700 {
		t.Fatalf("negative stride prediction = %v", got)
	}
}

func TestIrregularStreamSilent(t *testing.T) {
	s := NewStride(StrideConfig{TableEntries: 64, Degree: 2})
	pc := uint32(0x408)
	addrs := []uint32{100, 9200, 310, 77000, 1250}
	for _, a := range addrs {
		if got := s.Observe(Event{PC: pc, VA: a}, nil); got != nil {
			t.Fatalf("irregular stream predicted %v at %d", got, a)
		}
	}
}

func TestZeroStrideSilent(t *testing.T) {
	s := NewStride(StrideConfig{TableEntries: 64, Degree: 2})
	pc := uint32(0x40C)
	for i := 0; i < 5; i++ {
		if got := s.Observe(Event{PC: pc, VA: 2000}, nil); got != nil {
			t.Fatalf("zero stride predicted %v", got)
		}
	}
}

func TestSteadyDemotesOnBreak(t *testing.T) {
	s := NewStride(StrideConfig{TableEntries: 64, Degree: 1})
	pc := uint32(0x410)
	s.Observe(Event{PC: pc, VA: 0}, nil)
	s.Observe(Event{PC: pc, VA: 64}, nil)
	if s.Observe(Event{PC: pc, VA: 128}, nil) == nil {
		t.Fatal("stream did not reach steady")
	}
	// Break the pattern: no prediction, demoted to transient.
	if got := s.Observe(Event{PC: pc, VA: 10_000}, nil); got != nil {
		t.Fatalf("broken stream predicted %v", got)
	}
	// New stride must be confirmed before predicting again.
	if got := s.Observe(Event{PC: pc, VA: 10_064}, nil); got != nil {
		t.Fatalf("unconfirmed new stride predicted %v", got)
	}
	if got := s.Observe(Event{PC: pc, VA: 10_128}, nil); got == nil {
		t.Fatal("re-confirmed stride silent")
	}
}

func TestPCConflictReallocates(t *testing.T) {
	s := NewStride(StrideConfig{TableEntries: 4, Degree: 1})
	pcA, pcB := uint32(0), uint32(4) // same slot in a 4-entry table
	s.Observe(Event{PC: pcA, VA: 0}, nil)
	s.Observe(Event{PC: pcA, VA: 64}, nil)
	s.Observe(Event{PC: pcB, VA: 999}, nil) // evicts A's entry
	s.Observe(Event{PC: pcA, VA: 128}, nil)
	if got := s.Observe(Event{PC: pcA, VA: 192}, nil); got != nil {
		t.Fatalf("evicted entry retained state: %v", got)
	}
}

func TestStats(t *testing.T) {
	s := NewStride(DefaultStrideConfig)
	s.Observe(Event{PC: 8, VA: 0}, nil)
	s.Observe(Event{PC: 8, VA: 8}, nil)
	s.Observe(Event{PC: 8, VA: 16}, nil)
	obs, pred := s.Stats()
	if obs != 3 || pred != 2 {
		t.Fatalf("stats = %d/%d", obs, pred)
	}
}

// Property: predictions, when made, always continue the observed
// arithmetic progression.
func TestPredictionsFollowStrideQuick(t *testing.T) {
	f := func(pc, start uint32, strideSeed uint8) bool {
		stride := uint32(strideSeed%100) + 1
		s := NewStride(StrideConfig{TableEntries: 128, Degree: 2})
		a := start
		for i := 0; i < 6; i++ {
			got := s.Observe(Event{PC: pc, VA: a}, nil)
			for k, g := range got {
				if g != a+stride*uint32(k+1) {
					return false
				}
			}
			if i >= 2 && len(got) == 0 {
				return false // steady stream must predict from 3rd access
			}
			a += stride
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
