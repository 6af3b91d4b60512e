package prefetch

import (
	"testing"
	"testing/quick"
)

func TestSteadyStreamPredicts(t *testing.T) {
	s := NewStride(StrideConfig{TableEntries: 64, Degree: 2})
	pc := uint32(0x400)
	if got := s.ObserveMiss(pc, 1000); got != nil {
		t.Fatalf("first miss predicted %v", got)
	}
	if got := s.ObserveMiss(pc, 1064); got != nil {
		t.Fatalf("second miss predicted %v", got)
	}
	got := s.ObserveMiss(pc, 1128) // stride 64 confirmed twice
	if len(got) != 2 || got[0] != 1192 || got[1] != 1256 {
		t.Fatalf("steady prediction = %v, want [1192 1256]", got)
	}
}

func TestNegativeStride(t *testing.T) {
	s := NewStride(StrideConfig{TableEntries: 64, Degree: 1})
	pc := uint32(0x404)
	s.ObserveMiss(pc, 5000)
	s.ObserveMiss(pc, 4900)
	got := s.ObserveMiss(pc, 4800)
	if len(got) != 1 || got[0] != 4700 {
		t.Fatalf("negative stride prediction = %v", got)
	}
}

func TestIrregularStreamSilent(t *testing.T) {
	s := NewStride(StrideConfig{TableEntries: 64, Degree: 2})
	pc := uint32(0x408)
	addrs := []uint32{100, 9200, 310, 77000, 1250}
	for _, a := range addrs {
		if got := s.ObserveMiss(pc, a); got != nil {
			t.Fatalf("irregular stream predicted %v at %d", got, a)
		}
	}
}

func TestZeroStrideSilent(t *testing.T) {
	s := NewStride(StrideConfig{TableEntries: 64, Degree: 2})
	pc := uint32(0x40C)
	for i := 0; i < 5; i++ {
		if got := s.ObserveMiss(pc, 2000); got != nil {
			t.Fatalf("zero stride predicted %v", got)
		}
	}
}

func TestSteadyDemotesOnBreak(t *testing.T) {
	s := NewStride(StrideConfig{TableEntries: 64, Degree: 1})
	pc := uint32(0x410)
	s.ObserveMiss(pc, 0)
	s.ObserveMiss(pc, 64)
	if s.ObserveMiss(pc, 128) == nil {
		t.Fatal("stream did not reach steady")
	}
	// Break the pattern: no prediction, demoted to transient.
	if got := s.ObserveMiss(pc, 10_000); got != nil {
		t.Fatalf("broken stream predicted %v", got)
	}
	// New stride must be confirmed before predicting again.
	if got := s.ObserveMiss(pc, 10_064); got != nil {
		t.Fatalf("unconfirmed new stride predicted %v", got)
	}
	if got := s.ObserveMiss(pc, 10_128); got == nil {
		t.Fatal("re-confirmed stride silent")
	}
}

func TestPCConflictReallocates(t *testing.T) {
	s := NewStride(StrideConfig{TableEntries: 4, Degree: 1})
	pcA, pcB := uint32(0), uint32(4) // same slot in a 4-entry table
	s.ObserveMiss(pcA, 0)
	s.ObserveMiss(pcA, 64)
	s.ObserveMiss(pcB, 999) // evicts A's entry
	s.ObserveMiss(pcA, 128)
	if got := s.ObserveMiss(pcA, 192); got != nil {
		t.Fatalf("evicted entry retained state: %v", got)
	}
}

func TestStats(t *testing.T) {
	s := NewStride(DefaultStrideConfig)
	s.ObserveMiss(8, 0)
	s.ObserveMiss(8, 8)
	s.ObserveMiss(8, 16)
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
			got := s.ObserveMiss(pc, a)
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
