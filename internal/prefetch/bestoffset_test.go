package prefetch

import (
	"testing"
	"testing/quick"
)

func TestBestOffsetLearnsSequentialStream(t *testing.T) {
	cfg := BestOffsetConfig{RRSize: 64, RoundMisses: 64, ScoreMax: 31, BadScore: 2, Degree: 1}
	b := NewBestOffset(cfg)
	va := uint32(0x1000_0000)
	// Learning phase: no issues until a round completes. The RoundMisses-th
	// miss closes the round, selects the winner, and issues for itself.
	for i := 0; i < cfg.RoundMisses-1; i++ {
		if got := b.Observe(Event{VA: va}, nil); len(got) != 0 {
			t.Fatalf("miss %d issued %v before any round completed", i, got)
		}
		va += 64
	}
	// From the round-closing miss onward every miss prefetches the next line.
	for i := 0; i < 8; i++ {
		got := b.Observe(Event{VA: va}, nil)
		if len(got) != 1 || got[0] != va+64 {
			t.Fatalf("miss %d issued %v, want [%#x]", i, got, va+64)
		}
		va += 64
	}
	if b.Current() != 1 {
		t.Fatalf("sequential stream selected offset %d, want 1", b.Current())
	}
}

func TestBestOffsetEarlySaturation(t *testing.T) {
	cfg := BestOffsetConfig{RRSize: 64, RoundMisses: 10_000, ScoreMax: 2, BadScore: 1, Degree: 1}
	b := NewBestOffset(cfg)
	va := uint32(0x2000_0000)
	// ScoreMax 2 ends the round as soon as any offset scores twice, long
	// before RoundMisses.
	for i := 0; i < 3*len(bestOffsetCandidates); i++ {
		b.Observe(Event{VA: va}, nil)
		va += 64
		if b.Current() == 1 {
			return
		}
	}
	t.Fatalf("saturation never selected an offset (current %d)", b.Current())
}

func TestBestOffsetHostileStreamStaysOff(t *testing.T) {
	cfg := BestOffsetConfig{RRSize: 64, RoundMisses: 32, ScoreMax: 31, BadScore: 2, Degree: 1}
	b := NewBestOffset(cfg)
	// Jumps of 1000 lines: no candidate offset (|O| ≤ 16) ever matches,
	// so every round ends winnerless and the engine stays silent.
	va := uint32(0x3000_0000)
	for i := 0; i < 10*cfg.RoundMisses; i++ {
		if got := b.Observe(Event{VA: va}, nil); len(got) != 0 {
			t.Fatalf("hostile stream issued %v at miss %d", got, i)
		}
		va += 1000 * 64
	}
	if b.Current() != 0 {
		t.Fatalf("hostile stream selected offset %d, want prefetch off", b.Current())
	}
}

func TestBestOffsetNegativeOffset(t *testing.T) {
	cfg := BestOffsetConfig{RRSize: 64, RoundMisses: 64, ScoreMax: 31, BadScore: 2, Degree: 1}
	b := NewBestOffset(cfg)
	va := uint32(0x4000_0000)
	for i := 0; i < 2*cfg.RoundMisses; i++ {
		b.Observe(Event{VA: va}, nil)
		va -= 64
	}
	if b.Current() != -1 {
		t.Fatalf("descending stream selected offset %d, want -1", b.Current())
	}
}

// Property: any learned offset projects predictions exactly current*k
// lines ahead, and per-miss issue counts never exceed Degree.
func TestBestOffsetProjectionQuick(t *testing.T) {
	f := func(vas []uint32) bool {
		cfg := BestOffsetConfig{RRSize: 32, RoundMisses: 16, ScoreMax: 8, BadScore: 1, Degree: 2}
		b := NewBestOffset(cfg)
		for _, va := range vas {
			before := b.Current()
			got := b.Observe(Event{VA: va}, nil)
			if len(got) > cfg.Degree {
				return false
			}
			for k, g := range got {
				if g != va+uint32(before*int32(k+1)*64) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
