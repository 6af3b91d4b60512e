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

// Property: while an offset is active, every miss issues exactly Degree
// predictions, Current()*k lines ahead for k = 1..Degree, and none while
// prefetch is off. Current() is read after Observe, which can close a round
// before it issues. The misses are strided with jitter, so offsets win
// rounds; the test fails if no input ever predicts, so it cannot pass
// without checking a projection.
func TestBestOffsetProjectionQuick(t *testing.T) {
	cfg := BestOffsetConfig{RRSize: 32, RoundMisses: 16, ScoreMax: 8, BadScore: 1, Degree: 2}
	predictions := 0
	f := func(base uint32, stride int8, jitter []uint8) bool {
		b := NewBestOffset(cfg)
		step := int32(stride % 6) // lines, -5..5
		if step == 0 {
			step = 1
		}
		va := base
		for _, j := range jitter {
			// One miss in four skips up to three lines further.
			lines := step
			if j%4 == 0 {
				lines += int32(j>>2) % 4
			}
			va += uint32(lines * bestOffsetLineBytes)
			got := b.Observe(Event{VA: va}, nil)
			cur, want := b.Current(), 0
			if cur != 0 {
				want = cfg.Degree
			}
			if len(got) != want {
				return false
			}
			for k, g := range got {
				if g != va+uint32(cur*int32(k+1)*bestOffsetLineBytes) {
					return false
				}
			}
			predictions += len(got)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
	if predictions == 0 {
		t.Fatal("no input made a prediction: the projection was never checked")
	}
	t.Logf("%d predictions checked", predictions)
}
