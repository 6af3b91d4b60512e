package prefetch

import (
	"testing"
	"testing/quick"
)

func TestPanglossConstantStridePredicts(t *testing.T) {
	p := NewPangloss(DefaultPanglossConfig)
	const d = 4 * 64 // four lines
	// miss 0: primes lastVA; miss 1: primes lastDelta; miss 2 trains
	// d→d to confidence 1; miss 3 reaches MinConfidence (2).
	for i := 0; i < 3; i++ {
		if got := p.Observe(Event{VA: uint32(i) * d}, nil); len(got) != 0 {
			t.Fatalf("miss %d predicted %v before confidence built", i, got)
		}
	}
	got := p.Observe(Event{VA: 3 * d}, nil)
	if len(got) != DefaultPanglossConfig.Degree {
		t.Fatalf("confident stride predicted %v, want %d chained lines", got, DefaultPanglossConfig.Degree)
	}
	for k, g := range got {
		want := uint32(3*d + (k+1)*d)
		if g != want {
			t.Fatalf("chain[%d] = %#x, want %#x", k, g, want)
		}
	}
}

func TestPanglossAlternatingDeltas(t *testing.T) {
	p := NewPangloss(PanglossConfig{Rows: 64, Slots: 4, Degree: 2, MinConfidence: 2, MaxConfidence: 15})
	const a, b = 3 * 64, 11 * 64
	va := uint32(0x1000)
	var last []uint32
	// +a, +b, +a, +b, ... trains a→b and b→a.
	for i := 0; i < 12; i++ {
		if i%2 == 0 {
			va += a
		} else {
			va += b
		}
		last = p.Observe(Event{VA: va}, nil)
	}
	// After 12 misses the last delta was +b; the chain predicts +a then +b.
	if len(last) != 2 || last[0] != va+a || last[1] != va+a+b {
		t.Fatalf("alternating chain = %#x, want [%#x %#x]", last, va+a, va+a+b)
	}
}

func TestPanglossZeroDeltaSilent(t *testing.T) {
	p := NewPangloss(DefaultPanglossConfig)
	for i := 0; i < 8; i++ {
		if got := p.Observe(Event{VA: 0x4000}, nil); len(got) != 0 {
			t.Fatalf("repeated identical miss predicted %v", got)
		}
	}
}

func TestPanglossRestoreGeometryMismatch(t *testing.T) {
	small := NewPangloss(PanglossConfig{Rows: 64, Slots: 2, Degree: 1, MinConfidence: 1, MaxConfidence: 3})
	blob, err := small.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	big := NewPangloss(DefaultPanglossConfig)
	if err := big.UnmarshalState(blob); err == nil {
		t.Fatal("restore across geometries must fail")
	}
}

// Property: on a constant-stride stream, every prediction continues the
// arithmetic progression — the delta chain must degenerate into a stride
// prefetcher (mirrors TestPredictionsFollowStrideQuick).
func TestPanglossFollowsStrideQuick(t *testing.T) {
	f := func(start uint32, strideSeed uint8) bool {
		stride := (uint32(strideSeed%200) + 1) * 2 // non-zero, even
		p := NewPangloss(DefaultPanglossConfig)
		a := start
		for i := 0; i < 8; i++ {
			got := p.Observe(Event{VA: a}, nil)
			for k, g := range got {
				if g != a+stride*uint32(k+1) {
					return false
				}
			}
			if i >= 3 && len(got) != DefaultPanglossConfig.Degree {
				return false // confident stream must chain-predict from the 4th miss
			}
			a += stride
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: the issue count per miss never exceeds Degree.
func TestPanglossBoundedIssueQuick(t *testing.T) {
	f := func(vas []uint32) bool {
		p := NewPangloss(DefaultPanglossConfig)
		for _, va := range vas {
			if got := p.Observe(Event{VA: va}, nil); len(got) > DefaultPanglossConfig.Degree {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
