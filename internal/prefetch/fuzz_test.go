package prefetch

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"
)

// fuzzEngines builds one fresh instance of every interface-native engine in
// this package, with small geometries so fuzz inputs hit replacement and
// round boundaries quickly.
func fuzzEngines() []Prefetcher {
	return []Prefetcher{
		NewStride(StrideConfig{TableEntries: 8, Degree: 2, Distance: 1}),
		NewPangloss(PanglossConfig{Rows: 16, Slots: 2, Degree: 3, MinConfidence: 2, MaxConfidence: 7}),
		NewBestOffset(BestOffsetConfig{RRSize: 16, RoundMisses: 8, ScoreMax: 4, BadScore: 1, Degree: 2}),
		NewMarkov(MarkovConfig{MaxEntries: 8}),
	}
}

// fuzzDegree mirrors fuzzEngines: each engine's per-event issue ceiling.
var fuzzDegree = []int{2, 3, 2, MarkovFanout}

// FuzzObserveMiss drives every engine over an arbitrary miss stream decoded
// from the fuzz input (each 5 bytes: one PC-selector byte + a 4-byte VA)
// and checks the invariants the simulator and the conformance suite rely
// on, for inputs far outside the structured conformance stream:
//
//   - twin determinism: two identically-configured engines fed the same
//     stream produce identical issues and end in identical MarshalState
//     payloads;
//   - bounded issue: no engine returns more than its degree per event;
//   - state round-trip: an engine restored from MarshalState at an
//     arbitrary split point issues what the original does for the rest of
//     the stream and ends in the original's payload.
func FuzzObserveMiss(f *testing.F) {
	// Constant stride, a tight loop, zero deltas, and a wild pointer chase.
	f.Add([]byte("\x00\x00\x00\x00\x10\x00\x40\x00\x00\x10\x00\x80\x00\x00\x10\x00\xc0\x00\x00\x10"))
	f.Add([]byte("\x01\x00\x10\x00\x20\x01\x40\x12\x00\x20\x01\x00\x10\x00\x20\x01\x40\x12\x00\x20"))
	f.Add([]byte("\x00\xef\xbe\xad\xde\x00\xef\xbe\xad\xde\x00\xef\xbe\xad\xde"))
	f.Add([]byte("\x07\x39\x05\x00\x80\x03\x00\xff\xff\xff\x01\x40\x00\x00\x00"))
	f.Fuzz(func(t *testing.T, data []byte) {
		const rec = 5
		n := len(data) / rec
		if n == 0 {
			return
		}
		if n > 512 {
			n = 512 // bound fuzz cost; 512 events cover many rounds/loops
		}
		evs := make([]Event, n)
		for i := range evs {
			evs[i] = Event{
				PC:          0x4000 + uint32(data[i*rec]%8)*4,
				VA:          binary.LittleEndian.Uint32(data[i*rec+1 : i*rec+5]),
				PriorIssued: data[i*rec]&0x80 != 0,
			}
		}
		split := n / 2

		twins := fuzzEngines()
		for ei, e := range fuzzEngines() {
			twin := twins[ei]
			degree := fuzzDegree[ei]
			var clone Prefetcher
			var buf, twinBuf, cloneBuf []uint32
			for i, ev := range evs {
				buf = e.Observe(ev, buf[:0])
				twinBuf = twin.Observe(ev, twinBuf[:0])
				sameIssues(t, e.Name()+" twins", i, buf, twinBuf)
				if len(buf) > degree {
					t.Fatalf("%s: event %d issued %d, degree bound %d", e.Name(), i, len(buf), degree)
				}
				if clone != nil {
					cloneBuf = clone.Observe(ev, cloneBuf[:0])
					sameIssues(t, e.Name()+" restored clone", i, buf, cloneBuf)
				}
				// At the split point, clone via the state blob; the clone
				// then replays the rest of the stream beside the original.
				if i == split {
					blob, err := e.MarshalState()
					if err != nil {
						t.Fatalf("%s: MarshalState: %v", e.Name(), err)
					}
					if clone, err = cloneOf(e); err != nil {
						t.Fatalf("%s: %v", e.Name(), err)
					}
					if err := clone.UnmarshalState(blob); err != nil {
						t.Fatalf("%s: UnmarshalState: %v", e.Name(), err)
					}
				}
			}
			samePayload(t, e.Name()+" twins", e, twin)
			samePayload(t, e.Name()+" restored clone", e, clone)
		}
	})
}

func sameIssues(t *testing.T, what string, event int, a, b []uint32) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s diverge at event %d: %d vs %d issues", what, event, len(a), len(b))
	}
	for k := range a {
		if a[k] != b[k] {
			t.Fatalf("%s diverge at event %d issue %d: %#x vs %#x", what, event, k, a[k], b[k])
		}
	}
}

func samePayload(t *testing.T, what string, a, b Prefetcher) {
	t.Helper()
	as, aErr := a.MarshalState()
	bs, bErr := b.MarshalState()
	if aErr != nil || bErr != nil {
		t.Fatalf("%s: MarshalState: %v, %v", what, aErr, bErr)
	}
	if !bytes.Equal(as, bs) {
		t.Fatalf("%s end in different state payloads", what)
	}
}

// cloneOf builds a fresh engine with the same configuration, for state
// round-trips.
func cloneOf(e Prefetcher) (Prefetcher, error) {
	switch v := e.(type) {
	case *Stride:
		return NewStride(v.Config()), nil
	case *Pangloss:
		return NewPangloss(v.Config()), nil
	case *BestOffset:
		return NewBestOffset(v.Config()), nil
	case *Markov:
		return NewMarkov(v.Config()), nil
	}
	return nil, fmt.Errorf("no clone constructor for %T", e)
}
