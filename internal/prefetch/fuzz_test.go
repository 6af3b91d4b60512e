package prefetch

import (
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
//     stream produce identical issues and counters;
//   - bounded issue: no engine returns more than its degree per event;
//   - counter accounting: Observed advances exactly once per event and
//     Issued by exactly the returned length;
//   - state round-trip: an engine restored from MarshalState at an
//     arbitrary split point replays the tail identically.
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
			var prev Counters
			var buf, twinBuf []uint32
			for i, ev := range evs {
				buf = e.Observe(ev, buf[:0])
				twinBuf = twin.Observe(ev, twinBuf[:0])
				if len(buf) != len(twinBuf) {
					t.Fatalf("%s: twins diverge at event %d: %d vs %d issues", e.Name(), i, len(buf), len(twinBuf))
				}
				for k := range buf {
					if buf[k] != twinBuf[k] {
						t.Fatalf("%s: twins diverge at event %d issue %d: %#x vs %#x", e.Name(), i, k, buf[k], twinBuf[k])
					}
				}
				if len(buf) > degree {
					t.Fatalf("%s: event %d issued %d, degree bound %d", e.Name(), i, len(buf), degree)
				}
				c := e.Counters()
				if c.Observed != prev.Observed+1 {
					t.Fatalf("%s: event %d advanced Observed by %d", e.Name(), i, c.Observed-prev.Observed)
				}
				if c.Issued != prev.Issued+uint64(len(buf)) {
					t.Fatalf("%s: event %d issued %d but Issued advanced %d", e.Name(), i, len(buf), c.Issued-prev.Issued)
				}
				prev = c
				// At the split point, clone via the state blob and check the
				// clone replays the rest of the stream identically.
				if i == split {
					blob, err := e.MarshalState()
					if err != nil {
						t.Fatalf("%s: MarshalState: %v", e.Name(), err)
					}
					clone, cloneErr := cloneOf(e)
					if cloneErr != nil {
						t.Fatalf("%s: %v", e.Name(), cloneErr)
					}
					if err := clone.UnmarshalState(blob); err != nil {
						t.Fatalf("%s: UnmarshalState: %v", e.Name(), err)
					}
					var cb []uint32
					for j := i + 1; j < n; j++ {
						cb = clone.Observe(evs[j], cb[:0])
					}
					defer func(name string, clone Prefetcher) {
						if e.Counters() != clone.Counters() {
							t.Fatalf("%s: restored clone counters %+v, original %+v", name, clone.Counters(), e.Counters())
						}
					}(e.Name(), clone)
				}
			}
		}
	})
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
