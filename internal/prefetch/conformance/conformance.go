// Package conformance is the behavioural contract of the prefetcher zoo:
// a table-driven harness every engine in internal/prefetch/registry must
// pass. The checks encode the properties the simulator's byte-identical-
// counters guarantee rests on — determinism and state round-trips, each
// judged on the issue trace and on the whole MarshalState payload — so a
// new engine gets its correctness scaffolding for free the moment it
// registers. The harness is a library (like internal/lint/linttest), not a
// test file, so engine packages and the registry can both drive it.
package conformance

import (
	"bytes"
	"encoding/binary"
	"testing"

	"repro/internal/prefetch"
)

// rng is splitmix64 — a tiny deterministic generator so streams never
// depend on math/rand's global state or Go-version shuffles.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// lineBytes matches the simulator's line size.
const lineBytes = 64

// Events builds a deterministic synthetic miss stream shaped for one
// engine's declared stream kind. The stream interleaves three phases in
// 64-event blocks so every zoo entrant has something to chew on:
//
//   - strided: one PC walking memory at a constant 3-line stride (trains
//     stride RPTs, delta predictors, and offset learners);
//   - looped: a repeating 16-address tour (trains address-keyed Markov
//     successor tables);
//   - noise: pseudo-random lines (exercises replacement and confirms
//     engines stay deterministic under pressure).
//
// For fill-stream engines each event carries a synthetic 64-byte line
// whose even-valued words live in the trigger's address region, so a
// content scanner with the paper's default 8.4.1.2 heuristic finds
// candidates. Every 7th event sets PriorIssued, exercising precedence
// blocking.
func Events(kind prefetch.Stream, seed uint64, n int) []prefetch.Event {
	r := rng{s: seed}
	evs := make([]prefetch.Event, n)
	loopAddrs := make([]uint32, 16)
	for j := range loopAddrs {
		loopAddrs[j] = 0x2000_0000 + uint32(j)*41*lineBytes
	}
	for i := 0; i < n; i++ {
		var pc, va uint32
		switch (i / 64) % 3 {
		case 0: // strided
			pc = 0x0000_4400
			va = 0x1000_0000 + uint32(i)*3*lineBytes
		case 1: // looped
			pc = 0x0000_4800
			va = loopAddrs[i%len(loopAddrs)]
		default: // noise
			pc = 0x0000_4C00 + uint32(r.next()%8)*4
			va = 0x3000_0000 + uint32(r.next())&0x00FF_FFC0
		}
		ev := prefetch.Event{PC: pc, VA: va, PriorIssued: i%7 == 0}
		switch kind {
		case prefetch.StreamL2:
			ev.VA &^= lineBytes - 1
		case prefetch.StreamFill:
			ev.TrigVA = va
			ev.VA = va &^ (lineBytes - 1)
			ev.Depth = i % 3
			ev.Data = fillLine(&r, va)
		}
		evs[i] = ev
	}
	return evs
}

// fillLine fabricates one cache line containing pointer-shaped words: even
// addresses sharing the trigger's top byte, interleaved with odd junk the
// align heuristic must reject.
func fillLine(r *rng, trigVA uint32) []byte {
	line := make([]byte, lineBytes)
	region := trigVA & 0xFF00_0000
	for w := 0; w < lineBytes/4; w++ {
		var word uint32
		if w%2 == 0 {
			word = region | (uint32(r.next()) & 0x00FF_FFFE)
		} else {
			word = uint32(r.next()) | 1
		}
		binary.LittleEndian.PutUint32(line[w*4:], word)
	}
	return line
}

// replay feeds evs through e, returning the flat issue sequence and the
// per-event issue counts (together they pin both the addresses and their
// grouping).
func replay(e prefetch.Prefetcher, evs []prefetch.Event) (issues []uint32, perEvent []int) {
	var buf []uint32
	perEvent = make([]int, 0, len(evs))
	for _, ev := range evs {
		buf = e.Observe(ev, buf[:0])
		issues = append(issues, buf...)
		perEvent = append(perEvent, len(buf))
	}
	return issues, perEvent
}

func sameTrace(t *testing.T, what string, aIssues, bIssues []uint32, aPer, bPer []int) {
	t.Helper()
	if len(aIssues) != len(bIssues) {
		t.Fatalf("%s: issue counts diverge: %d vs %d", what, len(aIssues), len(bIssues))
	}
	for i := range aIssues {
		if aIssues[i] != bIssues[i] {
			t.Fatalf("%s: issue %d diverges: %#x vs %#x", what, i, aIssues[i], bIssues[i])
		}
	}
	for i := range aPer {
		if aPer[i] != bPer[i] {
			t.Fatalf("%s: event %d issued %d vs %d", what, i, aPer[i], bPer[i])
		}
	}
}

// streamLen is sized to cover several best-offset scoring rounds and
// multiple loop tours per phase.
const streamLen = 4096

// Suite runs the full conformance contract against engines produced by
// factory. factory must return a fresh, identically-configured engine on
// every call; the suite never mutates one engine from two subtests.
func Suite(t *testing.T, factory func() prefetch.Prefetcher) {
	probe := factory()
	if probe.Name() == "" || probe.String() == "" {
		t.Fatalf("engine must have a non-empty Name and String")
	}
	evs := Events(probe.Stream(), 0x5DEECE66D, streamLen)

	t.Run("determinism", func(t *testing.T) {
		a, b := factory(), factory()
		ai, ap := replay(a, evs)
		bi, bp := replay(b, evs)
		sameTrace(t, "twin engines", ai, bi, ap, bp)
		sameState(t, "twin engines", a, b)
		if len(ai) == 0 {
			t.Fatalf("engine issued nothing across %d events — the conformance stream must exercise every entrant", streamLen)
		}
	})

	t.Run("state-roundtrip", func(t *testing.T) {
		half := len(evs) / 2
		orig := factory()
		replay(orig, evs[:half])
		blob, err := orig.MarshalState()
		if err != nil {
			t.Fatalf("MarshalState: %v", err)
		}
		restored := factory()
		if err := restored.UnmarshalState(blob); err != nil {
			t.Fatalf("UnmarshalState: %v", err)
		}
		sameState(t, "restored engine", orig, restored)
		oi, op := replay(orig, evs[half:])
		ri, rp := replay(restored, evs[half:])
		sameTrace(t, "restored engine second half", oi, ri, op, rp)
		sameState(t, "restored engine after the second half", orig, restored)
	})
}

// sameState fails unless a and b marshal to identical payloads: their whole
// mutable state, tables and tallies alike, not only what the issue trace
// shows.
func sameState(t *testing.T, what string, a, b prefetch.Prefetcher) {
	t.Helper()
	as, err := a.MarshalState()
	if err != nil {
		t.Fatalf("%s: MarshalState: %v", what, err)
	}
	bs, err := b.MarshalState()
	if err != nil {
		t.Fatalf("%s: MarshalState: %v", what, err)
	}
	if !bytes.Equal(as, bs) {
		t.Fatalf("%s: state payloads diverge (%d vs %d bytes)", what, len(as), len(bs))
	}
}
