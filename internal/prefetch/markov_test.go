package prefetch

import (
	"testing"
	"testing/quick"
)

func TestMarkovLearnsTransition(t *testing.T) {
	m := NewMarkov(MarkovConfig{})
	if got := m.ObserveMiss(10, false); got != nil {
		t.Fatalf("untrained prediction %v", got)
	}
	m.ObserveMiss(20, false) // records 10 -> 20
	// Second visit to 10 predicts 20.
	got := m.ObserveMiss(10, false)
	if len(got) != 1 || got[0] != 20 {
		t.Fatalf("prediction = %v, want [20]", got)
	}
}

func TestMarkovFanoutLRUWithinEntry(t *testing.T) {
	m := NewMarkov(MarkovConfig{})
	// Build transitions 1 -> 2, 1 -> 3, 1 -> 4, 1 -> 5, 1 -> 6.
	for _, succ := range []uint32{2, 3, 4, 5, 6} {
		m.ObserveMiss(1, false)
		m.ObserveMiss(succ, false)
	}
	got := m.ObserveMiss(1, false)
	if len(got) != MarkovFanout {
		t.Fatalf("fanout = %d, want %d", len(got), MarkovFanout)
	}
	// MRU-first: 6, 5, 4, 3 (2 evicted).
	want := []uint32{6, 5, 4, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("successors = %v, want %v", got, want)
		}
	}
}

func TestMarkovRepeatTransitionMovesToMRU(t *testing.T) {
	m := NewMarkov(MarkovConfig{})
	for _, succ := range []uint32{2, 3, 4} {
		m.ObserveMiss(1, false)
		m.ObserveMiss(succ, false)
	}
	// Re-observe 1 -> 2: 2 must move to MRU, not duplicate.
	m.ObserveMiss(1, false)
	m.ObserveMiss(2, false)
	got := m.ObserveMiss(1, false)
	want := []uint32{2, 4, 3}
	if len(got) != 3 {
		t.Fatalf("successors = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("successors = %v, want %v", got, want)
		}
	}
}

func TestMarkovStridePrecedenceBlocks(t *testing.T) {
	m := NewMarkov(MarkovConfig{})
	m.ObserveMiss(1, false)
	m.ObserveMiss(2, false)
	if got := m.ObserveMiss(1, true); got != nil {
		t.Fatalf("stride-blocked reference predicted %v", got)
	}
	// Training still happened for the blocked miss (2 -> 1 recorded).
	_, transitions, _ := m.Stats()
	if transitions != 2 {
		t.Fatalf("transitions = %d, want 2", transitions)
	}
}

func TestMarkovEntryBoundLRUEviction(t *testing.T) {
	m := NewMarkov(MarkovConfig{MaxEntries: 2})
	// Create entries for lines 1 and 2.
	m.ObserveMiss(1, false)
	m.ObserveMiss(2, false) // entry 1 created
	m.ObserveMiss(3, false) // entry 2 created
	if m.Entries() != 2 {
		t.Fatalf("entries = %d", m.Entries())
	}
	m.ObserveMiss(4, false) // entry 3 created, entry 1 evicted (LRU)
	if m.Entries() != 2 {
		t.Fatalf("entries = %d after eviction", m.Entries())
	}
	// Entry 1 must be gone: visiting 1 predicts nothing.
	if got := m.ObserveMiss(1, false); got != nil {
		t.Fatalf("evicted entry predicted %v", got)
	}
}

func TestMarkovSelfTransitionIgnored(t *testing.T) {
	m := NewMarkov(MarkovConfig{})
	m.ObserveMiss(5, false)
	m.ObserveMiss(5, false) // repeated miss to the same line
	if got := m.ObserveMiss(5, false); got != nil {
		t.Fatalf("self transition recorded: %v", got)
	}
}

func TestMarkovEntriesForBudget(t *testing.T) {
	// Table 3: 512 KB STAB.
	if n := MarkovEntriesForBudget(512 * 1024); n != 21845 {
		t.Fatalf("512KB = %d entries", n)
	}
	if n := MarkovEntriesForBudget(128 * 1024); n != 5461 {
		t.Fatalf("128KB = %d entries", n)
	}
}

// Property: the table never exceeds its bound, and predictions only ever
// name previously observed miss lines.
func TestMarkovBoundedAndSoundQuick(t *testing.T) {
	f := func(seq []uint8) bool {
		m := NewMarkov(MarkovConfig{MaxEntries: 8})
		seen := map[uint32]bool{}
		for _, s := range seq {
			line := uint32(s % 32)
			preds := m.ObserveMiss(line, false)
			for _, p := range preds {
				if !seen[p] {
					return false
				}
			}
			seen[line] = true
			if m.Entries() > 8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
