// Markov STAB: the 1-history Markov prefetcher of Joseph & Grunwald (ISCA
// 1997) as configured in Section 5 of the paper — a State Transition Table
// (STAB) with a fan-out of four successors per miss address, LRU-managed
// both across entries and within each entry's successor list. It is the
// stateful, training-bound comparator against which the stateless content
// prefetcher is evaluated (Table 3, Figure 11).
//
// The STAB observes the L2 demand-miss stream at cache-line granularity.
// On a miss to line M it (a) records M as a successor of the previous miss
// and (b) predicts the recorded successors of M as prefetches. Per the
// paper, the stride prefetcher is given precedence: if the stride engine
// issued for the triggering reference, the Markov prefetcher is blocked
// from issuing, reducing redundant prefetches.
package prefetch

import (
	"bytes"
	"container/list"
	"encoding/gob"
	"fmt"
)

// MarkovFanout is the number of successor slots per STAB entry (the
// paper's configuration).
const MarkovFanout = 4

// MarkovEntryBytes is the modelled hardware cost of one STAB entry, used
// to convert the paper's byte budgets into entry counts: a 4-byte tag, four
// 4-byte successors, and ~4 bytes of valid/LRU state.
const MarkovEntryBytes = 24

// MarkovEntriesForBudget converts a STAB byte budget (e.g. 512 KiB) to
// entries.
func MarkovEntriesForBudget(bytes int) int { return bytes / MarkovEntryBytes }

// MarkovConfig sizes the STAB.
type MarkovConfig struct {
	// MaxEntries bounds the table; 0 means unbounded (the paper's
	// markov_big upper-limit configuration).
	MaxEntries int
}

// Validate checks the table bound; NewMarkov panics on what this rejects.
func (c MarkovConfig) Validate() error {
	if c.MaxEntries < 0 {
		return fmt.Errorf("markov: negative entry bound %d", c.MaxEntries)
	}
	return nil
}

type markovEntry struct {
	line uint32
	succ []uint32 // MRU-first, at most MarkovFanout
	elem *list.Element
}

// Markov is the STAB prefetcher.
type Markov struct {
	cfg      MarkovConfig
	table    map[uint32]*markovEntry
	lru      *list.List // front = MRU entries
	lastMiss uint32
	haveLast bool

	observed   uint64
	predicted  uint64
	transition uint64
}

// NewMarkov builds a Markov prefetcher.
func NewMarkov(cfg MarkovConfig) *Markov {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Markov{cfg: cfg, table: make(map[uint32]*markovEntry), lru: list.New()}
}

var _ Prefetcher = (*Markov)(nil)

// Name is the engine's registry name.
func (m *Markov) Name() string { return "markov" }

// Stream: the STAB observes the L2 demand-miss stream (Section 5).
func (m *Markov) Stream() Stream { return StreamL2 }

// Translate: the STAB is modelled post-translation; predictions consult
// the page map directly.
func (m *Markov) Translate() TranslateVia { return TranslateDirect }

// Config returns the table bound.
func (m *Markov) Config() MarkovConfig { return m.cfg }

// Entries reports the current table population.
func (m *Markov) Entries() int { return len(m.table) }

func (m *Markov) touch(e *markovEntry) {
	m.lru.MoveToFront(e.elem)
}

func (m *Markov) get(line uint32, create bool) *markovEntry {
	if e, ok := m.table[line]; ok {
		m.touch(e)
		return e
	}
	if !create {
		return nil
	}
	if m.cfg.MaxEntries > 0 && len(m.table) >= m.cfg.MaxEntries {
		victim := m.lru.Back()
		ve := victim.Value.(*markovEntry)
		m.lru.Remove(victim)
		delete(m.table, ve.line)
	}
	e := &markovEntry{line: line}
	e.elem = m.lru.PushFront(e)
	m.table[line] = e
	return e
}

// Observe trains on one L2 demand miss event (ev.VA is the line address)
// and appends the predicted successor lines to dst. ev.PriorIssued carries
// the paper's stride-takes-precedence rule (the sequential stride-then-
// Markov access of Section 5): a reference the stride engine already
// covered records its transition but predicts nothing.
func (m *Markov) Observe(ev Event, dst []uint32) []uint32 {
	line := ev.VA
	m.observed++
	// Record the transition lastMiss -> line.
	if m.haveLast && m.lastMiss != line {
		e := m.get(m.lastMiss, true)
		inserted := false
		for i, s := range e.succ {
			if s == line { // move to MRU position within the entry
				copy(e.succ[1:i+1], e.succ[:i])
				e.succ[0] = line
				inserted = true
				break
			}
		}
		if !inserted {
			if len(e.succ) < MarkovFanout {
				e.succ = append(e.succ, 0)
			}
			copy(e.succ[1:], e.succ[:len(e.succ)-1])
			e.succ[0] = line
		}
		m.transition++
	}
	m.lastMiss = line
	m.haveLast = true

	if ev.PriorIssued {
		return dst
	}
	e := m.get(line, false)
	if e == nil || len(e.succ) == 0 {
		return dst
	}
	dst = append(dst, e.succ...)
	m.predicted += uint64(len(e.succ))
	return dst
}

// Stats returns misses observed, transitions recorded and prefetch lines
// predicted.
func (m *Markov) Stats() (observed, transitions, predicted uint64) {
	return m.observed, m.transition, m.predicted
}

func (m *Markov) String() string {
	bound := "unbounded"
	if m.cfg.MaxEntries > 0 {
		bound = fmt.Sprintf("%d entries", m.cfg.MaxEntries)
	}
	return fmt.Sprintf("markov{STAB %s, fanout %d}", bound, MarkovFanout)
}

// markovEntryState is one STAB entry in a markovState, MRU-first in the
// state's Entries slice so the cross-entry LRU order restores exactly.
type markovEntryState struct {
	Line uint32
	Succ []uint32
}

// markovState is the gob payload of MarshalState: a deep copy of the STAB.
type markovState struct {
	Entries     []markovEntryState // MRU-first
	LastMiss    uint32
	HaveLast    bool
	Observed    uint64
	Transitions uint64
	Predicted   uint64
}

// state snapshots the STAB, preserving both the cross-entry LRU order and
// each entry's MRU-first successor order.
func (m *Markov) state() markovState {
	st := markovState{
		LastMiss: m.lastMiss, HaveLast: m.haveLast,
		Observed: m.observed, Transitions: m.transition, Predicted: m.predicted,
	}
	for el := m.lru.Front(); el != nil; el = el.Next() {
		e := el.Value.(*markovEntry)
		st.Entries = append(st.Entries, markovEntryState{Line: e.line, Succ: append([]uint32(nil), e.succ...)})
	}
	return st
}

// restore overwrites the STAB with a previously captured state.
func (m *Markov) restore(st markovState) error {
	if m.cfg.MaxEntries > 0 && len(st.Entries) > m.cfg.MaxEntries {
		return fmt.Errorf("markov: state has %d entries, table bound is %d", len(st.Entries), m.cfg.MaxEntries)
	}
	m.table = make(map[uint32]*markovEntry, len(st.Entries))
	m.lru = list.New()
	for _, es := range st.Entries {
		if len(es.Succ) > MarkovFanout {
			return fmt.Errorf("markov: entry %#x has %d successors, fanout is %d", es.Line, len(es.Succ), MarkovFanout)
		}
		if _, dup := m.table[es.Line]; dup {
			return fmt.Errorf("markov: duplicate entry %#x in state", es.Line)
		}
		e := &markovEntry{line: es.Line, succ: append([]uint32(nil), es.Succ...)}
		e.elem = m.lru.PushBack(e) // Entries is MRU-first; appending keeps the order
		m.table[es.Line] = e
	}
	m.lastMiss, m.haveLast = st.LastMiss, st.HaveLast
	m.observed, m.transition, m.predicted = st.Observed, st.Transitions, st.Predicted
	return nil
}

// MarshalState serialises the STAB for checkpointing.
func (m *Markov) MarshalState() ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(m.state()); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// UnmarshalState restores a MarshalState payload into a same-bound engine.
func (m *Markov) UnmarshalState(data []byte) error {
	var st markovState
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&st); err != nil {
		return err
	}
	return m.restore(st)
}
