// Package prefetch defines the hardware stride prefetcher that is part of
// the paper's *baseline* machine. Every speedup the paper (and this
// reproduction) reports is measured relative to a model that already has a
// stride prefetcher, so that the content prefetcher's contribution is not
// inflated by references a conventional prefetcher would have covered.
//
// The implementation is a classic reference-prediction table: entries are
// indexed and tagged by load PC, track the last effective address and
// stride, and move through INIT → TRANSIENT → STEADY states; only a
// confirmed (twice-seen) stride generates prefetches. The table monitors
// the L1 miss stream, as in Figure 6 of the paper.
package prefetch

import (
	"bytes"
	"encoding/gob"
	"fmt"
)

// StrideConfig sizes the reference-prediction table.
type StrideConfig struct {
	// TableEntries is the number of direct-mapped RPT entries.
	TableEntries int
	// Degree is how many consecutive strides each steady miss prefetches.
	Degree int
	// Distance offsets the prefetch window: a steady miss at address A
	// prefetches A + stride*(Distance+1) ... A + stride*(Distance+Degree),
	// giving the engine enough lead to hide part of the memory latency
	// on fast-moving streams.
	Distance int
}

// Validate checks the table geometry; NewStride panics on what this
// rejects.
func (c StrideConfig) Validate() error {
	if c.TableEntries <= 0 || c.Degree <= 0 || c.Distance < 0 {
		return fmt.Errorf("prefetch: bad stride config %+v", c)
	}
	return nil
}

// DefaultStrideConfig is a plausible contemporary stride engine: 256
// entries, two prefetches per steady miss, running 40 strides ahead —
// enough lead to fully hide the 460-cycle memory latency on streams that
// do a couple dozen cycles of work per element.
var DefaultStrideConfig = StrideConfig{TableEntries: 256, Degree: 2, Distance: 40}

const (
	stInit uint8 = iota
	stTransient
	stSteady
)

type strideEntry struct {
	pc       uint32
	lastAddr uint32
	stride   int32
	state    uint8
	valid    bool
}

// Stride is the reference-prediction-table stride prefetcher.
type Stride struct {
	cfg     StrideConfig
	table   []strideEntry
	enabled bool

	observed  uint64
	predicted uint64
}

// NewStride builds a stride prefetcher. Panics on non-positive geometry.
func NewStride(cfg StrideConfig) *Stride {
	if cfg.TableEntries <= 0 || cfg.Degree <= 0 || cfg.Distance < 0 {
		panic(fmt.Sprintf("prefetch: bad stride config %+v", cfg))
	}
	return &Stride{cfg: cfg, table: make([]strideEntry, cfg.TableEntries), enabled: true}
}

var _ Prefetcher = (*Stride)(nil)

// Config returns the table geometry.
func (s *Stride) Config() StrideConfig { return s.cfg }

// Name is the engine's registry name.
func (s *Stride) Name() string { return "stride" }

// Stream: the RPT monitors the L1 miss stream (Figure 6 of the paper).
func (s *Stride) Stream() Stream { return StreamL1 }

// Translate: stride predictions consult the DTLB and drop on a TLB miss.
func (s *Stride) Translate() TranslateVia { return TranslateTLB }

// SetEnabled toggles issue; training continues while disabled.
func (s *Stride) SetEnabled(enabled bool) { s.enabled = enabled }

// Counters reports the engine's lifetime counters.
func (s *Stride) Counters() Counters {
	return Counters{Observed: s.observed, Issued: s.predicted}
}

// Reset reverts to the just-constructed state.
func (s *Stride) Reset() {
	for i := range s.table {
		s.table[i] = strideEntry{}
	}
	s.observed, s.predicted = 0, 0
}

// ObserveMiss trains on one L1 miss and returns the virtual addresses to
// prefetch (empty unless the entry is steady with a non-zero stride).
func (s *Stride) ObserveMiss(pc, va uint32) []uint32 {
	return s.Observe(Event{PC: pc, VA: va}, nil)
}

// Observe trains on one L1 miss event and appends the predicted virtual
// addresses to dst.
//
// simlint:hotpath
func (s *Stride) Observe(ev Event, dst []uint32) []uint32 {
	s.observed++
	pc, va := ev.PC, ev.VA
	e := &s.table[pc%uint32(len(s.table))]
	if !e.valid || e.pc != pc {
		e.pc, e.lastAddr, e.stride, e.state, e.valid = pc, va, 0, stInit, true
		return dst
	}
	stride := int32(va - e.lastAddr)
	switch {
	case stride == e.stride && stride != 0:
		// The same delta twice in a row confirms the stream (2-delta).
		e.state = stSteady
	case e.state == stSteady:
		// One irregular reference demotes without forgetting the stream.
		e.state = stTransient
		e.stride = stride
	default:
		e.state = stInit
		e.stride = stride
	}
	e.lastAddr = va

	if e.state != stSteady || e.stride == 0 || !s.enabled {
		return dst
	}
	for k := 1; k <= s.cfg.Degree; k++ {
		dst = append(dst, va+uint32(e.stride*int32(s.cfg.Distance+k)))
	}
	s.predicted += uint64(s.cfg.Degree)
	return dst
}

// Stats returns misses observed and prefetch addresses generated.
func (s *Stride) Stats() (observed, predicted uint64) { return s.observed, s.predicted }

func (s *Stride) String() string {
	return fmt.Sprintf("stride{%d entries, degree %d}", s.cfg.TableEntries, s.cfg.Degree)
}

// strideEntryState is one valid reference-prediction-table entry in a
// strideState.
type strideEntryState struct {
	Index    uint32 // direct-mapped table slot
	PC       uint32
	LastAddr uint32
	Stride   int32
	Phase    uint8 // INIT/TRANSIENT/STEADY
}

// strideState is the gob payload of MarshalState: a deep copy of the
// stride engine's mutable contents.
type strideState struct {
	Observed  uint64
	Predicted uint64
	Entries   []strideEntryState
}

// state snapshots the reference prediction table.
func (s *Stride) state() strideState {
	st := strideState{Observed: s.observed, Predicted: s.predicted}
	for i := range s.table {
		if s.table[i].valid {
			e := &s.table[i]
			st.Entries = append(st.Entries, strideEntryState{
				Index: uint32(i), PC: e.pc, LastAddr: e.lastAddr, Stride: e.stride, Phase: e.state,
			})
		}
	}
	return st
}

// restore overwrites the table with a previously captured state. The table
// must have the geometry the state was captured from.
func (s *Stride) restore(st strideState) error {
	for i := range s.table {
		s.table[i] = strideEntry{}
	}
	for _, es := range st.Entries {
		if int(es.Index) >= len(s.table) {
			return fmt.Errorf("prefetch: state index %d outside %d entries (geometry mismatch)", es.Index, len(s.table))
		}
		if es.Phase > stSteady {
			return fmt.Errorf("prefetch: bad entry phase %d", es.Phase)
		}
		s.table[es.Index] = strideEntry{
			pc: es.PC, lastAddr: es.LastAddr, stride: es.Stride, state: es.Phase, valid: true,
		}
	}
	s.observed = st.Observed
	s.predicted = st.Predicted
	return nil
}

// MarshalState serialises the table for checkpointing.
func (s *Stride) MarshalState() ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(s.state()); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// UnmarshalState restores a MarshalState payload into a same-geometry
// engine.
func (s *Stride) UnmarshalState(data []byte) error {
	var st strideState
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&st); err != nil {
		return err
	}
	return s.restore(st)
}
