// Package cpu implements the timing model of the processor core in Table 1:
// a 3-wide fetch/issue/retire out-of-order machine with a 128-entry reorder
// buffer, 48-entry load and 32-entry store buffers, 3 integer / 2 memory /
// 1 floating-point units, a 16K-entry gshare branch predictor and a
// 28-cycle misprediction penalty.
//
// The model is trace-driven: it executes the correct path only, but
// reconstructs the program's true critical path from the register
// dependences carried in the trace — in particular, pointer-chasing loads
// serialise through the loads that produce their addresses, which is the
// property that makes memory latency visible and prefetching valuable.
package cpu

import "fmt"

// Gshare is the classic global-history XOR-indexed predictor with 2-bit
// saturating counters ("16K entry gshare" in Table 1 is bits=14).
type Gshare struct {
	table []uint8
	hist  uint32
	mask  uint32
}

// maxGshareBits bounds the predictor size: 2^24 counters take 16 MiB.
const maxGshareBits = 24

// NewGshare builds a predictor with 2^bits counters, 1 <= bits <=
// maxGshareBits.
func NewGshare(bits uint) *Gshare {
	if bits == 0 || bits > maxGshareBits {
		panic("cpu: gshare bits out of range")
	}
	g := &Gshare{table: make([]uint8, 1<<bits), mask: 1<<bits - 1}
	// Weakly taken start: loops predict well almost immediately.
	for i := range g.table {
		g.table[i] = 2
	}
	return g
}

func (g *Gshare) index(pc uint32) uint32 { return (pc>>2 ^ g.hist) & g.mask }

// Predict returns the predicted direction for the branch at pc.
func (g *Gshare) Predict(pc uint32) bool { return g.table[g.index(pc)] >= 2 }

// Update trains the predictor with the actual outcome and advances the
// global history.
func (g *Gshare) Update(pc uint32, taken bool) {
	i := g.index(pc)
	if taken {
		if g.table[i] < 3 {
			g.table[i]++
		}
	} else if g.table[i] > 0 {
		g.table[i]--
	}
	g.hist = (g.hist<<1 | b2u(taken)) & g.mask
}

func b2u(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

// GshareState is a checkpointable copy of the predictor's counters and
// global history.
type GshareState struct {
	Table []uint8
	Hist  uint32
}

// State snapshots the predictor.
func (g *Gshare) State() GshareState {
	return GshareState{Table: append([]uint8(nil), g.table...), Hist: g.hist}
}

// Restore overwrites the predictor with a previously captured state. The
// table size must match the predictor's geometry.
func (g *Gshare) Restore(st GshareState) error {
	if len(st.Table) != len(g.table) {
		return fmt.Errorf("cpu: gshare state has %d counters, predictor has %d", len(st.Table), len(g.table))
	}
	copy(g.table, st.Table)
	g.hist = st.Hist
	return nil
}
