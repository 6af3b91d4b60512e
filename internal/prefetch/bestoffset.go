// Best-offset prefetcher (Michaud, HPCA 2016), the strongest of the simple
// spatial engines surveyed for server-class workloads in arXiv 2009.00715:
// instead of assuming the next line (+1) is wanted, the engine *learns*
// which single line offset O best predicts the miss stream, then prefetches
// X+O on every miss to X. Learning is a scoring tournament: a small
// recent-requests (RR) table remembers recent miss lines; each miss tests
// one candidate offset round-robin — if X−O is in the RR table, a prefetch
// from X−O with offset O would have covered this miss, so O scores a
// point. At the end of a round (or when a score saturates) the best-scoring
// offset becomes the active one; a round with no convincing winner turns
// prefetch off until the next round, which keeps the engine quiet on
// streams it cannot help (the survey's "prefetch-hostile" server traces).
package prefetch

import (
	"bytes"
	"encoding/gob"
	"fmt"
)

// bestOffsetLineBytes is the cache-line granularity offsets are expressed
// in; it matches the simulator's 64-byte lines.
const bestOffsetLineBytes = 64

// bestOffsetCandidates is the fixed tournament list, in line units.
// Michaud draws candidates from numbers with prime factors ≤ 5; a few
// negative offsets cover descending scans.
var bestOffsetCandidates = []int32{1, 2, 3, 4, 5, 6, 8, 9, 10, 12, 15, 16, -1, -2, -3, -4}

// BestOffsetConfig sizes the learner.
type BestOffsetConfig struct {
	// RRSize is the number of recent-request entries (direct-mapped by
	// line address). Must be a power of two.
	RRSize int
	// RoundMisses is the scoring-round length: after this many misses the
	// best-scoring offset is (re)selected and scores reset.
	RoundMisses int
	// ScoreMax ends a round early when any offset reaches it.
	ScoreMax int
	// BadScore is the minimum winning score; a round whose best offset
	// scores below it disables prefetch for the next round.
	BadScore int
	// Degree is how many multiples of the learned offset each miss
	// prefetches.
	Degree int
}

// Validate checks the learner geometry; NewBestOffset panics on what this
// rejects.
func (c BestOffsetConfig) Validate() error {
	if c.RRSize <= 0 || c.RRSize&(c.RRSize-1) != 0 {
		return fmt.Errorf("prefetch: bestoffset RR size %d not a positive power of two", c.RRSize)
	}
	if c.RoundMisses <= 0 || c.ScoreMax <= 0 || c.BadScore <= 0 || c.Degree <= 0 {
		return fmt.Errorf("prefetch: bad bestoffset config %+v", c)
	}
	return nil
}

// DefaultBestOffsetConfig mirrors Michaud's evaluated point scaled to this
// simulator's short runs: 64 RR entries, 256-miss rounds, saturation at 31.
var DefaultBestOffsetConfig = BestOffsetConfig{
	RRSize: 64, RoundMisses: 256, ScoreMax: 31, BadScore: 2, Degree: 1,
}

// BestOffset is the best-offset spatial prefetcher.
type BestOffset struct {
	cfg    BestOffsetConfig
	rr     []uint32 // direct-mapped recent miss lines; 0 = empty
	scores []int32  // parallel to bestOffsetCandidates

	testIdx int   // next candidate to test (round-robin)
	misses  int   // misses into the current round
	current int32 // active offset in lines; 0 = prefetch off
}

// NewBestOffset builds a best-offset learner. Panics on invalid geometry.
func NewBestOffset(cfg BestOffsetConfig) *BestOffset {
	if err := cfg.Validate(); err != nil {
		panic(err.Error())
	}
	return &BestOffset{
		cfg:    cfg,
		rr:     make([]uint32, cfg.RRSize),
		scores: make([]int32, len(bestOffsetCandidates)),
	}
}

var _ Prefetcher = (*BestOffset)(nil)

// Config returns the learner geometry.
func (b *BestOffset) Config() BestOffsetConfig { return b.cfg }

// Name is the engine's registry name.
func (b *BestOffset) Name() string { return "bestoffset" }

// Stream: offsets are learned from the L2 demand-miss stream.
func (b *BestOffset) Stream() Stream { return StreamL2 }

// Translate: modelled post-translation; predictions consult the page map.
func (b *BestOffset) Translate() TranslateVia { return TranslateDirect }

func (b *BestOffset) String() string {
	return fmt.Sprintf("bestoffset{%d offsets, rr %d, round %d}",
		len(bestOffsetCandidates), b.cfg.RRSize, b.cfg.RoundMisses)
}

// Current reports the active offset in line units (0 = prefetch off) —
// exposed for tests and telemetry.
func (b *BestOffset) Current() int32 { return b.current }

func (b *BestOffset) rrSlot(line uint32) int {
	return int((line / bestOffsetLineBytes) & uint32(b.cfg.RRSize-1))
}

// endRound crowns the round's winner (first maximum wins ties) or turns
// prefetch off when nothing scored convincingly, then resets the
// tournament.
func (b *BestOffset) endRound() {
	bestIdx, bestScore := 0, int32(-1)
	for i, s := range b.scores {
		if s > bestScore {
			bestIdx, bestScore = i, s
		}
	}
	if bestScore >= int32(b.cfg.BadScore) {
		b.current = bestOffsetCandidates[bestIdx]
	} else {
		b.current = 0
	}
	for i := range b.scores {
		b.scores[i] = 0
	}
	b.testIdx, b.misses = 0, 0
}

// Observe scores one candidate offset against the recent-request table,
// records the miss line, and — once an offset has won a round — appends
// the offset-projected prefetch lines to dst.
//
// simlint:hotpath
func (b *BestOffset) Observe(ev Event, dst []uint32) []uint32 {
	line := ev.VA

	// Score one candidate per miss, round-robin: if line−O was recently
	// missed, offset O would have covered this miss.
	off := bestOffsetCandidates[b.testIdx]
	base := line - uint32(off*bestOffsetLineBytes)
	if b.rr[b.rrSlot(base)] == base {
		b.scores[b.testIdx]++
	}
	saturated := int(b.scores[b.testIdx]) >= b.cfg.ScoreMax
	b.testIdx++
	if b.testIdx == len(bestOffsetCandidates) {
		b.testIdx = 0
	}
	b.misses++
	if saturated || b.misses >= b.cfg.RoundMisses {
		b.endRound()
	}

	b.rr[b.rrSlot(line)] = line

	if b.current == 0 {
		return dst
	}
	for k := 1; k <= b.cfg.Degree; k++ {
		dst = append(dst, line+uint32(b.current*int32(k)*bestOffsetLineBytes))
	}
	return dst
}

// bestOffsetState is the gob payload of MarshalState: a deep copy of the
// learner.
type bestOffsetState struct {
	RR      []uint32
	Scores  []int32
	TestIdx int
	Misses  int
	Current int32
}

// state snapshots the learner.
func (b *BestOffset) state() bestOffsetState {
	return bestOffsetState{
		RR:      append([]uint32(nil), b.rr...),
		Scores:  append([]int32(nil), b.scores...),
		TestIdx: b.testIdx, Misses: b.misses, Current: b.current,
	}
}

// restore overwrites the learner with a previously captured state. The
// learner must have the geometry the state was captured from.
func (b *BestOffset) restore(st bestOffsetState) error {
	if len(st.RR) != len(b.rr) || len(st.Scores) != len(b.scores) {
		return fmt.Errorf("prefetch: bestoffset state rr/scores %d/%d, want %d/%d (geometry mismatch)",
			len(st.RR), len(st.Scores), len(b.rr), len(b.scores))
	}
	if st.TestIdx < 0 || st.TestIdx >= len(b.scores) {
		return fmt.Errorf("prefetch: bestoffset state test index %d out of range", st.TestIdx)
	}
	copy(b.rr, st.RR)
	copy(b.scores, st.Scores)
	b.testIdx, b.misses, b.current = st.TestIdx, st.Misses, st.Current
	return nil
}

// MarshalState serialises the learner for checkpointing.
func (b *BestOffset) MarshalState() ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(b.state()); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// UnmarshalState restores a MarshalState payload into a same-geometry
// engine.
func (b *BestOffset) UnmarshalState(data []byte) error {
	var st bestOffsetState
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&st); err != nil {
		return err
	}
	return b.restore(st)
}
