// The Prefetcher interface is the "prefetcher zoo" contract (ROADMAP item
// 3): every engine — the stride baseline, the Joseph & Grunwald Markov
// STAB, the content-directed prefetcher, and the newer entrants in this
// package — observes miss (or fill) events and appends the virtual
// addresses it wants prefetched. The memory system drives the miss-stream
// engines through this interface and the content-directed prefetcher
// (core.Prefetcher, which implements it too) through its typed fill and
// hit calls; internal/prefetch/registry names them, and
// internal/prefetch/conformance holds the behavioural contract every
// registered engine must pass.
package prefetch

// Stream identifies which event stream an engine trains on. The memory
// system delivers events from exactly the declared stream, preserving each
// engine's original observation point (stride: L1 misses; Markov and the
// delta/offset entrants: L2 demand misses; content: data-carrying fills).
type Stream uint8

const (
	// StreamL1 is the per-reference L1 miss stream; events carry the load
	// PC and the full effective virtual address.
	StreamL1 Stream = iota
	// StreamL2 is the L2 demand-miss stream at cache-line granularity;
	// events carry the missing line's virtual base address.
	StreamL2
	// StreamFill is the data-carrying fill stream; events additionally
	// carry the filled line's bytes for content inspection.
	StreamFill
)

func (s Stream) String() string {
	switch s {
	case StreamL1:
		return "l1-miss"
	case StreamL2:
		return "l2-miss"
	case StreamFill:
		return "fill"
	default:
		return "unknown"
	}
}

// TranslateVia identifies how an engine's predicted virtual addresses
// become physical before entering the memory system.
type TranslateVia uint8

const (
	// TranslateTLB routes predictions through the DTLB; a prediction
	// whose page is not resident is dropped (no speculative walk). This
	// is the stride engine's behaviour in the paper's baseline machine.
	TranslateTLB TranslateVia = iota
	// TranslateDirect consults the software page map directly, modelling
	// a physically-indexed table (the Markov STAB) or an engine operating
	// post-translation; unmapped predictions are dropped.
	TranslateDirect
)

// Event is one observation delivered to an engine. Which fields are
// populated depends on the engine's declared Stream:
//
//   - StreamL1: PC and VA (full effective address).
//   - StreamL2: VA (line base) and PriorIssued.
//   - StreamFill: VA (filled line base), TrigVA, Depth, and Data.
type Event struct {
	// PC is the program counter of the triggering reference.
	PC uint32
	// VA is the miss address: the full effective address on the L1
	// stream, the line base on the L2 and fill streams.
	VA uint32
	// TrigVA is the effective address of the request that caused a fill
	// (fill stream only).
	TrigVA uint32
	// Depth is the request depth the fill arrived with (fill stream
	// only; 0 for demand fills).
	Depth int
	// PriorIssued reports whether a higher-precedence engine already
	// issued a prefetch for this reference — the paper's stride-blocks-
	// Markov rule, generalised to the engine chain order.
	PriorIssued bool
	// Data is the filled line's bytes (fill stream only). Engines must
	// not retain it past the Observe call.
	Data []byte
}

// Prefetcher is the engine-neutral contract. Implementations must be
// deterministic: the same construction parameters and event sequence must
// produce the identical issue sequence (the simulator's byte-identical-
// counters guarantee rests on it).
type Prefetcher interface {
	// Name is the engine's registry name ("stride", "markov", ...).
	Name() string
	// Stream declares which event stream the engine observes.
	Stream() Stream
	// Translate declares how predictions are translated before issue.
	Translate() TranslateVia
	// Observe trains on one event and appends the virtual addresses to
	// prefetch to dst, returning the extended slice. Implementations must
	// not retain dst or ev.Data.
	Observe(ev Event, dst []uint32) []uint32
	// MarshalState serialises the engine's mutable state for
	// checkpointing; UnmarshalState restores it into an engine built
	// with the same configuration. Restored engines must replay
	// identically to the original.
	MarshalState() ([]byte, error)
	UnmarshalState(data []byte) error
	// String renders the engine and its geometry for config names.
	String() string
}
