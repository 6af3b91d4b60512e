// Package cache implements the set-associative, write-back caches of the
// performance model: the virtually indexed DL1 and the physically indexed
// unified L2. Each line carries the small amount of extra state the content
// prefetcher needs for feedback-directed path reinforcement: a prefetched
// flag, the originating requester, and the stored request depth (two bits
// in hardware — less than ½% space overhead, as the paper reports).
package cache

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

// Source identifies which agent brought a line into a cache.
type Source uint8

const (
	// SrcDemand marks a demand-fetched line.
	SrcDemand Source = iota
	// SrcStride marks a line prefetched by the stride prefetcher.
	SrcStride
	// SrcContent marks a line prefetched by the content-directed prefetcher.
	SrcContent
	// SrcMarkov marks a line prefetched by the Markov prefetcher.
	SrcMarkov
)

func (s Source) String() string {
	switch s {
	case SrcDemand:
		return "demand"
	case SrcStride:
		return "stride"
	case SrcContent:
		return "content"
	case SrcMarkov:
		return "markov"
	default:
		return fmt.Sprintf("Source(%d)", uint8(s))
	}
}

// Line is one cache line's bookkeeping. Contents live in the memory image;
// the simulator only tracks presence and metadata.
type Line struct {
	LineAddr   uint32 // address >> lineShift
	Valid      bool
	Dirty      bool
	Prefetched bool   // set by prefetch fill, cleared on first demand touch
	Source     Source // who filled it
	Depth      uint8  // stored request depth (reinforcement state)
	VA         uint32 // virtual line base of the fill (for rescans)
	Overlap    bool   // content prefetch whose line stride also covered
	Chain      uint64 // content-prefetch chain the fill belonged to (0 = none)
	lru        uint64
}

// Config sizes a cache.
type Config struct {
	SizeBytes int
	Ways      int
	LineSize  int
}

// Sets returns the number of sets implied by the configuration.
func (c Config) Sets() int { return c.SizeBytes / (c.Ways * c.LineSize) }

// Validate checks the cache geometry; New panics on what this rejects.
func (c Config) Validate() error { return c.validate() }

func (c Config) validate() error {
	if c.SizeBytes <= 0 || c.Ways <= 0 || c.LineSize <= 0 {
		return fmt.Errorf("cache: non-positive geometry %+v", c)
	}
	if c.LineSize&(c.LineSize-1) != 0 {
		return fmt.Errorf("cache: line size %d not a power of two", c.LineSize)
	}
	sets := c.Sets()
	if sets <= 0 || sets&(sets-1) != 0 {
		return fmt.Errorf("cache: set count %d not a positive power of two", sets)
	}
	if sets*c.Ways*c.LineSize != c.SizeBytes {
		return fmt.Errorf("cache: size %d not divisible by ways*line", c.SizeBytes)
	}
	return nil
}

// Cache is a single-level, true-LRU, set-associative cache. The geometry
// constants every access needs — line shift and mask, set-index mask, way
// count — are flattened out of the Config at construction so the lookup
// path loads them directly instead of rederiving them per access.
type Cache struct {
	cfg       Config
	lineShift uint
	lineMask  uint32 // LineSize-1: low bits within a line
	setMask   uint32 // Sets()-1: line-address bits selecting the set
	ways      int
	sets      []Line // sets*ways lines, flattened
	clock     uint64
}

// New builds a cache. It panics on an invalid geometry: configurations are
// static experiment inputs, not runtime data.
func New(cfg Config) *Cache {
	if err := cfg.validate(); err != nil {
		panic(err)
	}
	return &Cache{
		cfg:       cfg,
		lineShift: uint(bits.TrailingZeros32(uint32(cfg.LineSize))),
		lineMask:  uint32(cfg.LineSize - 1),
		setMask:   uint32(cfg.Sets() - 1),
		ways:      cfg.Ways,
		sets:      make([]Line, cfg.Sets()*cfg.Ways),
	}
}

// Config returns the cache geometry.
func (c *Cache) Config() Config { return c.cfg }

// LineAddr maps an address to its line address (addr >> lineShift).
func (c *Cache) LineAddr(addr uint32) uint32 { return addr >> c.lineShift }

// LineBase maps an address to the first byte of its line.
func (c *Cache) LineBase(addr uint32) uint32 { return addr &^ c.lineMask }

func (c *Cache) set(lineAddr uint32) []Line {
	idx := int(lineAddr&c.setMask) * c.ways
	return c.sets[idx : idx+c.ways]
}

// Lookup finds the line containing addr. When touch is set, a hit updates
// LRU state (a probe with touch=false leaves replacement state alone, which
// is what the prefetchers' presence checks need). Returns nil on miss.
func (c *Cache) Lookup(addr uint32, touch bool) *Line {
	la := c.LineAddr(addr)
	set := c.set(la)
	for i := range set {
		if set[i].Valid && set[i].LineAddr == la {
			if touch {
				c.clock++
				set[i].lru = c.clock
			}
			return &set[i]
		}
	}
	return nil
}

// Fill installs the line containing addr with the given metadata, evicting
// the LRU victim if the set is full. It returns the evicted line (Valid
// false if the set had a free way). Filling a line that is already present
// refreshes its metadata in place without eviction.
func (c *Cache) Fill(addr uint32, meta Line) (evicted Line) {
	la := c.LineAddr(addr)
	set := c.set(la)
	c.clock++
	victim := -1
	for i := range set {
		switch {
		case set[i].Valid && set[i].LineAddr == la:
			meta.LineAddr = la
			meta.Valid = true
			meta.lru = c.clock
			set[i] = meta
			return Line{} // refresh, no eviction
		case !set[i].Valid && victim == -1:
			victim = i
		}
	}
	if victim == -1 {
		victim = 0
		for i := 1; i < len(set); i++ {
			if set[i].lru < set[victim].lru {
				victim = i
			}
		}
		evicted = set[victim]
	}
	meta.LineAddr = la
	meta.Valid = true
	meta.lru = c.clock
	set[victim] = meta
	return evicted
}

// Invalidate drops the line containing addr if present, returning whether
// it was present.
func (c *Cache) Invalidate(addr uint32) bool {
	if l := c.Lookup(addr, false); l != nil {
		l.Valid = false
		return true
	}
	return false
}

// ValidLines counts resident lines (test and reporting helper).
func (c *Cache) ValidLines() int {
	n := 0
	for i := range c.sets {
		if c.sets[i].Valid {
			n++
		}
	}
	return n
}

func (c *Cache) String() string {
	return fmt.Sprintf("cache{%dKB %d-way %dB lines, %d sets}",
		c.cfg.SizeBytes/1024, c.cfg.Ways, c.cfg.LineSize, c.cfg.Sets())
}

// The MarshalState payload: a header of version byte, cache clock (u64)
// and valid-line count (u32), then one fixed-width record per valid line.
// All integers are little-endian.
const (
	stateVersion = 1
	stateHeader  = 1 + 8 + 4
	// index u32, lru u64, LineAddr u32, flags, Source, Depth, VA u32, Chain u64
	stateRecord = 4 + 8 + 4 + 1 + 1 + 1 + 4 + 8
)

// Record flag bits; Valid is implied by a record's presence.
const (
	flagDirty = 1 << iota
	flagPrefetched
	flagOverlap
	flagsKnown = flagDirty | flagPrefetched | flagOverlap
)

// MarshalState serialises the cache's mutable contents for checkpointing:
// the clock and every valid line with its LRU stamp and its position in the
// flattened set array, so a restored cache replays evictions identically.
// Records are in ascending position, which makes the encoding of a state
// unique. Geometry is not part of the payload and must match at
// UnmarshalState.
func (c *Cache) MarshalState() []byte {
	n := c.ValidLines()
	buf := make([]byte, stateHeader+n*stateRecord)
	buf[0] = stateVersion
	binary.LittleEndian.PutUint64(buf[1:], c.clock)
	binary.LittleEndian.PutUint32(buf[9:], uint32(n))
	rec := buf[stateHeader:]
	for i := range c.sets {
		l := &c.sets[i]
		if !l.Valid {
			continue
		}
		var flags byte
		if l.Dirty {
			flags |= flagDirty
		}
		if l.Prefetched {
			flags |= flagPrefetched
		}
		if l.Overlap {
			flags |= flagOverlap
		}
		r := rec[:stateRecord]
		binary.LittleEndian.PutUint32(r[0:], uint32(i))
		binary.LittleEndian.PutUint64(r[4:], l.lru)
		binary.LittleEndian.PutUint32(r[12:], l.LineAddr)
		r[16], r[17], r[18] = flags, byte(l.Source), l.Depth
		binary.LittleEndian.PutUint32(r[19:], l.VA)
		binary.LittleEndian.PutUint64(r[23:], l.Chain)
		rec = rec[stateRecord:]
	}
	return buf
}

// UnmarshalState overwrites the cache's contents with a MarshalState
// payload. The cache must have the geometry the payload was captured from.
// Payloads come from disk, so every field is checked; a malformed one
// returns an error and leaves the cache partly restored, fit only to be
// discarded.
func (c *Cache) UnmarshalState(data []byte) error {
	clear(c.sets)
	c.clock = 0
	if len(data) < stateHeader {
		return fmt.Errorf("cache: state payload of %d bytes is shorter than its %d-byte header", len(data), stateHeader)
	}
	if data[0] != stateVersion {
		return fmt.Errorf("cache: unknown state version %d", data[0])
	}
	n := uint64(binary.LittleEndian.Uint32(data[9:]))
	if uint64(len(data)) != stateHeader+n*stateRecord {
		return fmt.Errorf("cache: state payload of %d bytes does not hold %d lines", len(data), n)
	}
	next := 0 // lowest index the next record may take
	for rec := data[stateHeader:]; len(rec) > 0; rec = rec[stateRecord:] {
		r := rec[:stateRecord]
		idx := binary.LittleEndian.Uint32(r[0:])
		if uint64(idx) >= uint64(len(c.sets)) {
			return fmt.Errorf("cache: state index %d outside %d lines (geometry mismatch)", idx, len(c.sets))
		}
		if int(idx) < next {
			return fmt.Errorf("cache: state index %d not above the previous record's", idx)
		}
		la := binary.LittleEndian.Uint32(r[12:])
		set := int(idx) / c.ways
		if int(la&c.setMask) != set {
			return fmt.Errorf("cache: state line %#x at index %d is outside the set its address indexes", la, idx)
		}
		for _, l := range c.sets[set*c.ways : idx] {
			if l.Valid && l.LineAddr == la {
				return fmt.Errorf("cache: state holds line %#x twice", la)
			}
		}
		flags, src := r[16], Source(r[17])
		if flags&^flagsKnown != 0 {
			return fmt.Errorf("cache: unknown line flags %#x", flags)
		}
		if src > SrcMarkov {
			return fmt.Errorf("cache: unknown line source %d", src)
		}
		c.sets[idx] = Line{
			LineAddr:   la,
			Valid:      true,
			Dirty:      flags&flagDirty != 0,
			Prefetched: flags&flagPrefetched != 0,
			Source:     src,
			Depth:      r[18],
			VA:         binary.LittleEndian.Uint32(r[19:]),
			Overlap:    flags&flagOverlap != 0,
			Chain:      binary.LittleEndian.Uint64(r[23:]),
			lru:        binary.LittleEndian.Uint64(r[4:]),
		}
		next = int(idx) + 1
	}
	c.clock = binary.LittleEndian.Uint64(data[1:])
	return nil
}
