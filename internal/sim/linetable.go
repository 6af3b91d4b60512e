package sim

// lineTable is an open-addressed hash table keyed by cache-line base
// address: linear probing, Fibonacci hashing, and backward-shift deletion,
// so it needs no tombstones and its probe runs stay short. It stores a key
// as base|1, which leaves 0 free to mark an empty slot; keys must therefore
// be line-aligned (bit 0 clear). It doubles when half full.
type lineTable[V any] struct {
	slots []lineSlot[V]
	n     int
	shift uint8 // 32 - log2(len(slots))
}

type lineSlot[V any] struct {
	key uint32 // line base | 1; 0 = empty
	val V
}

// newLineTable returns a table with room for at least capacity keys before
// it first grows.
func newLineTable[V any](capacity int) lineTable[V] {
	size, shift := 8, uint8(32-3)
	for size < 2*capacity {
		size *= 2
		shift--
	}
	return lineTable[V]{slots: make([]lineSlot[V], size), shift: shift}
}

func (t *lineTable[V]) len() int { return t.n }

// home returns k's preferred slot.
func (t *lineTable[V]) home(k uint32) int { return int(k * 0x9E37_79B9 >> t.shift) }

// find returns the slot holding base, or -1.
func (t *lineTable[V]) find(base uint32) int {
	k := base | 1
	mask := len(t.slots) - 1
	for i := t.home(k); ; i = (i + 1) & mask {
		switch t.slots[i].key {
		case k:
			return i
		case 0:
			return -1
		}
	}
}

// get returns base's value and whether it is present.
func (t *lineTable[V]) get(base uint32) (V, bool) {
	if i := t.find(base); i >= 0 {
		return t.slots[i].val, true
	}
	var zero V
	return zero, false
}

// has reports whether base is present.
func (t *lineTable[V]) has(base uint32) bool { return t.find(base) >= 0 }

// put sets base's value, inserting it if absent.
func (t *lineTable[V]) put(base uint32, v V) {
	if 2*(t.n+1) > len(t.slots) {
		t.grow()
	}
	k := base | 1
	mask := len(t.slots) - 1
	i := t.home(k)
	for t.slots[i].key != 0 && t.slots[i].key != k {
		i = (i + 1) & mask
	}
	if t.slots[i].key == 0 {
		t.n++
	}
	t.slots[i] = lineSlot[V]{key: k, val: v}
}

// del removes base if present. Backward-shift deletion pulls every later
// entry of the probe run that may legally occupy the hole back into it, so
// lookups never need tombstones.
func (t *lineTable[V]) del(base uint32) {
	i := t.find(base)
	if i < 0 {
		return
	}
	t.n--
	mask := len(t.slots) - 1
	for j := (i + 1) & mask; t.slots[j].key != 0; j = (j + 1) & mask {
		// The entry at j may fill the hole at i unless its home lies
		// cyclically in (i, j].
		if (j-t.home(t.slots[j].key))&mask >= (j-i)&mask {
			t.slots[i] = t.slots[j]
			i = j
		}
	}
	t.slots[i] = lineSlot[V]{}
}

// grow doubles the table and rehashes every entry.
func (t *lineTable[V]) grow() {
	old := t.slots
	t.slots = make([]lineSlot[V], 2*len(old))
	t.shift--
	mask := len(t.slots) - 1
	for _, s := range old {
		if s.key == 0 {
			continue
		}
		i := t.home(s.key)
		for t.slots[i].key != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = s
	}
}

// lineRing is the stride-recent set's eviction order: a FIFO of at most
// strideRecentCap line bases. It grows by append until full, then overwrites
// its oldest entry in place.
type lineRing struct {
	buf  []uint32
	head int // oldest entry once full
}

// push appends base and returns the entry it evicted, if the ring was full.
func (r *lineRing) push(base uint32) (evicted uint32, ok bool) {
	if len(r.buf) < strideRecentCap {
		r.buf = append(r.buf, base)
		return 0, false
	}
	evicted = r.buf[r.head]
	r.buf[r.head] = base
	r.head = (r.head + 1) % strideRecentCap
	return evicted, true
}

// oldestFirst returns the ring's entries oldest first, in a fresh slice
// (nil when empty).
func (r *lineRing) oldestFirst() []uint32 {
	return append(append([]uint32(nil), r.buf[r.head:]...), r.buf[:r.head]...)
}

// reset replaces the ring's contents with lines, oldest first.
func (r *lineRing) reset(lines []uint32) {
	r.buf = append(r.buf[:0], lines...)
	r.head = 0
}
