package cache

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"strings"
	"testing"
)

// stateGeometries are the machines whose caches a snapshot carries: the
// Table 1 DL1 and UL2 and Figure 1's 4 MiB UL2, plus the odd-way and small
// geometries the reference-model test covers.
var stateGeometries = append([]Config{
	{SizeBytes: 32 * 1024, Ways: 8, LineSize: 64},
	{SizeBytes: 1024 * 1024, Ways: 8, LineSize: 64},
	{SizeBytes: 4 * 1024 * 1024, Ways: 8, LineSize: 64},
}, geometries...)

// randomGeometry draws a valid geometry: a power-of-two line size and set
// count and any way count from 1 to 16.
func randomGeometry(rng *rand.Rand) Config {
	line := 16 << rng.Intn(4)
	ways := 1 + rng.Intn(16)
	sets := 1 << rng.Intn(10)
	return Config{SizeBytes: sets * ways * line, Ways: ways, LineSize: line}
}

// randomMeta draws fill metadata over every flag, source, depth, VA and
// chain value a line can carry.
func randomMeta(rng *rand.Rand) Line {
	return Line{
		Dirty:      rng.Intn(2) == 1,
		Prefetched: rng.Intn(2) == 1,
		Overlap:    rng.Intn(2) == 1,
		Source:     Source(rng.Intn(int(SrcMarkov) + 1)),
		Depth:      uint8(rng.Intn(256)),
		VA:         rng.Uint32(),
		Chain:      rng.Uint64() >> rng.Intn(64),
	}
}

// churn runs n random operations on c over a pool of addresses sized to
// overflow the cache, so sets fill, evict and leave holes.
func churn(rng *rand.Rand, c *Cache, n int) {
	lines := len(c.sets)
	for i := 0; i < n; i++ {
		addr := uint32(rng.Intn(2*lines)) * uint32(c.cfg.LineSize)
		switch rng.Intn(8) {
		case 0:
			c.Invalidate(addr)
		case 1, 2:
			c.Lookup(addr, true)
		case 3:
			if l := c.Lookup(addr, false); l != nil {
				l.Dirty = true
				l.Prefetched = false
			}
		default:
			c.Fill(addr, randomMeta(rng))
		}
	}
}

// TestStateRoundTrip fills caches at random, restores each payload into a
// fresh cache of the same geometry, and requires the two to be the same
// cache: the payload re-marshals byte for byte, the resident-line count
// matches, and a continued random access sequence sees the same hits,
// lines and evictions on both.
func TestStateRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	cfgs := append([]Config(nil), stateGeometries...)
	for i := 0; i < 20; i++ {
		cfgs = append(cfgs, randomGeometry(rng))
	}
	for _, cfg := range cfgs {
		lines := cfg.Sets() * cfg.Ways
		for _, fill := range []int{0, lines / 3, 3 * lines} {
			c := New(cfg)
			churn(rng, c, fill)
			payload := c.MarshalState()

			d := New(cfg)
			churn(rng, d, 64) // restoring must discard what was there
			if err := d.UnmarshalState(payload); err != nil {
				t.Fatalf("%v after %d ops: %v", cfg, fill, err)
			}
			if !bytes.Equal(d.MarshalState(), payload) {
				t.Fatalf("%v after %d ops: restored cache re-marshals differently", cfg, fill)
			}
			if c.ValidLines() != d.ValidLines() {
				t.Fatalf("%v after %d ops: ValidLines %d, restored %d", cfg, fill, c.ValidLines(), d.ValidLines())
			}

			for op := 0; op < 4*lines; op++ {
				addr := uint32(rng.Intn(2*lines))*uint32(cfg.LineSize) + uint32(rng.Intn(cfg.LineSize))
				if rng.Intn(2) == 0 {
					touch := rng.Intn(2) == 0
					a, b := c.Lookup(addr, touch), d.Lookup(addr, touch)
					if (a == nil) != (b == nil) || (a != nil && *a != *b) {
						t.Fatalf("%v op %d: Lookup(%#x) = %+v, restored %+v", cfg, op, addr, a, b)
					}
					continue
				}
				meta := randomMeta(rng)
				if a, b := c.Fill(addr, meta), d.Fill(addr, meta); a != b {
					t.Fatalf("%v op %d: Fill(%#x) evicted %+v, restored %+v", cfg, op, addr, a, b)
				}
			}
		}
	}
}

// statePayload marshals a 512 B, 4-set, 2-way cache holding two lines of
// set 1, for the rejection cases to corrupt.
func statePayload(t *testing.T) []byte {
	t.Helper()
	c := small()
	c.Fill(0x40, Line{Source: SrcContent, Depth: 2, Prefetched: true})
	c.Fill(0x140, Line{Dirty: true})
	p := c.MarshalState()
	if len(p) != stateHeader+2*stateRecord {
		t.Fatalf("payload of %d bytes, want %d", len(p), stateHeader+2*stateRecord)
	}
	return p
}

// TestUnmarshalStateRejects corrupts a valid payload one way at a time;
// UnmarshalState must refuse each with an error naming the fault.
func TestUnmarshalStateRejects(t *testing.T) {
	rec := func(i int) int { return stateHeader + i*stateRecord }
	cases := []struct {
		name    string
		corrupt func(p []byte) []byte
		want    string
	}{
		{"empty", func(p []byte) []byte { return nil }, "shorter than"},
		{"short header", func(p []byte) []byte { return p[:stateHeader-1] }, "shorter than"},
		{"unknown version", func(p []byte) []byte { p[0] = stateVersion + 1; return p }, "version"},
		{"truncated record", func(p []byte) []byte { return p[:len(p)-1] }, "does not hold"},
		{"trailing byte", func(p []byte) []byte { return append(p, 0) }, "does not hold"},
		{"count too high", func(p []byte) []byte { binary.LittleEndian.PutUint32(p[9:], 3); return p }, "does not hold"},
		{"count wraps", func(p []byte) []byte { binary.LittleEndian.PutUint32(p[9:], 1<<32-1); return p }, "does not hold"},
		{"index outside", func(p []byte) []byte { binary.LittleEndian.PutUint32(p[rec(1):], 8); return p }, "outside 8 lines"},
		{"index repeated", func(p []byte) []byte { copy(p[rec(1):rec(1)+4], p[rec(0):rec(0)+4]); return p }, "not above"},
		{"index descending", func(p []byte) []byte {
			a := append([]byte(nil), p[rec(0):rec(1)]...)
			copy(p[rec(0):], p[rec(1):rec(2)])
			copy(p[rec(1):], a)
			return p
		}, "not above"},
		{"line outside its set", func(p []byte) []byte { binary.LittleEndian.PutUint32(p[rec(0)+12:], 0x2); return p }, "outside the set"},
		{"line twice in a set", func(p []byte) []byte { copy(p[rec(1)+12:rec(1)+16], p[rec(0)+12:rec(0)+16]); return p }, "twice"},
		{"unknown flag", func(p []byte) []byte { p[rec(1)+16] |= 1 << 3; return p }, "flags"},
		{"source past markov", func(p []byte) []byte { p[rec(0)+17] = byte(SrcMarkov) + 1; return p }, "source"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := small()
			if err := c.UnmarshalState(statePayload(t)); err != nil {
				t.Fatalf("uncorrupted payload rejected: %v", err)
			}
			err := c.UnmarshalState(tc.corrupt(statePayload(t)))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("got error %v, want one containing %q", err, tc.want)
			}
		})
	}
}

// TestUnmarshalStateRejectsSmallerCache restores a full 1 MiB UL2 into a
// 512 KiB cache of the same associativity: its upper sets have no home.
func TestUnmarshalStateRejectsSmallerCache(t *testing.T) {
	big := New(Config{SizeBytes: 1024 * 1024, Ways: 8, LineSize: 64})
	for addr := uint32(0); addr < 1024*1024; addr += 64 {
		big.Fill(addr, Line{})
	}
	half := New(Config{SizeBytes: 512 * 1024, Ways: 8, LineSize: 64})
	err := half.UnmarshalState(big.MarshalState())
	if err == nil || !strings.Contains(err.Error(), "outside 8192 lines") {
		t.Fatalf("1 MiB payload into a 512 KiB cache: got %v", err)
	}
}

// FuzzCacheState feeds arbitrary bytes to UnmarshalState on a 16-set,
// 2-way cache: it must never panic, and whatever it accepts must marshal
// back to the same bytes, so a state has exactly one encoding.
func FuzzCacheState(f *testing.F) {
	cfg := Config{SizeBytes: 16 * 2 * 64, Ways: 2, LineSize: 64}
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 8, 64} {
		c := New(cfg)
		churn(rng, c, n)
		f.Add(c.MarshalState())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c := New(cfg)
		if err := c.UnmarshalState(data); err != nil {
			return
		}
		if got := c.MarshalState(); !bytes.Equal(got, data) {
			t.Fatalf("accepted payload re-marshals differently:\nin  %x\nout %x", data, got)
		}
	})
}
