package mem

import (
	"bytes"
	"math/rand"
	"sort"
	"testing"
)

// mapImage is the page-map Image the directory replaced, kept as the
// property oracle.
type mapImage struct {
	pages map[uint32]*[PageSize]byte
}

func (m *mapImage) page(addr uint32, create bool) *[PageSize]byte {
	pn := addr >> PageShift
	p := m.pages[pn]
	if p == nil && create {
		p = new([PageSize]byte)
		m.pages[pn] = p
	}
	return p
}

func (m *mapImage) Read8(addr uint32) byte {
	if p := m.page(addr, false); p != nil {
		return p[addr&PageMask]
	}
	return 0
}

func (m *mapImage) Write8(addr uint32, v byte) { m.page(addr, true)[addr&PageMask] = v }

func (m *mapImage) Read32(addr uint32) uint32 {
	var v uint32
	for i := uint32(0); i < 4; i++ {
		v |= uint32(m.Read8(addr+i)) << (8 * i)
	}
	return v
}

func (m *mapImage) ReadBytes(addr uint32, dst []byte) {
	for i := range dst {
		dst[i] = m.Read8(addr + uint32(i))
	}
}

// Property: under random writes and reads clustered around page and 4 MiB
// page-table boundaries (including the top of the address space, where
// reads wrap), the directory-backed Image agrees with the map-backed one
// on Read8, Read32, ReadBytes, Line, PageCount and — in ascending order —
// PageNumbers.
func TestImageMatchesPageMapOracle(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		img := NewImage()
		ref := &mapImage{pages: map[uint32]*[PageSize]byte{}}
		// Anchors sit on table boundaries (multiples of 4 MiB) and plain
		// page boundaries; addresses land within a few bytes of them.
		anchors := []uint32{0, PageSize, 1 << tableShift, 3 << tableShift, 0xFFFF_F000, 0x8000_0000}
		for i := 0; i < 6; i++ {
			anchors = append(anchors, rng.Uint32()&^PageMask, uint32(rng.Intn(dirEntries))<<tableShift)
		}
		addr := func() uint32 {
			return anchors[rng.Intn(len(anchors))] + uint32(rng.Intn(64)) - 32
		}
		for step := 0; step < 3000; step++ {
			a := addr()
			switch rng.Intn(6) {
			case 0:
				v := byte(rng.Intn(256))
				img.Write8(a, v)
				ref.Write8(a, v)
			case 1:
				v := rng.Uint32()
				img.Write32(a, v)
				for i := uint32(0); i < 4; i++ {
					ref.Write8(a+i, byte(v>>(8*i)))
				}
			case 2:
				src := make([]byte, 1+rng.Intn(100))
				rng.Read(src)
				img.WriteBytes(a, src)
				for i, b := range src {
					ref.Write8(a+uint32(i), b)
				}
			case 3:
				if got, want := img.Read8(a), ref.Read8(a); got != want {
					t.Fatalf("seed %d: Read8(%#x) = %#x, oracle %#x", seed, a, got, want)
				}
			case 4:
				if got, want := img.Read32(a), ref.Read32(a); got != want {
					t.Fatalf("seed %d: Read32(%#x) = %#x, oracle %#x", seed, a, got, want)
				}
			default:
				n := 1 + rng.Intn(200)
				if a > 0xFFFF_FFFF-uint32(n) {
					break // ReadBytes does not wrap the address space
				}
				got, want := make([]byte, n), make([]byte, n)
				img.ReadBytes(a, got)
				ref.ReadBytes(a, want)
				if !bytes.Equal(got, want) {
					t.Fatalf("seed %d: ReadBytes(%#x, %d) differs from the oracle", seed, a, n)
				}
				line := make([]byte, 64)
				ref.ReadBytes(a&^63, line)
				if !bytes.Equal(img.Line(a, 64), line) {
					t.Fatalf("seed %d: Line(%#x) differs from the oracle", seed, a)
				}
			}
		}
		want := make([]uint32, 0, len(ref.pages))
		for pn := range ref.pages {
			want = append(want, pn)
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		got := img.PageNumbers()
		if img.PageCount() != len(want) || len(got) != len(want) {
			t.Fatalf("seed %d: %d pages (%d listed), oracle %d", seed, img.PageCount(), len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d: PageNumbers()[%d] = %#x, oracle %#x", seed, i, got[i], want[i])
			}
		}
	}
}

// Line reads unbacked memory as zeros without backing a page.
func TestImageLineUnbacked(t *testing.T) {
	m := NewImage()
	line := m.Line(0x1234_5678, 64)
	if len(line) != 64 || !bytes.Equal(line, make([]byte, 64)) {
		t.Fatalf("unbacked Line = %v, want 64 zero bytes", line)
	}
	if m.PageCount() != 0 {
		t.Fatalf("Line backed %d pages", m.PageCount())
	}
}
