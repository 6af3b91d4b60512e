// Package mem provides the simulated 32-bit memory substrate used by the
// whole reproduction: a sparse, page-granular memory image holding the
// little-endian contents of the simulated address space, plus an IA-32-style
// two-level page table mapping virtual pages to physical frames.
//
// The content-directed prefetcher reads *actual memory contents* (cache-line
// bytes) to recognise pointers, so workloads materialise real linked data
// structures in an Image before tracing their traversal.
package mem

import (
	"encoding/binary"
	"fmt"
)

// Architectural constants for the simulated IA-32-like machine.
const (
	PageShift = 12
	PageSize  = 1 << PageShift // 4 KiB pages, as in Table 1
	PageMask  = PageSize - 1
	WordSize  = 4 // address-sized words are 32 bits
)

// Image is a sparse byte-addressable memory held in a two-level page
// directory: 1,024 tables of 1,024 pages each cover the 32-bit space, and a
// lookup is two array indexings. The zero value is an empty memory; reads
// of unbacked pages return zeros without allocating, so a sparsely touched
// 4 GiB space stays cheap.
type Image struct {
	dir   [dirEntries]*pageTable
	pages int
}

const (
	dirEntries   = 1 << 10 // page tables in the directory
	tableEntries = 1 << 10 // pages per table (4 MiB)
	tableShift   = PageShift + 10
)

type pageTable [tableEntries]*[PageSize]byte

// zeroPage backs reads of unbacked memory through Line.
var zeroPage [PageSize]byte

// NewImage returns an empty memory image.
func NewImage() *Image { return &Image{} }

// page returns the backing page for addr, allocating it if create is set.
func (m *Image) page(addr uint32, create bool) *[PageSize]byte {
	t := m.dir[addr>>tableShift]
	if t == nil {
		if !create {
			return nil
		}
		t = new(pageTable)
		m.dir[addr>>tableShift] = t
	}
	pi := addr >> PageShift & (tableEntries - 1)
	p := t[pi]
	if p == nil && create {
		p = new([PageSize]byte)
		t[pi] = p
		m.pages++
	}
	return p
}

// PageCount reports how many distinct pages are backed.
func (m *Image) PageCount() int { return m.pages }

// PageNumbers returns the backed page numbers in ascending order.
func (m *Image) PageNumbers() []uint32 {
	out := make([]uint32, 0, m.pages)
	for ti, t := range m.dir {
		if t == nil {
			continue
		}
		for pi, p := range t {
			if p != nil {
				out = append(out, uint32(ti*tableEntries+pi))
			}
		}
	}
	return out
}

// Read8 returns the byte at addr.
func (m *Image) Read8(addr uint32) byte {
	p := m.page(addr, false)
	if p == nil {
		return 0
	}
	return p[addr&PageMask]
}

// Write8 stores one byte at addr.
func (m *Image) Write8(addr uint32, v byte) {
	m.page(addr, true)[addr&PageMask] = v
}

// Read32 returns the little-endian 32-bit word at addr. The word may
// straddle a page boundary.
func (m *Image) Read32(addr uint32) uint32 {
	if addr&PageMask <= PageSize-WordSize {
		p := m.page(addr, false)
		if p == nil {
			return 0
		}
		off := addr & PageMask
		return binary.LittleEndian.Uint32(p[off : off+4])
	}
	var b [4]byte
	for i := range b {
		b[i] = m.Read8(addr + uint32(i))
	}
	return binary.LittleEndian.Uint32(b[:])
}

// Write32 stores a little-endian 32-bit word at addr. The word may straddle
// a page boundary.
func (m *Image) Write32(addr uint32, v uint32) {
	if addr&PageMask <= PageSize-WordSize {
		p := m.page(addr, true)
		off := addr & PageMask
		binary.LittleEndian.PutUint32(p[off:off+4], v)
		return
	}
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	for i := range b {
		m.Write8(addr+uint32(i), b[i])
	}
}

// ReadBytes fills dst with the bytes starting at addr.
func (m *Image) ReadBytes(addr uint32, dst []byte) {
	for len(dst) > 0 {
		off := addr & PageMask
		n := PageSize - int(off)
		if n > len(dst) {
			n = len(dst)
		}
		p := m.page(addr, false)
		if p == nil {
			for i := 0; i < n; i++ {
				dst[i] = 0
			}
		} else {
			copy(dst[:n], p[off:int(off)+n])
		}
		dst = dst[n:]
		addr += uint32(n)
	}
}

// WriteBytes stores src starting at addr.
func (m *Image) WriteBytes(addr uint32, src []byte) {
	for len(src) > 0 {
		off := addr & PageMask
		n := PageSize - int(off)
		if n > len(src) {
			n = len(src)
		}
		p := m.page(addr, true)
		copy(p[off:int(off)+n], src[:n])
		src = src[n:]
		addr += uint32(n)
	}
}

// ReadLine copies the size-byte cache line containing addr into a fresh
// slice. addr is truncated down to the line boundary.
func (m *Image) ReadLine(addr uint32, size int) []byte {
	out := make([]byte, size)
	m.ReadBytes(addr&^uint32(size-1), out)
	return out
}

// Line returns the size-byte cache line containing addr without copying
// it: the slice aliases the image's page (or shared zeros when the page is
// unbacked). size must be a power of two no larger than PageSize, so a line
// never straddles a page. Callers must treat the slice as read-only, and it
// reflects later writes to the image.
func (m *Image) Line(addr uint32, size int) []byte {
	off := addr & PageMask &^ uint32(size-1)
	p := m.page(addr, false)
	if p == nil {
		p = &zeroPage
	}
	return p[off : off+uint32(size) : off+uint32(size)]
}

func (m *Image) String() string {
	return fmt.Sprintf("mem.Image{%d pages, %d KiB backed}", m.pages, m.pages*PageSize/1024)
}
