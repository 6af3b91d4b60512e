package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/mem"
)

// Checkpoint is the LIT-like unit the simulator executes: a snapshot of
// memory (with its page table already materialised) plus the correct-path
// µop trace captured over it.
type Checkpoint struct {
	Name  string
	Space *mem.AddressSpace
	Trace *Trace
	// Instrs is the logical (IA-32-style) instruction count behind the
	// µop trace; Table 2 reports both.
	Instrs int
}

// File format: all integers little-endian.
//
//	magic "CDPT" | version u32 | nameLen u32 | name bytes
//	opCount u64 | ops (16 bytes each: pc, addr, kind, src1, src2, dst, flags, pad3)
//	pageCount u64 | pages (pageNum u32 + 4096 raw bytes each)
//	mapCount u64 | mappings (vpage u32 + frame u32 each)
const (
	magic       = "CDPT"
	fileVersion = 1
	opRecSize   = 16
)

// WriteTo serialises the checkpoint. Only the raw memory pages and the
// virtual-to-frame map are stored; the page-table pages are included among
// the raw pages (they live in the image), so a restored checkpoint walks
// identically. Pages go out in ascending page number and mappings in
// ascending virtual page, so equal checkpoints serialise to equal bytes.
func (c *Checkpoint) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	var n int64
	write := func(data any) error {
		if err := binary.Write(bw, binary.LittleEndian, data); err != nil {
			return err
		}
		n += int64(binary.Size(data))
		return nil
	}
	if _, err := bw.WriteString(magic); err != nil {
		return n, err
	}
	n += int64(len(magic))
	if err := write(uint32(fileVersion)); err != nil {
		return n, err
	}
	name := []byte(c.Name)
	if err := write(uint32(len(name))); err != nil {
		return n, err
	}
	if _, err := bw.Write(name); err != nil {
		return n, err
	}
	n += int64(len(name))

	if err := write(uint64(c.Instrs)); err != nil {
		return n, err
	}
	tr := c.Trace
	if err := write(uint64(tr.Len())); err != nil {
		return n, err
	}
	var rec [opRecSize]byte
	for _, op := range tr.All() {
		binary.LittleEndian.PutUint32(rec[0:], op.PC)
		binary.LittleEndian.PutUint32(rec[4:], op.Addr)
		rec[8] = uint8(op.Kind)
		rec[9] = op.Src1
		rec[10] = op.Src2
		rec[11] = op.Dst
		rec[12] = 0
		if op.Taken {
			rec[12] = 1
		}
		rec[13], rec[14], rec[15] = 0, 0, 0
		if _, err := bw.Write(rec[:]); err != nil {
			return n, err
		}
		n += opRecSize
	}

	img := c.Space.Img
	pageNums := img.PageNumbers()
	if err := write(uint64(len(pageNums))); err != nil {
		return n, err
	}
	buf := make([]byte, mem.PageSize)
	for _, pn := range pageNums {
		if err := write(pn); err != nil {
			return n, err
		}
		img.ReadBytes(pn<<mem.PageShift, buf)
		if _, err := bw.Write(buf); err != nil {
			return n, err
		}
		n += int64(len(buf))
	}

	maps := c.Space.Mappings()
	if err := write(uint64(len(maps))); err != nil {
		return n, err
	}
	for _, m := range maps {
		if err := write(m.VPage); err != nil {
			return n, err
		}
		if err := write(m.Frame); err != nil {
			return n, err
		}
	}
	return n, bw.Flush()
}

// ReadCheckpoint deserialises a checkpoint written by WriteTo.
func ReadCheckpoint(r io.Reader) (*Checkpoint, error) {
	br := bufio.NewReader(r)
	var m [4]byte
	if _, err := io.ReadFull(br, m[:]); err != nil {
		return nil, fmt.Errorf("trace: reading magic: %w", err)
	}
	if string(m[:]) != magic {
		return nil, fmt.Errorf("trace: bad magic %q", m[:])
	}
	var version, nameLen uint32
	if err := binary.Read(br, binary.LittleEndian, &version); err != nil {
		return nil, err
	}
	if version != fileVersion {
		return nil, fmt.Errorf("trace: unsupported version %d", version)
	}
	if err := binary.Read(br, binary.LittleEndian, &nameLen); err != nil {
		return nil, err
	}
	if nameLen > 1<<20 {
		return nil, fmt.Errorf("trace: implausible name length %d", nameLen)
	}
	name := make([]byte, nameLen)
	if _, err := io.ReadFull(br, name); err != nil {
		return nil, err
	}

	var instrs, opCount uint64
	if err := binary.Read(br, binary.LittleEndian, &instrs); err != nil {
		return nil, err
	}
	if err := binary.Read(br, binary.LittleEndian, &opCount); err != nil {
		return nil, err
	}
	// The builder grows as records actually arrive rather than trusting the
	// header's count: a corrupt (or hostile) opCount would otherwise demand
	// an arbitrarily large upfront allocation before the first read fails.
	// It refuses what a trace cannot hold (an unknown kind, a register
	// outside [0,NumRegs) that is not NoReg, an address on a µop that is
	// neither a load nor a store, more than MaxPCs distinct PCs or
	// MaxTemplates templates), so every accepted op is one the core can
	// run.
	b := NewBuilder()
	var rec [opRecSize]byte
	for i := uint64(0); i < opCount; i++ {
		if _, err := io.ReadFull(br, rec[:]); err != nil {
			return nil, fmt.Errorf("trace: op %d: %w", i, err)
		}
		err := b.add(Op{
			PC:    binary.LittleEndian.Uint32(rec[0:]),
			Addr:  binary.LittleEndian.Uint32(rec[4:]),
			Kind:  Kind(rec[8]),
			Src1:  rec[9],
			Src2:  rec[10],
			Dst:   rec[11],
			Taken: rec[12] != 0,
		})
		if err != nil {
			return nil, fmt.Errorf("trace: op %d: %w", i, err)
		}
	}

	space := mem.NewAddressSpace()
	var pageCount uint64
	if err := binary.Read(br, binary.LittleEndian, &pageCount); err != nil {
		return nil, err
	}
	buf := make([]byte, mem.PageSize)
	for i := uint64(0); i < pageCount; i++ {
		var pn uint32
		if err := binary.Read(br, binary.LittleEndian, &pn); err != nil {
			return nil, err
		}
		if _, err := io.ReadFull(br, buf); err != nil {
			return nil, err
		}
		space.Img.WriteBytes(pn<<mem.PageShift, buf)
	}

	var mapCount uint64
	if err := binary.Read(br, binary.LittleEndian, &mapCount); err != nil {
		return nil, err
	}
	for i := uint64(0); i < mapCount; i++ {
		var vpage, frame uint32
		if err := binary.Read(br, binary.LittleEndian, &vpage); err != nil {
			return nil, err
		}
		if err := binary.Read(br, binary.LittleEndian, &frame); err != nil {
			return nil, err
		}
		space.RestoreMapping(vpage, frame)
	}

	return &Checkpoint{Name: string(name), Space: space, Trace: b.Trace(), Instrs: int(instrs)}, nil
}
