// Package trace defines the µop trace format the performance simulator
// executes. A trace plays the role of the paper's LIT (Long Instruction
// Trace): not a bare address stream but a checkpoint — a memory image plus
// the correct-path µop sequence, with enough register-dependence information
// for an out-of-order timing model to reconstruct the program's true
// critical path (pointer-chasing loads must serialise through their
// producing loads).
package trace

import (
	"fmt"
	"iter"
)

// Kind classifies a µop.
type Kind uint8

const (
	// KInt is a single-cycle integer ALU µop.
	KInt Kind = iota
	// KFP is a floating-point µop (3-cycle latency in the model).
	KFP
	// KLoad reads the 32-bit word at Addr.
	KLoad
	// KStore writes the 32-bit word at Addr.
	KStore
	// KBranch is a conditional branch; Taken records the correct-path
	// outcome used to train and check the branch predictor.
	KBranch
)

func (k Kind) String() string {
	switch k {
	case KInt:
		return "int"
	case KFP:
		return "fp"
	case KLoad:
		return "load"
	case KStore:
		return "store"
	case KBranch:
		return "branch"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// NumRegs is the size of the architectural register file visible in traces.
const NumRegs = 16

// NoReg marks an unused register operand.
const NoReg uint8 = 0xFF

// Op is one µop in decoded form, 16 bytes. Op is what Builder.Emit takes
// and Trace.At and Trace.All return; a Trace stores µops template-coded.
type Op struct {
	PC    uint32
	Addr  uint32 // effective virtual address; loads and stores only
	Kind  Kind
	Src1  uint8 // NoReg if unused
	Src2  uint8 // NoReg if unused
	Dst   uint8 // NoReg if none
	Taken bool  // branches only
}

// Packed is one µop in the 8 bytes the core's ROB holds it in. The low
// word is the effective address. The high word holds, from bit 32 up, the
// kind (3 bits), the taken flag (1 bit), Src1, Src2 and Dst (5 bits each,
// PackedNoReg when unused) and a 13-bit index into the trace's PC table.
// The core reads the fields in place instead of decoding an Op per µop.
type Packed uint64

const (
	kindShift  = 32
	takenShift = 35
	src1Shift  = 36
	src2Shift  = 41
	dstShift   = 46
	pcShift    = 51
	regMask    = 1<<5 - 1

	// PackedNoReg is NoReg in a packed register field. It is at least
	// NumRegs, so a reader that treats a register >= NumRegs as absent
	// needs no decode step.
	PackedNoReg = regMask
	// MaxPCs is how many distinct PCs one trace can hold.
	MaxPCs = 1 << (64 - pcShift)
	// MaxTemplates is how many distinct templates (Packed high words) one
	// trace can hold: a µop's code is 2 bytes.
	MaxTemplates = 1 << 16
	// seekStride is the µop distance between the entries of a trace's
	// address index, so a seek scans fewer than seekStride codes.
	seekStride = 4096
)

// Addr returns the µop's effective virtual address.
func (p Packed) Addr() uint32 { return uint32(p) }

// Kind returns the µop's kind.
func (p Packed) Kind() Kind { return Kind(p >> kindShift & 7) }

// Taken returns a branch's correct-path outcome.
func (p Packed) Taken() bool { return p>>takenShift&1 != 0 }

// Src1 returns the first source register, PackedNoReg if unused.
func (p Packed) Src1() uint8 { return uint8(p>>src1Shift) & regMask }

// Src2 returns the second source register, PackedNoReg if unused.
func (p Packed) Src2() uint8 { return uint8(p>>src2Shift) & regMask }

// Dst returns the destination register, PackedNoReg if none.
func (p Packed) Dst() uint8 { return uint8(p>>dstShift) & regMask }

// pcIndex returns the µop's index into its trace's PC table.
func (p Packed) pcIndex() int { return int(p >> pcShift) }

// hasAddr reports whether p is a load (kind 2) or a store (kind 3), the
// only µops whose address a trace stores.
func (p Packed) hasAddr() bool { return p>>kindShift&6 == 2 }

// Trace is an in-memory µop sequence, template-coded: each µop is a 2-byte
// code into a table of the distinct templates (Packed high words) it uses,
// and each load's and store's address sits, in trace order, in a side
// array. A sparse index of the address count before every seekStride-th
// µop lets a reader start anywhere.
type Trace struct {
	codes []uint16
	tmpls []Packed
	addrs []uint32
	// index[k] is the number of addresses before µop (k+1)*seekStride.
	index []uint32
	pcs   []uint32
}

// Len returns the number of µops.
func (t *Trace) Len() int { return len(t.codes) }

// Templates returns the number of distinct templates the trace uses.
func (t *Trace) Templates() int { return len(t.tmpls) }

// Bytes returns the memory the trace holds: its codes, addresses, index,
// template table and PC table.
func (t *Trace) Bytes() int {
	return 2*cap(t.codes) + 8*cap(t.tmpls) + 4*cap(t.addrs) + 4*cap(t.index) + 4*cap(t.pcs)
}

// PC returns the PC of p, one of t's µops.
func (t *Trace) PC(p Packed) uint32 { return t.pcs[p.pcIndex()] }

// At decodes µop i. It seeks from the address index, scanning up to
// seekStride-1 codes: walk a whole trace with All or IterFrom instead.
func (t *Trace) At(i int) Op {
	it := t.IterFrom(i)
	return t.decode(it.Next())
}

// All yields every µop in order with its index.
func (t *Trace) All() iter.Seq2[int, Op] {
	return func(yield func(int, Op) bool) {
		it := t.IterFrom(0)
		for i := range t.Len() {
			if !yield(i, t.decode(it.Next())) {
				return
			}
		}
	}
}

// decode unpacks p, one of t's µops.
func (t *Trace) decode(p Packed) Op {
	return Op{
		PC:    t.PC(p),
		Addr:  p.Addr(),
		Kind:  p.Kind(),
		Src1:  unpackReg(p.Src1()),
		Src2:  unpackReg(p.Src2()),
		Dst:   unpackReg(p.Dst()),
		Taken: p.Taken(),
	}
}

// Iter reads a trace's µops in order, rebuilding each one's Packed form:
// its template, ORed with the next address for a load or store.
type Iter struct {
	codes []uint16
	tmpls []Packed
	addrs []uint32
	i, a  int // the next µop, and the next load's or store's address in addrs
}

// IterFrom returns an iterator whose first Next is µop i, for i in
// [0, Len()]. It finds i's address cursor from the address index and a
// scan of fewer than seekStride codes.
func (t *Trace) IterFrom(i int) Iter {
	if i < 0 || i > len(t.codes) {
		panic(fmt.Sprintf("trace: iterator start %d outside [0,%d]", i, len(t.codes)))
	}
	it := Iter{codes: t.codes, tmpls: t.tmpls, addrs: t.addrs, i: i}
	k := i / seekStride
	if k > 0 {
		it.a = int(t.index[k-1])
	}
	for _, c := range t.codes[k*seekStride : i] {
		if t.tmpls[c].hasAddr() {
			it.a++
		}
	}
	return it
}

// Next returns the next µop. Calling it past the trace's end panics.
func (it *Iter) Next() Packed {
	p := it.tmpls[it.codes[it.i]]
	it.i++
	if p.hasAddr() {
		p |= Packed(it.addrs[it.a])
		it.a++
	}
	return p
}

func unpackReg(r uint8) uint8 {
	if r == PackedNoReg {
		return NoReg
	}
	return r
}

// packReg returns r's packed form, or false for a register that is neither
// architectural nor NoReg.
func packReg(r uint8) (Packed, bool) {
	switch {
	case r < NumRegs:
		return Packed(r), true
	case r == NoReg:
		return PackedNoReg, true
	}
	return 0, false
}

// Builder accumulates a trace with convenience emitters. PCs are synthetic:
// callers pin a PC per static emission site so the stride prefetcher and
// gshare see stable instruction identities.
type Builder struct {
	codes []uint16
	tmpls []Packed
	addrs []uint32
	index []uint32
	pcs   []uint32
	// pcIdx maps each PC emitted so far to its index in pcs, and tmplIdx
	// each template to its code. Only the builder needs them; the finished
	// trace keeps pcs and tmpls alone.
	pcIdx   map[uint32]Packed
	tmplIdx map[Packed]uint16
}

// NewBuilder returns an empty trace builder.
func NewBuilder() *Builder {
	return &Builder{pcIdx: map[uint32]Packed{}, tmplIdx: map[Packed]uint16{}}
}

// Emit appends a raw µop. It panics on a µop a trace cannot hold: an
// unknown kind, a register outside [0,NumRegs) that is not NoReg, an
// address on a µop that is neither a load nor a store, a PC beyond the
// trace's MaxPCs distinct ones, or a template beyond its MaxTemplates.
func (b *Builder) Emit(op Op) {
	if err := b.add(op); err != nil {
		panic(fmt.Sprintf("trace: emitting %+v: %v", op, err))
	}
}

// add codes and appends op, or reports why it cannot, leaving the builder
// as it was.
func (b *Builder) add(op Op) error {
	if op.Kind > KBranch {
		return fmt.Errorf("unknown kind %d", op.Kind)
	}
	src1, ok1 := packReg(op.Src1)
	src2, ok2 := packReg(op.Src2)
	dst, ok3 := packReg(op.Dst)
	switch {
	case !ok1:
		return fmt.Errorf("src1 register %d out of range", op.Src1)
	case !ok2:
		return fmt.Errorf("src2 register %d out of range", op.Src2)
	case !ok3:
		return fmt.Errorf("dst register %d out of range", op.Dst)
	}
	tmpl := Packed(op.Kind)<<kindShift | src1<<src1Shift | src2<<src2Shift | dst<<dstShift
	if op.Taken {
		tmpl |= 1 << takenShift
	}
	if op.Addr != 0 && !tmpl.hasAddr() {
		return fmt.Errorf("address %#x on a %v µop", op.Addr, op.Kind)
	}
	pc, knownPC := b.pcIdx[op.PC]
	if !knownPC {
		if len(b.pcs) == MaxPCs {
			return fmt.Errorf("more than %d distinct PCs", MaxPCs)
		}
		pc = Packed(len(b.pcs))
	}
	tmpl |= pc << pcShift
	code, known := b.tmplIdx[tmpl]
	if !known {
		if len(b.tmpls) == MaxTemplates {
			return fmt.Errorf("more than %d templates", MaxTemplates)
		}
		code = uint16(len(b.tmpls))
		b.tmplIdx[tmpl] = code
		b.tmpls = append(b.tmpls, tmpl)
	}
	if !knownPC {
		b.pcIdx[op.PC] = pc
		b.pcs = append(b.pcs, op.PC)
	}
	b.codes = append(b.codes, code)
	if tmpl.hasAddr() {
		b.addrs = append(b.addrs, op.Addr)
	}
	if len(b.codes)%seekStride == 0 {
		b.index = append(b.index, uint32(len(b.addrs)))
	}
	return nil
}

// Int appends an integer ALU µop dst = f(src1, src2).
func (b *Builder) Int(pc uint32, dst, src1, src2 uint8) {
	b.Emit(Op{PC: pc, Kind: KInt, Dst: dst, Src1: src1, Src2: src2})
}

// FP appends a floating-point µop.
func (b *Builder) FP(pc uint32, dst, src1, src2 uint8) {
	b.Emit(Op{PC: pc, Kind: KFP, Dst: dst, Src1: src1, Src2: src2})
}

// Load appends a load of addr into dst, address-dependent on addrSrc
// (NoReg if the address needs no register, e.g. absolute).
func (b *Builder) Load(pc uint32, dst, addrSrc uint8, addr uint32) {
	b.Emit(Op{PC: pc, Kind: KLoad, Dst: dst, Src1: addrSrc, Src2: NoReg, Addr: addr})
}

// Store appends a store of valSrc to addr, address-dependent on addrSrc.
func (b *Builder) Store(pc uint32, valSrc, addrSrc uint8, addr uint32) {
	b.Emit(Op{PC: pc, Kind: KStore, Dst: NoReg, Src1: valSrc, Src2: addrSrc, Addr: addr})
}

// Branch appends a conditional branch whose outcome depends on condSrc.
func (b *Builder) Branch(pc uint32, condSrc uint8, taken bool) {
	b.Emit(Op{PC: pc, Kind: KBranch, Dst: NoReg, Src1: condSrc, Src2: NoReg, Taken: taken})
}

// Len returns the number of µops emitted so far.
func (b *Builder) Len() int { return len(b.codes) }

// Trace returns the µops emitted so far as a trace whose arrays are
// exactly as long as their contents, leaving no spare capacity behind.
// The builder remains usable, but later emissions do not change the
// returned trace.
func (b *Builder) Trace() *Trace {
	b.codes, b.tmpls, b.addrs = clip(b.codes), clip(b.tmpls), clip(b.addrs)
	b.index, b.pcs = clip(b.index), clip(b.pcs)
	return &Trace{codes: b.codes, tmpls: b.tmpls, addrs: b.addrs, index: b.index, pcs: b.pcs}
}

// clip returns s, copied into an array of exactly its length when s has
// spare capacity. A later append to either copy then reallocates.
func clip[T any](s []T) []T {
	if cap(s) == len(s) {
		return s
	}
	return append(make([]T, 0, len(s)), s...)
}

// Mix summarises the µop composition of a trace.
type Mix struct {
	Int, FP, Load, Store, Branch int
}

// Total returns the µop count.
func (m Mix) Total() int { return m.Int + m.FP + m.Load + m.Store + m.Branch }

// MixOf tallies the composition of t.
func MixOf(t *Trace) Mix {
	var n [8]int
	for _, c := range t.codes {
		n[t.tmpls[c].Kind()]++
	}
	return Mix{Int: n[KInt], FP: n[KFP], Load: n[KLoad], Store: n[KStore], Branch: n[KBranch]}
}

func (m Mix) String() string {
	return fmt.Sprintf("mix{int:%d fp:%d ld:%d st:%d br:%d}", m.Int, m.FP, m.Load, m.Store, m.Branch)
}
