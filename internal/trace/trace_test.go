package trace

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/mem"
)

func TestBuilderEmitters(t *testing.T) {
	b := NewBuilder()
	b.Int(0x100, 1, 2, 3)
	b.FP(0x104, 4, 5, NoReg)
	b.Load(0x108, 6, 1, 0xDEAD_0000)
	b.Store(0x10C, 6, 1, 0xDEAD_0004)
	b.Branch(0x110, 6, true)
	tr := b.Trace()
	if tr.Len() != 5 {
		t.Fatalf("len = %d", tr.Len())
	}
	want := []Kind{KInt, KFP, KLoad, KStore, KBranch}
	for i, k := range want {
		if got := tr.At(i).Kind; got != k {
			t.Fatalf("op %d kind = %v, want %v", i, got, k)
		}
	}
	if !tr.At(4).Taken {
		t.Fatal("branch outcome lost")
	}
	if op := tr.At(2); op.Addr != 0xDEAD_0000 || op.Dst != 6 {
		t.Fatal("load fields lost")
	}
	m := MixOf(tr)
	if m != (Mix{Int: 1, FP: 1, Load: 1, Store: 1, Branch: 1}) {
		t.Fatalf("mix = %+v", m)
	}
	if m.Total() != 5 {
		t.Fatalf("total = %d", m.Total())
	}
}

// regOf maps any byte to a register a trace can hold: one in [0,NumRegs)
// or NoReg.
func regOf(r uint8) uint8 {
	if r %= NumRegs + 1; r == NumRegs {
		return NoReg
	}
	return r
}

// randomOps draws n µops of all five kinds with random registers, PCs drawn
// from pcs (any PC when pcs is nil) and taken bits, and random addresses on
// the loads and stores.
func randomOps(rng *rand.Rand, n int, pcs []uint32) []Op {
	ops := make([]Op, n)
	for i := range ops {
		pc := rng.Uint32()
		if pcs != nil {
			pc = pcs[rng.Intn(len(pcs))]
		}
		ops[i] = Op{
			PC:    pc,
			Kind:  Kind(rng.Intn(5)),
			Src1:  regOf(uint8(rng.Intn(256))),
			Src2:  regOf(uint8(rng.Intn(256))),
			Dst:   regOf(uint8(rng.Intn(256))),
			Taken: rng.Intn(2) == 1,
		}
		if k := ops[i].Kind; k == KLoad || k == KStore {
			ops[i].Addr = rng.Uint32()
		}
	}
	return ops
}

// traceOf codes ops into a trace.
func traceOf(ops []Op) *Trace {
	b := NewBuilder()
	for _, op := range ops {
		b.Emit(op)
	}
	return b.Trace()
}

// opsOf decodes every µop of t in one sequential walk.
func opsOf(t *Trace) []Op {
	ops := make([]Op, 0, t.Len())
	for _, op := range t.All() {
		ops = append(ops, op)
	}
	return ops
}

// Every µop a trace can hold comes back from the iterator unchanged, the
// in-place field readers agree with it, and the finished trace keeps no
// spare capacity in any of its arrays.
func TestBuilderPacksEveryOp(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	pcs := make([]uint32, 300)
	for i := range pcs {
		pcs[i] = rng.Uint32()
	}
	for _, n := range []int{0, 1, 7, 1000, 30_001} {
		ops := randomOps(rng, n, pcs)
		tr := traceOf(ops)
		if tr.Len() != n {
			t.Fatalf("%d µops: Len %d", n, tr.Len())
		}
		for name, spare := range map[string]int{
			"codes": cap(tr.codes) - len(tr.codes), "templates": cap(tr.tmpls) - len(tr.tmpls),
			"addresses": cap(tr.addrs) - len(tr.addrs), "index": cap(tr.index) - len(tr.index),
			"PCs": cap(tr.pcs) - len(tr.pcs),
		} {
			if spare != 0 {
				t.Fatalf("%d µops: %s array keeps %d spare entries", n, name, spare)
			}
		}
		if want := 2*n + 8*len(tr.tmpls) + 4*len(tr.addrs) + 4*(n/seekStride) + 4*len(tr.pcs); tr.Bytes() != want {
			t.Fatalf("%d µops: Bytes %d, want %d", n, tr.Bytes(), want)
		}
		if !slices.Equal(opsOf(tr), ops) {
			t.Fatalf("%d µops: All disagrees with the emitted µops", n)
		}
		it := tr.IterFrom(0)
		for i, op := range ops {
			p := it.Next()
			if got := tr.decode(p); got != op {
				t.Fatalf("µop %d of %d: Next = %+v, emitted %+v", i, n, got, op)
			}
			if p.Kind() != op.Kind || p.Addr() != op.Addr || p.Taken() != op.Taken || tr.PC(p) != op.PC {
				t.Fatalf("µop %d: packed fields %v %#x %v %#x, emitted %+v", i, p.Kind(), p.Addr(), p.Taken(), tr.PC(p), op)
			}
			for _, r := range [][2]uint8{{p.Src1(), op.Src1}, {p.Src2(), op.Src2}, {p.Dst(), op.Dst}} {
				if r[0] != r[1] && (r[0] != PackedNoReg || r[1] != NoReg) {
					t.Fatalf("µop %d: packed register %d, emitted %d (%+v)", i, r[0], r[1], op)
				}
			}
		}
	}
}

// panics runs f and returns what it panicked with, "" if it did not.
func panics(f func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	f()
	return ""
}

// Emit refuses what a trace cannot hold.
func TestEmitPanicsOnUnrepresentableOp(t *testing.T) {
	for _, op := range []Op{
		{Kind: KBranch + 1, Src1: NoReg, Src2: NoReg, Dst: NoReg},
		{Kind: KInt, Src1: NumRegs, Src2: NoReg, Dst: NoReg},
		{Kind: KInt, Src1: NoReg, Src2: PackedNoReg, Dst: NoReg},
		{Kind: KInt, Src1: NoReg, Src2: NoReg, Dst: 0xFE},
		{Kind: KBranch, Src1: NoReg, Src2: NoReg, Dst: NoReg, Addr: 4},
	} {
		if msg := panics(func() { NewBuilder().Emit(op) }); msg == "" {
			t.Fatalf("Emit(%+v) did not panic", op)
		}
	}
	b := NewBuilder()
	for pc := range uint32(MaxPCs) {
		b.Int(4*pc, 1, 2, NoReg)
	}
	b.Int(0, 1, 2, NoReg) // a PC already in the table
	if msg := panics(func() { b.Int(4*MaxPCs, 1, 2, NoReg) }); !strings.Contains(msg, "more than 8192 distinct PCs") {
		t.Fatalf("PC %d of a full table: panic %q", MaxPCs+1, msg)
	}
	if b.Len() != MaxPCs+1 {
		t.Fatalf("refused µop was kept: Len %d", b.Len())
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	space := mem.NewAddressSpace()
	space.EnsureMapped(0x1000_0000, 3*mem.PageSize)
	space.Img.Write32(0x1000_0010, 0xCAFE_BABE)
	space.Img.Write32(0x1000_2FFC, 0x1234_5678)

	ck := &Checkpoint{
		Name:  "unit",
		Space: space,
		Trace: traceOf(randomOps(rng, 1000, nil)),
	}
	var buf bytes.Buffer
	if _, err := ck.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCheckpoint(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != "unit" {
		t.Fatalf("name = %q", got.Name)
	}
	if got.Trace.Len() != 1000 {
		t.Fatalf("ops = %d", got.Trace.Len())
	}
	want := opsOf(ck.Trace)
	for i, op := range got.Trace.All() {
		if op != want[i] {
			t.Fatalf("op %d differs: %+v vs %+v", i, op, want[i])
		}
	}
	if v := got.Space.Img.Read32(0x1000_0010); v != 0xCAFE_BABE {
		t.Fatalf("memory word lost: %#x", v)
	}
	// Translations must agree between original and restored spaces.
	for _, va := range []uint32{0x1000_0000, 0x1000_1234, 0x1000_2FFC} {
		want, ok1 := space.Translate(va)
		gotPA, ok2 := got.Space.Translate(va)
		if !ok1 || !ok2 || want != gotPA {
			t.Fatalf("translate(%#x): orig=%#x(%v) restored=%#x(%v)", va, want, ok1, gotPA, ok2)
		}
	}
	// The hardware walk must also work on the restored image.
	_, frame, ok := got.Space.Walk(0x1000_1000)
	if !ok {
		t.Fatal("restored walk failed")
	}
	if pa, _ := got.Space.Translate(0x1000_1000); frame<<mem.PageShift != pa {
		t.Fatal("restored walk disagrees with translate")
	}
}

func TestRestoredSpaceStillAllocates(t *testing.T) {
	space := mem.NewAddressSpace()
	space.EnsureMapped(0x2000_0000, 2*mem.PageSize)
	ck := &Checkpoint{Name: "x", Space: space, Trace: NewBuilder().Trace()}
	var buf bytes.Buffer
	if _, err := ck.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCheckpoint(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// Mapping a new page after restore must not collide with restored frames.
	oldPA, _ := got.Space.Translate(0x2000_0000)
	got.Space.MapPage(0x3000_0000)
	newPA, ok := got.Space.Translate(0x3000_0000)
	if !ok {
		t.Fatal("post-restore mapping failed")
	}
	if newPA>>mem.PageShift == oldPA>>mem.PageShift {
		t.Fatal("post-restore frame collides with restored frame")
	}
}

func TestCheckpointRejectsGarbage(t *testing.T) {
	if _, err := ReadCheckpoint(bytes.NewReader([]byte("NOPE1234"))); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := ReadCheckpoint(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty input accepted")
	}
}

// A checkpoint whose op carries a kind past KBranch is refused with an
// error naming the op and the kind, instead of loading an op no core can
// ever issue.
func TestCheckpointRejectsUnknownKind(t *testing.T) {
	ck := fuzzSeedCheckpoint()
	var buf bytes.Buffer
	if _, err := ck.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	// magic(4) version(4) nameLen(4) name instrs(8) opCount(8), then 16-byte
	// op records with the kind at offset 8.
	const op = 2
	data := buf.Bytes()
	off := 4 + 4 + 4 + len(ck.Name) + 8 + 8 + op*opRecSize + 8
	if got := Kind(data[off]); got != ck.Trace.At(op).Kind {
		t.Fatalf("byte %d holds %v, want op %d's kind %v", off, got, op, ck.Trace.At(op).Kind)
	}
	data[off] = 9
	_, err := ReadCheckpoint(bytes.NewReader(data))
	if err == nil || err.Error() != "trace: op 2: unknown kind 9" {
		t.Fatalf("corrupt kind: err %v, want \"trace: op 2: unknown kind 9\"", err)
	}
}

// A checkpoint whose op names a register that is neither architectural nor
// NoReg is refused with an error naming the op and the register; before
// the trace was packed the core silently read such a register as absent.
func TestCheckpointRejectsBadRegister(t *testing.T) {
	ck := fuzzSeedCheckpoint()
	var buf bytes.Buffer
	if _, err := ck.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	// The op record's register bytes follow its kind at offset 8.
	const op = 1
	recOff := 4 + 4 + 4 + len(ck.Name) + 8 + 8 + op*opRecSize
	for field, name := range []string{"src1", "src2", "dst"} {
		off := recOff + 9 + field
		for _, r := range []byte{NumRegs, 17, 31, 32, 0x80, 0xFE} {
			data := bytes.Clone(buf.Bytes())
			data[off] = r
			_, err := ReadCheckpoint(bytes.NewReader(data))
			want := fmt.Sprintf("trace: op 1: %s register %d out of range", name, r)
			if err == nil || err.Error() != want {
				t.Fatalf("%s byte %d: err %v, want %q", name, r, err, want)
			}
		}
	}
}

// A checkpoint giving an address to a µop that is neither a load nor a
// store is refused with an error naming the op: a trace stores addresses
// for loads and stores alone, so it could not give that address back.
func TestCheckpointRejectsAddressOnNonMemoryOp(t *testing.T) {
	ck := fuzzSeedCheckpoint()
	var buf bytes.Buffer
	if _, err := ck.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	// Op 1 is an integer µop; its record's address is at offset 4.
	const op = 1
	off := 4 + 4 + 4 + len(ck.Name) + 8 + 8 + op*opRecSize + 4
	data := buf.Bytes()
	binary.LittleEndian.PutUint32(data[off:], 0x1000_0040)
	_, err := ReadCheckpoint(bytes.NewReader(data))
	if want := "trace: op 1: address 0x10000040 on a int µop"; err == nil || err.Error() != want {
		t.Fatalf("address on an int µop: err %v, want %q", err, want)
	}
}

// A checkpoint with more distinct PCs than a trace's PC table holds is
// refused with an error, not a panic.
func TestCheckpointRejectsTooManyPCs(t *testing.T) {
	write := func(pcs int) []byte {
		t.Helper()
		ops := make([]Op, pcs)
		for i := range ops {
			ops[i] = Op{PC: uint32(4 * i), Kind: KInt, Src1: NoReg, Src2: NoReg, Dst: NoReg}
		}
		var buf bytes.Buffer
		if _, err := (&Checkpoint{Name: "pcs", Space: mem.NewAddressSpace(), Trace: traceOf(ops)}).WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if _, err := ReadCheckpoint(bytes.NewReader(write(MaxPCs))); err != nil {
		t.Fatalf("%d distinct PCs: %v", MaxPCs, err)
	}
	// Raise the record count by one and append a copy of the first record
	// with a PC no other op has.
	data := write(MaxPCs)
	opsOff := 4 + 4 + 4 + len("pcs") + 8
	var grown []byte
	grown = append(grown, data[:opsOff]...)
	grown = binary.LittleEndian.AppendUint64(grown, MaxPCs+1)
	grown = append(grown, data[opsOff+8:opsOff+8+MaxPCs*opRecSize]...)
	extra := bytes.Clone(data[opsOff+8 : opsOff+8+opRecSize])
	binary.LittleEndian.PutUint32(extra, 4*MaxPCs)
	grown = append(grown, extra...)
	grown = append(grown, data[opsOff+8+MaxPCs*opRecSize:]...)
	_, err := ReadCheckpoint(bytes.NewReader(grown))
	if want := "trace: op 8192: more than 8192 distinct PCs"; err == nil || err.Error() != want {
		t.Fatalf("%d distinct PCs: err %v, want %q", MaxPCs+1, err, want)
	}
}

// A checkpoint needing more templates than a 2-byte code can name is
// refused with an error naming the op; one needing exactly MaxTemplates
// loads. Each op of the file has its own template: 8,192 PCs, each with
// eight first source registers.
func TestCheckpointRejectsTooManyTemplates(t *testing.T) {
	const perPC = MaxTemplates / MaxPCs
	write := func(n int) []byte {
		t.Helper()
		ops := make([]Op, n)
		for i := range ops {
			ops[i] = Op{PC: uint32(4 * (i % MaxPCs)), Kind: KInt, Src1: uint8(i / MaxPCs), Src2: NoReg, Dst: NoReg}
		}
		var buf bytes.Buffer
		ck := &Checkpoint{Name: "tmpl", Space: mem.NewAddressSpace(), Trace: traceOf(ops[:min(n, MaxTemplates)])}
		if _, err := ck.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		if n <= MaxTemplates {
			return buf.Bytes()
		}
		// A trace cannot hold the last op, so splice its record into the
		// file by hand: raise the count and append a record whose first
		// source register no other op at its PC uses.
		data := buf.Bytes()
		opsOff := 4 + 4 + 4 + len("tmpl") + 8
		end := opsOff + 8 + MaxTemplates*opRecSize
		var grown []byte
		grown = append(grown, data[:opsOff]...)
		grown = binary.LittleEndian.AppendUint64(grown, uint64(n))
		grown = append(grown, data[opsOff+8:end]...)
		extra := bytes.Clone(data[opsOff+8 : opsOff+8+opRecSize])
		extra[9] = perPC
		grown = append(grown, extra...)
		return append(grown, data[end:]...)
	}
	got, err := ReadCheckpoint(bytes.NewReader(write(MaxTemplates)))
	if err != nil {
		t.Fatalf("%d templates: %v", MaxTemplates, err)
	}
	if got.Trace.Templates() != MaxTemplates {
		t.Fatalf("read back %d templates, want %d", got.Trace.Templates(), MaxTemplates)
	}
	_, err = ReadCheckpoint(bytes.NewReader(write(MaxTemplates + 1)))
	if want := "trace: op 65536: more than 65536 templates"; err == nil || err.Error() != want {
		t.Fatalf("%d templates: err %v, want %q", MaxTemplates+1, err, want)
	}
	b := NewBuilder()
	for _, op := range got.Trace.All() {
		b.Emit(op)
	}
	if msg := panics(func() { b.Int(0, 1, perPC, NoReg) }); !strings.Contains(msg, "more than 65536 templates") {
		t.Fatalf("template %d: Emit panic %q", MaxTemplates+1, msg)
	}
	if b.Len() != MaxTemplates || len(b.pcs) != MaxPCs {
		t.Fatalf("refused µop was kept: Len %d, %d PCs", b.Len(), len(b.pcs))
	}
}

// A seek agrees with a sequential walk: for every start i, At(i) is the
// walk's µop i and an iterator started at i holds the walk's address
// cursor, on traces ending just before, at and after an index entry.
func TestSeekAgreesWithWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(4096))
	pcs := []uint32{0x100, 0x104, 0x108, 0x10c, 0x110, 0x114, 0x118}
	for _, n := range []int{0, 1, seekStride - 1, seekStride, seekStride + 1, 3*seekStride + 7} {
		ops := randomOps(rng, n, pcs)
		tr := traceOf(ops)
		walk := tr.IterFrom(0)
		for i := range n + 1 {
			it := tr.IterFrom(i)
			if it.i != walk.i || it.a != walk.a {
				t.Fatalf("%d µops: iterator from %d at (µop %d, address %d), walk at (%d, %d)", n, i, it.i, it.a, walk.i, walk.a)
			}
			if i == n {
				break
			}
			p := walk.Next()
			if got := it.Next(); got != p {
				t.Fatalf("%d µops: iterator from %d reads %#x, walk %#x", n, i, got, p)
			}
			if op := tr.At(i); op != tr.decode(p) || op != ops[i] {
				t.Fatalf("%d µops: At(%d) = %+v, walk %+v, emitted %+v", n, i, op, tr.decode(p), ops[i])
			}
		}
		if walk.a != len(tr.addrs) {
			t.Fatalf("%d µops: walk used %d of %d addresses", n, walk.a, len(tr.addrs))
		}
	}
}

func TestOpEncodeQuick(t *testing.T) {
	f := func(pc, addr uint32, kind uint8, s1, s2, d uint8, taken bool) bool {
		op := Op{PC: pc, Kind: Kind(kind % 5), Src1: regOf(s1), Src2: regOf(s2), Dst: regOf(d), Taken: taken}
		if op.Kind == KLoad || op.Kind == KStore {
			op.Addr = addr
		}
		ck := &Checkpoint{Name: "q", Space: mem.NewAddressSpace(), Trace: traceOf([]Op{op})}
		var buf bytes.Buffer
		if _, err := ck.WriteTo(&buf); err != nil {
			return false
		}
		got, err := ReadCheckpoint(&buf)
		if err != nil {
			return false
		}
		return got.Trace.At(0) == op
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Two serialisations of one checkpoint are byte-identical, and the bytes
// round-trip through ReadCheckpoint to the same serialisation. The space
// spans many pages, page tables and mappings, enough that any map-order
// leak would show.
func TestCheckpointWriteIsDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	space := mem.NewAddressSpace()
	for i := 0; i < 64; i++ {
		va := rng.Uint32() &^ mem.PageMask
		space.EnsureMapped(va, 2*mem.PageSize)
		space.Img.Write32(va+uint32(rng.Intn(mem.PageSize)), rng.Uint32())
	}
	ck := &Checkpoint{Name: "det", Space: space, Trace: traceOf(randomOps(rng, 500, nil))}
	write := func(c *Checkpoint) []byte {
		t.Helper()
		var buf bytes.Buffer
		if _, err := c.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	first, second := write(ck), write(ck)
	if !bytes.Equal(first, second) {
		t.Fatalf("two writes of one checkpoint differ (%d and %d bytes)", len(first), len(second))
	}
	got, err := ReadCheckpoint(bytes.NewReader(first))
	if err != nil {
		t.Fatal(err)
	}
	if again := write(got); !bytes.Equal(first, again) {
		t.Fatal("a read-back checkpoint serialises to different bytes")
	}
}
