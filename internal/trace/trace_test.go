package trace

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
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
// from pcs (any PC when pcs is nil), addresses and taken bits.
func randomOps(rng *rand.Rand, n int, pcs []uint32) []Op {
	ops := make([]Op, n)
	for i := range ops {
		pc := rng.Uint32()
		if pcs != nil {
			pc = pcs[rng.Intn(len(pcs))]
		}
		ops[i] = Op{
			PC:    pc,
			Addr:  rng.Uint32(),
			Kind:  Kind(rng.Intn(5)),
			Src1:  regOf(uint8(rng.Intn(256))),
			Src2:  regOf(uint8(rng.Intn(256))),
			Dst:   regOf(uint8(rng.Intn(256))),
			Taken: rng.Intn(2) == 1,
		}
	}
	return ops
}

// traceOf packs ops into a trace.
func traceOf(ops []Op) *Trace {
	b := NewBuilder()
	for _, op := range ops {
		b.Emit(op)
	}
	return b.Trace()
}

// Every µop a trace can hold comes back from At unchanged, the in-place
// field readers agree with it, and the finished trace keeps no spare
// capacity.
func TestBuilderPacksEveryOp(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	pcs := make([]uint32, 300)
	for i := range pcs {
		pcs[i] = rng.Uint32()
	}
	for _, n := range []int{0, 1, 7, 1000, 30_001} {
		ops := randomOps(rng, n, pcs)
		tr := traceOf(ops)
		if tr.Len() != n || cap(tr.Packed()) != n {
			t.Fatalf("%d µops: Len %d, cap %d", n, tr.Len(), cap(tr.Packed()))
		}
		for i, op := range ops {
			if got := tr.At(i); got != op {
				t.Fatalf("µop %d of %d: At = %+v, emitted %+v", i, n, got, op)
			}
			p := tr.Packed()[i]
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

// Emit refuses what a trace cannot hold.
func TestEmitPanicsOnUnrepresentableOp(t *testing.T) {
	panics := func(f func()) (msg string) {
		defer func() {
			if r := recover(); r != nil {
				msg = fmt.Sprint(r)
			}
		}()
		f()
		return ""
	}
	for _, op := range []Op{
		{Kind: KBranch + 1, Src1: NoReg, Src2: NoReg, Dst: NoReg},
		{Kind: KInt, Src1: NumRegs, Src2: NoReg, Dst: NoReg},
		{Kind: KInt, Src1: NoReg, Src2: PackedNoReg, Dst: NoReg},
		{Kind: KInt, Src1: NoReg, Src2: NoReg, Dst: 0xFE},
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
	for i := range ck.Trace.Len() {
		if got.Trace.At(i) != ck.Trace.At(i) {
			t.Fatalf("op %d differs: %+v vs %+v", i, got.Trace.At(i), ck.Trace.At(i))
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

func TestOpEncodeQuick(t *testing.T) {
	f := func(pc, addr uint32, kind uint8, s1, s2, d uint8, taken bool) bool {
		op := Op{PC: pc, Addr: addr, Kind: Kind(kind % 5), Src1: regOf(s1), Src2: regOf(s2), Dst: regOf(d), Taken: taken}
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
