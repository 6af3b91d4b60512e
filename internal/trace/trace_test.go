package trace

import (
	"bytes"
	"math/rand"
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
		if tr.Ops[i].Kind != k {
			t.Fatalf("op %d kind = %v, want %v", i, tr.Ops[i].Kind, k)
		}
	}
	if !tr.Ops[4].Taken {
		t.Fatal("branch outcome lost")
	}
	if tr.Ops[2].Addr != 0xDEAD_0000 || tr.Ops[2].Dst != 6 {
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

func randomOps(rng *rand.Rand, n int) []Op {
	ops := make([]Op, n)
	for i := range ops {
		ops[i] = Op{
			PC:    rng.Uint32(),
			Addr:  rng.Uint32(),
			Kind:  Kind(rng.Intn(5)),
			Src1:  uint8(rng.Intn(17)),
			Src2:  uint8(rng.Intn(17)),
			Dst:   uint8(rng.Intn(17)),
			Taken: rng.Intn(2) == 1,
		}
	}
	return ops
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
		Trace: &Trace{Ops: randomOps(rng, 1000)},
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
	if len(got.Trace.Ops) != 1000 {
		t.Fatalf("ops = %d", len(got.Trace.Ops))
	}
	for i := range ck.Trace.Ops {
		if got.Trace.Ops[i] != ck.Trace.Ops[i] {
			t.Fatalf("op %d differs: %+v vs %+v", i, got.Trace.Ops[i], ck.Trace.Ops[i])
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
	ck := &Checkpoint{Name: "x", Space: space, Trace: &Trace{}}
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
	if got := Kind(data[off]); got != ck.Trace.Ops[op].Kind {
		t.Fatalf("byte %d holds %v, want op %d's kind %v", off, got, op, ck.Trace.Ops[op].Kind)
	}
	data[off] = 9
	_, err := ReadCheckpoint(bytes.NewReader(data))
	if err == nil || err.Error() != "trace: op 2: unknown kind 9" {
		t.Fatalf("corrupt kind: err %v, want \"trace: op 2: unknown kind 9\"", err)
	}
}

func TestOpEncodeQuick(t *testing.T) {
	f := func(pc, addr uint32, kind uint8, s1, s2, d uint8, taken bool) bool {
		op := Op{PC: pc, Addr: addr, Kind: Kind(kind % 5), Src1: s1, Src2: s2, Dst: d, Taken: taken}
		ck := &Checkpoint{Name: "q", Space: mem.NewAddressSpace(), Trace: &Trace{Ops: []Op{op}}}
		var buf bytes.Buffer
		if _, err := ck.WriteTo(&buf); err != nil {
			return false
		}
		got, err := ReadCheckpoint(&buf)
		if err != nil {
			return false
		}
		return got.Trace.Ops[0] == op
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
	ck := &Checkpoint{Name: "det", Space: space, Trace: &Trace{Ops: randomOps(rng, 500)}}
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
