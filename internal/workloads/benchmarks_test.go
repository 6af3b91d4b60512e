package workloads

import (
	"testing"
	"unsafe"

	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/trace"
)

func TestAllFifteenBenchmarks(t *testing.T) {
	all := All()
	if len(all) != 15 {
		t.Fatalf("benchmarks = %d, want 15 (Table 2)", len(all))
	}
	names := map[string]bool{}
	suites := map[string]int{}
	for _, s := range all {
		if names[s.Name] {
			t.Fatalf("duplicate name %q", s.Name)
		}
		names[s.Name] = true
		suites[s.Suite]++
	}
	if len(suites) != 6 {
		t.Fatalf("suites = %d, want 6", len(suites))
	}
	for _, want := range []string{"b2b", "quake", "tpcc-2", "verilog-gate", "specjbb-vsnet"} {
		if !names[want] {
			t.Fatalf("missing Table 2 benchmark %q", want)
		}
	}
}

func TestByName(t *testing.T) {
	s, err := ByName("tpcc-3")
	if err != nil || s.Name != "tpcc-3" {
		t.Fatalf("ByName = %+v, %v", s, err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

func TestSuiteRepresentatives(t *testing.T) {
	reps := SuiteRepresentatives()
	if len(reps) != 6 {
		t.Fatalf("representatives = %d, want 6", len(reps))
	}
	seen := map[string]bool{}
	for _, s := range reps {
		if seen[s.Suite] {
			t.Fatalf("suite %q represented twice", s.Suite)
		}
		seen[s.Suite] = true
	}
}

// validateCheckpoint runs structural sanity checks every generated
// benchmark must satisfy.
func validateCheckpoint(t *testing.T, s Spec, ck *trace.Checkpoint, budget int) {
	t.Helper()
	n := ck.Trace.Len()
	if n < budget || n > budget+budget/2 {
		t.Fatalf("%s: trace length %d not near budget %d", s.Name, n, budget)
	}
	if ck.Instrs <= 0 || ck.Instrs > n {
		t.Fatalf("%s: instruction count %d vs %d µops", s.Name, ck.Instrs, n)
	}
	mix := trace.MixOf(ck.Trace)
	if mix.Load == 0 || mix.Branch == 0 {
		t.Fatalf("%s: degenerate mix %v", s.Name, mix)
	}
	// Every load/store address must be mapped, and loads of chase
	// registers must read real pointers.
	for i := range n {
		op := ck.Trace.At(i)
		if op.Kind != trace.KLoad && op.Kind != trace.KStore {
			continue
		}
		if _, ok := ck.Space.Translate(op.Addr); !ok {
			t.Fatalf("%s: op %d references unmapped address %#x", s.Name, i, op.Addr)
		}
	}
}

func TestGenerateAllSmall(t *testing.T) {
	const budget = 60_000
	for _, s := range All() {
		ck := s.Generate(GenConfig{Ops: budget, Seed: 42})
		validateCheckpoint(t, s, ck, budget)
	}
}

func TestGenerationDeterministic(t *testing.T) {
	s, _ := ByName("tpcc-1")
	a := s.Generate(GenConfig{Ops: 50_000, Seed: 9})
	b := s.Generate(GenConfig{Ops: 50_000, Seed: 9})
	if a.Trace.Len() != b.Trace.Len() {
		t.Fatalf("lengths differ: %d vs %d", a.Trace.Len(), b.Trace.Len())
	}
	for i := range a.Trace.Len() {
		if a.Trace.At(i) != b.Trace.At(i) {
			t.Fatalf("op %d differs", i)
		}
	}
}

// A generated trace holds each µop in 8 bytes and keeps no spare capacity:
// at the paper's 30 M µops that is 240 MB a trace, where 16-byte µops and
// append's slack came to over 480 MB.
func TestGeneratedTraceIsPacked(t *testing.T) {
	s, _ := ByName("b2b")
	tr := s.Generate(GenConfig{Ops: 50_000, Seed: 5}).Trace
	ops := tr.Packed()
	if size := unsafe.Sizeof(ops[0]); size != 8 {
		t.Fatalf("a stored µop is %d bytes, want 8", size)
	}
	if cap(ops) != tr.Len() {
		t.Fatalf("trace of %d µops has capacity %d", tr.Len(), cap(ops))
	}
}

func TestCheckpointCache(t *testing.T) {
	s, _ := ByName("rc3")
	a := Checkpoint(s, 50_000)
	b := Checkpoint(s, 50_000)
	if a != b {
		t.Fatal("cache miss for identical request")
	}
	c := Checkpoint(s, 70_000)
	if a == c {
		t.Fatal("different budgets shared a checkpoint")
	}
}

// The pointer-bearing benchmarks must put scannable pointers where the
// content prefetcher will find them: scanning the lines the trace actually
// demand-loads must yield candidates.
func TestPointerBenchmarksAreScannable(t *testing.T) {
	match := core.DefaultMatch
	for _, name := range []string{"tpcc-1", "slsb", "verilog-gate", "b2b", "specjbb-vsnet"} {
		s, _ := ByName(name)
		ck := s.Generate(GenConfig{Ops: 60_000, Seed: 3})
		candidates := 0
		scanned := 0
		for i := range ck.Trace.Len() {
			op := ck.Trace.At(i)
			if op.Kind != trace.KLoad || op.Addr < heapBase || op.Addr >= heapLimit {
				continue
			}
			scanned++
			if scanned > 2000 {
				break
			}
			line := ck.Space.Img.ReadLine(op.Addr, 64)
			candidates += len(match.ScanLine(op.Addr, line))
		}
		if scanned == 0 {
			t.Fatalf("%s: no heap loads in trace", name)
		}
		if candidates == 0 {
			t.Fatalf("%s: heap lines contain no scannable pointers", name)
		}
		t.Logf("%s: %d candidates across %d scanned heap lines", name, candidates, scanned)
	}
}

// Working-set spot checks: b2c must fit comfortably in 1 MiB; verilog-gate
// must far exceed 4 MiB.
func TestWorkingSetContrast(t *testing.T) {
	small, _ := ByName("b2c")
	big, _ := ByName("verilog-gate")
	ckS := small.Generate(GenConfig{Ops: 60_000, Seed: 1})
	ckB := big.Generate(GenConfig{Ops: 60_000, Seed: 1})
	// Compare pointer-arena footprints: b2c's linked data must fit the
	// 1 MiB UL2 comfortably while verilog-gate's netlist far exceeds 4 MiB.
	heapPages := func(ck *trace.Checkpoint) int {
		n := 0
		for _, pn := range ck.Space.Img.PageNumbers() {
			if va := pn << mem.PageShift; va >= heapBase && va < heapLimit {
				n++
			}
		}
		return n
	}
	wsS := heapPages(ckS) * mem.PageSize
	wsB := heapPages(ckB) * mem.PageSize
	if wsS > 512*1024 {
		t.Fatalf("b2c heap working set %d KiB too large", wsS/1024)
	}
	if wsB < 4*1024*1024 {
		t.Fatalf("verilog-gate heap working set %d KiB under 4 MiB", wsB/1024)
	}
}
