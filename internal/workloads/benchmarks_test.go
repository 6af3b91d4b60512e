package workloads

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"sync"
	"testing"
	"time"

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
	for i, op := range ck.Trace.All() {
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
	if !bytes.Equal(serialised(t, a), serialised(t, b)) {
		t.Fatal("two generations with one seed serialise differently")
	}
}

// Every benchmark's generated trace holds at most 2.5 bytes a µop in
// memory (2-byte codes, the load and store addresses, the seek index and
// the template and PC tables) and keeps no spare capacity. At the paper's
// 30 M µops that is at most 75 MB a trace, where the 8-byte packed µops
// took 240 MB.
func TestTraceBytesPerOp(t *testing.T) {
	const budget = 300_000
	for _, s := range All() {
		tr := s.Generate(GenConfig{Ops: budget, Seed: 11}).Trace
		n := tr.Len()
		mix := trace.MixOf(tr)
		pcs := map[uint32]bool{}
		for _, op := range tr.All() {
			pcs[op.PC] = true
		}
		exact := 2*n + 4*(mix.Load+mix.Store) + 4*(n/4096) + 8*tr.Templates() + 4*len(pcs)
		if tr.Bytes() != exact {
			t.Errorf("%s: %d bytes in memory, %d without spare capacity", s.Name, tr.Bytes(), exact)
		}
		perOp := float64(tr.Bytes()) / float64(n)
		if perOp > 2.5 {
			t.Errorf("%s: %.3f bytes a µop, want at most 2.5", s.Name, perOp)
		}
		t.Logf("%s: %d µops, %d templates, %.3f bytes a µop", s.Name, n, tr.Templates(), perOp)
	}
}

// WriteTo of a generated checkpoint is byte-stable: these are the bytes
// of `tracegen gen -ops 20000 b2b`, which every change to the in-memory
// trace or the generators must keep.
func TestCheckpointBytesPinned(t *testing.T) {
	s, _ := ByName("b2b")
	h := sha256.New()
	n, err := Checkpoint(s, 20_000).WriteTo(h)
	if err != nil {
		t.Fatal(err)
	}
	const want = "835dbd4bc76f3b95f743e2aa68a0ae5dc3fe6278ed53adfe747dbff5b14ace39"
	if got := hex.EncodeToString(h.Sum(nil)); n != 3_989_059 || got != want {
		t.Fatalf("b2b at 20,000 µops: %d bytes, sha256 %s; want 3,989,059 bytes, sha256 %s", n, got, want)
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

// serialised returns ck's checkpoint file bytes.
func serialised(t *testing.T, ck *trace.Checkpoint) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := ck.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// A sweep of distinct budgets keeps the cache within its byte bound, every
// byte accounted to an entry it holds, and a budget asked for again after
// its eviction comes back generated afresh and equal.
func TestCheckpointCacheBound(t *testing.T) {
	s, _ := ByName("b2c")
	probe := generate(s, 1_000)
	one := int64(probe.Space.Img.PageCount())*mem.PageSize + int64(probe.Trace.Bytes())
	c := newCheckpointCache(3*one, generate)
	first := c.get(s, 1_000)
	for ops := 2_000; ops <= 12_000; ops += 1_000 {
		c.get(s, ops)
		c.mu.Lock()
		var sum int64
		for el := c.lru.Front(); el != nil; el = el.Next() {
			sum += el.Value.(*ckEntry).bytes
		}
		held, accounted, keys := c.lru.Len(), c.bytes, len(c.entries)
		c.mu.Unlock()
		if accounted > c.budget || sum != accounted || held != keys {
			t.Fatalf("after %d µops: %d bytes accounted (bound %d), %d in %d entries, %d keys", ops, accounted, c.budget, sum, held, keys)
		}
	}
	if len(c.entries) >= 12 {
		t.Fatalf("a sweep of 12 budgets over a bound of about 3 evicted nothing: %d entries", len(c.entries))
	}
	again := c.get(s, 1_000)
	if again == first {
		t.Fatal("the first budget was never evicted")
	}
	if !bytes.Equal(serialised(t, again), serialised(t, first)) {
		t.Fatal("a checkpoint generated again after eviction differs from the first")
	}
}

// Concurrent callers of one key share one generation, and a caller of
// another key is not held up by it.
func TestCheckpointCacheGeneratesOncePerKey(t *testing.T) {
	slow, _ := ByName("b2c")
	other, _ := ByName("quake")
	started, release := make(chan struct{}), make(chan struct{})
	var mu sync.Mutex
	runs := map[string]int{}
	c := newCheckpointCache(checkpointCacheBytes, func(s Spec, ops int) *trace.Checkpoint {
		mu.Lock()
		runs[s.Name]++
		first := runs[s.Name] == 1
		mu.Unlock()
		if s.Name == slow.Name && first {
			close(started)
			<-release
		}
		return generate(s, ops)
	})
	const callers = 8
	got := make([]*trace.Checkpoint, callers)
	var wg sync.WaitGroup
	for i := range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = c.get(slow, 2_000)
		}()
	}
	// quake generates while b2c's generation is held; with one lock
	// around generation it would wait for the release that follows it.
	<-started
	done := make(chan struct{})
	go func() {
		defer close(done)
		c.get(other, 2_000)
	}()
	select {
	case <-done:
	case <-time.After(time.Minute):
		t.Fatal("a second key waited for the first key's generation")
	}
	close(release)
	wg.Wait()
	for i, ck := range got {
		if ck == nil || ck != got[0] {
			t.Fatalf("caller %d got a different checkpoint", i)
		}
	}
	if runs[slow.Name] != 1 || runs[other.Name] != 1 {
		t.Fatalf("generations per key: %v, want one each", runs)
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
		for _, op := range ck.Trace.All() {
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

// A generation that panics leaves no entry behind: jobq recovers a job's
// panic, so a stuck in-flight entry would hang every later caller of the
// key. The next call generates afresh.
func TestCheckpointCacheForgetsPanickedGeneration(t *testing.T) {
	s, _ := ByName("b2c")
	calls := 0
	c := newCheckpointCache(checkpointCacheBytes, func(s Spec, ops int) *trace.Checkpoint {
		if calls++; calls == 1 {
			panic("generator fault")
		}
		return generate(s, ops)
	})
	func() {
		defer func() {
			if r := recover(); r != "generator fault" {
				t.Fatalf("first call: recovered %v, want the generator's panic", r)
			}
		}()
		c.get(s, 2_000)
	}()
	if ck := c.get(s, 2_000); ck == nil || calls != 2 {
		t.Fatalf("after a panicked generation: checkpoint %v after %d generations, want one after 2", ck, calls)
	}
}
