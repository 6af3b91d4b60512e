package workloads

import (
	"container/list"
	"fmt"
	"sync"

	"repro/internal/heap"
	"repro/internal/mem"
	"repro/internal/trace"
)

// Spec is one named benchmark of Table 2.
type Spec struct {
	Name  string
	Suite string
	build func(g *Gen)
}

// Generate builds the benchmark's checkpoint: data structures in memory
// plus the µop trace over them.
func (s Spec) Generate(cfg GenConfig) *trace.Checkpoint {
	if cfg.Ops <= 0 {
		cfg.Ops = DefaultOps
	}
	g := newGen(cfg)
	s.build(g)
	return &trace.Checkpoint{
		Name:   s.Name,
		Space:  g.AS,
		Trace:  g.B.Trace(),
		Instrs: g.Instr,
	}
}

// DefaultOps is the default trace budget. The paper runs 30 M-instruction
// LITs; this reproduction defaults to ~1.2 M µops per benchmark so the full
// experiment matrix runs in minutes, and reports its own Table 2.
const DefaultOps = 1_200_000

// All returns the fifteen benchmarks in Table 2 order.
func All() []Spec {
	return []Spec{
		{"b2b", "Internet", buildB2B},
		{"b2c", "Internet", buildB2C},
		{"quake", "Multimedia", buildQuake},
		{"speech", "Productivity", buildSpeech},
		{"rc3", "Productivity", buildRC3},
		{"creation", "Productivity", buildCreation},
		{"tpcc-1", "Server", buildTPCC(1)},
		{"tpcc-2", "Server", buildTPCC(2)},
		{"tpcc-3", "Server", buildTPCC(3)},
		{"tpcc-4", "Server", buildTPCC(4)},
		{"verilog-func", "Workstation", buildVerilogFunc},
		{"verilog-gate", "Workstation", buildVerilogGate},
		{"proE", "Workstation", buildProE},
		{"slsb", "Workstation", buildSLSB},
		{"specjbb-vsnet", "Runtime", buildSpecJBB},
	}
}

// ByName finds a benchmark.
func ByName(name string) (Spec, error) {
	for _, s := range All() {
		if s.Name == name {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("workloads: unknown benchmark %q", name)
}

// SuiteRepresentatives returns one benchmark per suite (the Figure 1
// readability subset).
func SuiteRepresentatives() []Spec {
	seen := map[string]bool{}
	var out []Spec
	for _, s := range All() {
		if !seen[s.Suite] {
			seen[s.Suite] = true
			out = append(out, s)
		}
	}
	return out
}

// checkpoints memoises generation: experiments run many configurations over
// the same checkpoint, and the simulator never mutates it.
var checkpoints = newCheckpointCache(checkpointCacheBytes, generate)

// checkpointCacheBytes bounds the bytes the checkpoint cache accounts for.
// The 15 benchmarks' images take about 90 MB at any budget, and their
// traces 38 MB at the default budget, so every budget the experiments
// and the benchmark harness run fits with room to spare.
const checkpointCacheBytes = 512 << 20

// Checkpoint returns a (possibly cached) checkpoint for the benchmark at
// the given budget.
func Checkpoint(s Spec, ops int) *trace.Checkpoint {
	if ops <= 0 {
		ops = DefaultOps
	}
	return checkpoints.get(s, ops)
}

// generate builds the checkpoint Checkpoint returns for s at ops µops.
func generate(s Spec, ops int) *trace.Checkpoint {
	return s.Generate(GenConfig{Ops: ops, Seed: int64(len(s.Name))*7919 + 13})
}

// checkpointCache holds generated checkpoints up to a byte budget,
// evicting the least recently used beyond it (a checkpoint larger than the
// whole budget is returned but not kept). Each key is generated once
// at a time, outside the lock, so concurrent callers of one key share one
// generation while other keys proceed. A checkpoint is accounted as its
// image pages plus its coded trace.
type checkpointCache struct {
	budget   int64
	generate func(Spec, int) *trace.Checkpoint

	mu      sync.Mutex
	entries map[string]*ckEntry
	lru     list.List // of *ckEntry once generated, most recent at the front
	bytes   int64     // accounted bytes of the entries in lru
}

// ckEntry is one key's checkpoint. ready closes once ck is set, or with ck
// nil if generation panicked.
type ckEntry struct {
	key   string
	ready chan struct{}
	ck    *trace.Checkpoint
	bytes int64
	elem  *list.Element
}

func newCheckpointCache(budget int64, generate func(Spec, int) *trace.Checkpoint) *checkpointCache {
	return &checkpointCache{budget: budget, generate: generate, entries: map[string]*ckEntry{}}
}

func (c *checkpointCache) get(s Spec, ops int) *trace.Checkpoint {
	key := fmt.Sprintf("%s/%d", s.Name, ops)
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		if e.elem != nil {
			c.lru.MoveToFront(e.elem)
		}
		c.mu.Unlock()
		<-e.ready
		if e.ck == nil { // its generation panicked: generate afresh
			return c.get(s, ops)
		}
		return e.ck
	}
	e := &ckEntry{key: key, ready: make(chan struct{})}
	c.entries[key] = e
	c.mu.Unlock()

	defer func() {
		if e.ck == nil {
			c.mu.Lock()
			delete(c.entries, key)
			c.mu.Unlock()
			close(e.ready)
		}
	}()
	ck := c.generate(s, ops)
	e.bytes = int64(ck.Space.Img.PageCount())*mem.PageSize + int64(ck.Trace.Bytes())

	c.mu.Lock()
	e.ck = ck
	close(e.ready)
	e.elem = c.lru.PushFront(e)
	c.bytes += e.bytes
	for c.bytes > c.budget {
		old := c.lru.Remove(c.lru.Back()).(*ckEntry)
		delete(c.entries, old.key)
		c.bytes -= old.bytes
	}
	c.mu.Unlock()
	return ck
}

// ---------------------------------------------------------------------------
// Benchmark definitions. Sizes are tuned so the population spans the
// paper's MPTU and speedup ranges on ~1.2 M-µop traces; EXPERIMENTS.md
// records the measured values.

// buildB2B: internet business logic — order lists with payload records,
// session hash, some streaming. Moderate MPTU, strong content sensitivity.
func buildB2B(g *Gen) {
	orders := heap.BuildList(g.Heap, g.Rng, heap.ListSpec{
		Nodes: 14_000, NodeSize: 64, NextOff: 0, Fill: heap.DefaultFill})
	pay := g.AttachPayloads(orders.Nodes, 8, 128)
	sessions := heap.BuildHash(g.Heap, g.Rng, heap.HashSpec{
		Buckets: 2048, Entries: 10_000, NodeSize: 48, NextOff: 4, KeyOff: 0, Fill: heap.DefaultFill})
	// Stack-like frame chain in the all-ones region: only reachable by
	// the prefetcher through the filter bits.
	frames := heap.BuildList(g.High, g.Rng, heap.ListSpec{
		Nodes: 3_000, NodeSize: 64, NextOff: 0, Fill: heap.DefaultFill})
	log := heap.BuildArray(g.Data, g.Rng, 4096, 64, heap.Fill{SmallInts: 1})
	var ocur, fcur int
	for !g.Done() {
		g.WalkList(0x1000, orders, WalkOpts{
			PayloadOff: 8, Payloads: pay, PayloadLines: 2,
			Work: 60, DataBranch: true, StoreEvery: 6, MaxNodes: 400, Cursor: &ocur,
		})
		for i := 0; i < 12 && !g.Done(); i++ {
			g.LookupHash(0x2000, sessions, WalkOpts{Work: 30})
		}
		g.WalkList(0x5000, frames, WalkOpts{Work: 40, MaxNodes: 300, Cursor: &fcur})
		g.ArrayPass(0x3000, log, 8)
		g.Compute(0x4000, 500)
	}
}

// buildB2C: small-working-set storefront — everything fits in the L2, so
// only compulsory misses remain (MPTU ~0.1 at both cache sizes).
func buildB2C(g *Gen) {
	catalog := heap.BuildHash(g.Heap, g.Rng, heap.HashSpec{
		Buckets: 512, Entries: 1_200, NodeSize: 48, NextOff: 4, KeyOff: 0, Fill: heap.DefaultFill})
	basket := heap.BuildList(g.Heap, g.Rng, heap.ListSpec{
		Nodes: 400, NodeSize: 64, NextOff: 0, Fill: heap.DefaultFill})
	g.TouchLines(0x9000, catalog.BucketBase, uint32(catalog.Buckets)*4)
	for _, n := range collectHashNodes(g, catalog) {
		g.TouchLines(0x9010, n, catalog.NodeSize)
	}
	g.TouchList(0x9020, basket, nil, 0)
	history := heap.BuildArray(g.Data, g.Rng, 30_000, 64, heap.Fill{Random: 1})
	for !g.Done() {
		for i := 0; i < 20 && !g.Done(); i++ {
			g.LookupHash(0x1000, catalog, WalkOpts{Work: 60})
		}
		g.WalkList(0x2000, basket, WalkOpts{Work: 20})
		g.RandomArrayTouch(0x5000, history, 10, 60)
		g.Compute(0x3000, 5000)
		g.ComputeFP(0x4000, 500)
	}
}

// buildQuake: game/multimedia — dominated by streaming over level and
// frame data (2.5 MiB: misses at 1 MiB, fits in 4 MiB), with a small
// entity list. Stride prefetcher territory.
func buildQuake(g *Gen) {
	level := heap.BuildArray(g.Data, g.Rng, 11_000, 64, heap.Fill{Random: 0.5})
	frame := heap.BuildArray(g.Data, g.Rng, 7_000, 64, heap.Fill{Random: 0.5})
	entities := heap.BuildList(g.Heap, g.Rng, heap.ListSpec{
		Nodes: 900, NodeSize: 64, NextOff: 0, Fill: heap.DefaultFill})
	g.TouchList(0x9000, entities, nil, 0)
	for !g.Done() {
		g.ArrayPass(0x1000, level, 16)
		g.ComputeFP(0x2000, 900)
		g.ArrayPass(0x3000, frame, 12)
		g.WalkList(0x4000, entities, WalkOpts{Work: 40, StoreEvery: 4})
	}
}

// buildSpeech: speech recognition — lexicon-tree searches over a ~2.5 MiB
// model with per-node scoring work.
func buildSpeech(g *Gen) {
	lexicon := heap.BuildTree(g.Heap, g.Rng, heap.TreeSpec{
		Nodes: 70_000, NodeSize: 32, KeyOff: 0, LeftOff: 8, RightOff: 12, Fill: heap.DefaultFill})
	scores := heap.BuildArray(g.Data, g.Rng, 2048, 64, heap.Fill{Random: 1})
	for !g.Done() {
		for i := 0; i < 24 && !g.Done(); i++ {
			key := uint32(g.Rng.Intn(lexicon.Count))
			g.SearchTree(0x1000, lexicon, key, WalkOpts{Work: 50})
		}
		g.ArrayPass(0x2000, scores, 10)
		g.ComputeFP(0x3000, 800)
	}
}

// buildRC3: productivity app — small mixed structures, mostly resident;
// light miss traffic.
func buildRC3(g *Gen) {
	// Packed, 2-byte-aligned document nodes: a footprint-optimising
	// compiler's layout. Their pointers are invisible to a 4-byte scan
	// step or a 2-bit alignment requirement (the Figure 8 trade-off).
	doc := heap.BuildList(g.Heap, g.Rng, heap.ListSpec{
		Nodes: 5_000, NodeSize: 90, NextOff: 0, Align: 2, Fill: heap.DefaultFill})
	index := heap.BuildArray(g.Data, g.Rng, 2_000, 64, heap.Fill{SmallInts: 1})
	g.TouchList(0x9000, doc, nil, 0)
	g.TouchLines(0x9010, index.Base, uint32(index.Elems)*index.ElemSize)
	undo := heap.BuildArray(g.Data, g.Rng, 30_000, 64, heap.Fill{Random: 1})
	var dcur int
	for !g.Done() {
		g.WalkList(0x1000, doc, WalkOpts{Work: 120, MaxNodes: 1000, Cursor: &dcur})
		g.RandomArrayTouch(0x5000, undo, 25, 60)
		g.ArrayPass(0x2000, index, 12)
		g.Compute(0x3000, 5000)
	}
}

// buildCreation: content creation — medium lists with payloads, FP filter
// kernels over arrays.
func buildCreation(g *Gen) {
	scene := heap.BuildList(g.Heap, g.Rng, heap.ListSpec{
		Nodes: 7_000, NodeSize: 62, NextOff: 0, Align: 2, Fill: heap.DefaultFill})
	pay := g.AttachPayloads(scene.Nodes, 8, 64)
	pixels := heap.BuildArray(g.Data, g.Rng, 3_000, 64, heap.Fill{Random: 1})
	g.TouchList(0x9000, scene, pay, 64)
	g.TouchLines(0x9010, pixels.Base, uint32(pixels.Elems)*pixels.ElemSize)
	var scur int
	for !g.Done() {
		g.WalkList(0x1000, scene, WalkOpts{
			PayloadOff: 8, Payloads: pay, Work: 140, MaxNodes: 800, Cursor: &scur})
		g.ArrayPass(0x2000, pixels, 10)
		g.ComputeFP(0x3000, 1800)
	}
}

// buildTPCC: OLTP — the canonical content-prefetcher workload. Each
// transaction probes a hash index, follows the bucket chain, then reads a
// multi-line row (256 B) through a payload pointer and updates it. Four
// variants differ in table size and row work, like the paper's four LITs.
func buildTPCC(variant int) func(*Gen) {
	return func(g *Gen) {
		entries := 20_000 + variant*3_000
		index := heap.BuildHash(g.Heap, g.Rng, heap.HashSpec{
			Buckets: 1024, Entries: entries, NodeSize: 192, NextOff: 4, KeyOff: 0, Fill: heap.DefaultFill})
		// Rows: every index node points at a 256-byte row (4 lines).
		nodes := collectHashNodes(g, index)
		rows := g.AttachPayloads(nodes, 8, 256)
		// Global lock/latch table in the all-zeros region (filter-bit
		// territory).
		locks := heap.BuildList(g.Low, g.Rng, heap.ListSpec{
			Nodes: 2_000, NodeSize: 64, NextOff: 0, Fill: heap.DefaultFill})
		work := 280 + variant*20
		var lcur int
		for !g.Done() {
			for i := 0; i < 10 && !g.Done(); i++ {
				g.LookupHash(0x1000, index, WalkOpts{
					PayloadOff: 8, Payloads: rows, PayloadLines: 3,
					Work: work, DataBranch: true, StoreEvery: 2,
					ChainProbes: 5,
				})
			}
			g.WalkList(0x3000, locks, WalkOpts{Work: 60, MaxNodes: 150, Cursor: &lcur})
			g.Compute(0x2000, 1100)
		}
	}
}

// collectHashNodes gathers every chain node address of a hash table (for
// payload attachment).
func collectHashNodes(g *Gen, h *heap.Hash) []uint32 {
	var nodes []uint32
	for b := 0; b < h.Buckets; b++ {
		cur := g.AS.Img.Read32(h.BucketBase + uint32(b)*4)
		for cur != 0 {
			nodes = append(nodes, cur)
			cur = g.AS.Img.Read32(cur + h.NextOff)
		}
	}
	return nodes
}

// buildVerilogFunc: functional simulation — event-driven walks over a
// multi-megabyte netlist with moderate evaluation work per node. The
// netlist is packed (2-byte-aligned 62-byte nodes, a footprint-optimised
// layout): its pointers are only reachable with a 2-byte scan step and at
// most one alignment bit, giving Figure 8 its trade-off.
func buildVerilogFunc(g *Gen) {
	netlist := heap.BuildList(g.Heap, g.Rng, heap.ListSpec{
		Nodes: 30_000, NodeSize: 62, NextOff: 0, Align: 2, Fill: heap.DefaultFill})
	pay := g.AttachPayloads(netlist.Nodes, 8, 64)
	events := heap.BuildArray(g.Data, g.Rng, 30_000, 64, heap.Fill{Random: 1})
	var ncur int
	for !g.Done() {
		g.WalkList(0x1000, netlist, WalkOpts{
			PayloadOff: 8, Payloads: pay, Work: 200, DataBranch: false, MaxNodes: 4_000, Cursor: &ncur})
		g.RandomArrayTouch(0x3000, events, 180, 40)
		g.Compute(0x2000, 400)
	}
}

// buildVerilogGate: gate-level simulation — the paper's most memory-bound
// benchmark (MPTU ~24). A huge scattered netlist walked with almost no
// work per gate: miss after miss.
func buildVerilogGate(g *Gen) {
	netlist := heap.BuildList(g.Heap, g.Rng, heap.ListSpec{
		Nodes: 150_000, NodeSize: 64, NextOff: 0, Fill: heap.DefaultFill})
	for !g.Done() {
		g.WalkList(0x1000, netlist, WalkOpts{Work: 40, DataBranch: false})
	}
}

// buildProE: CAD — compute-bound geometry kernels; tiny miss traffic.
func buildProE(g *Gen) {
	mesh := heap.BuildArray(g.Data, g.Rng, 6_000, 64, heap.Fill{Random: 1})
	features := heap.BuildList(g.Heap, g.Rng, heap.ListSpec{
		Nodes: 1_200, NodeSize: 64, NextOff: 0, Fill: heap.DefaultFill})
	g.TouchLines(0x9000, mesh.Base, uint32(mesh.Elems)*mesh.ElemSize)
	g.TouchList(0x9010, features, nil, 0)
	sweep := heap.BuildArray(g.Data, g.Rng, 30_000, 64, heap.Fill{Random: 1})
	var fcur int
	for !g.Done() {
		g.ArrayPass(0x1000, mesh, 30)
		g.ComputeFP(0x2000, 5000)
		g.WalkList(0x3000, features, WalkOpts{Work: 80, MaxNodes: 200, Cursor: &fcur})
		g.RandomArrayTouch(0x5000, sweep, 15, 80)
		g.Compute(0x4000, 2000)
	}
}

// buildSLSB: workstation list-processing — big lists with payload records
// and store-backs; high MPTU, strongly content-sensitive.
func buildSLSB(g *Gen) {
	records := heap.BuildList(g.Heap, g.Rng, heap.ListSpec{
		Nodes: 18_000, NodeSize: 64, NextOff: 0, Fill: heap.DefaultFill})
	pay := g.AttachPayloads(records.Nodes, 8, 128)
	scratch := heap.BuildArray(g.Data, g.Rng, 40_000, 64, heap.Fill{Random: 1})
	var rcur int
	for !g.Done() {
		g.WalkList(0x1000, records, WalkOpts{
			PayloadOff: 8, Payloads: pay, PayloadLines: 1,
			Work: 200, DataBranch: true, StoreEvery: 3, MaxNodes: 2_000, Cursor: &rcur,
		})
		// Irregular scratch references neither prefetcher can cover: the
		// residual ul2-miss share of Figure 10.
		g.RandomArrayTouch(0x2000, scratch, 260, 30)
	}
}

// buildSpecJBB: Java middleware — order trees, object hash, allocation-like
// list churn; a managed-runtime mix of all pointer idioms.
func buildSpecJBB(g *Gen) {
	orders := heap.BuildTree(g.Heap, g.Rng, heap.TreeSpec{
		Nodes: 40_000, NodeSize: 48, KeyOff: 0, LeftOff: 8, RightOff: 12, Fill: heap.DefaultFill})
	objects := heap.BuildHash(g.Heap, g.Rng, heap.HashSpec{
		Buckets: 4096, Entries: 24_000, NodeSize: 48, NextOff: 4, KeyOff: 0, Fill: heap.DefaultFill})
	young := heap.BuildList(g.Heap, g.Rng, heap.ListSpec{
		Nodes: 6_000, NodeSize: 64, NextOff: 0, Fill: heap.DefaultFill})
	var ycur int
	for !g.Done() {
		for i := 0; i < 6 && !g.Done(); i++ {
			key := uint32(g.Rng.Intn(orders.Count))
			g.SearchTree(0x1000, orders, key, WalkOpts{Work: 100})
		}
		for i := 0; i < 10 && !g.Done(); i++ {
			g.LookupHash(0x2000, objects, WalkOpts{Work: 120, StoreEvery: 3})
		}
		g.WalkList(0x3000, young, WalkOpts{Work: 60, MaxNodes: 600, Cursor: &ycur})
		g.Compute(0x4000, 1200)
	}
}
