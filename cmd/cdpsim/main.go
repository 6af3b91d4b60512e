// Command cdpsim runs one benchmark on one machine configuration and
// prints the full measurement breakdown — the workhorse for exploring the
// simulator interactively.
//
// Usage:
//
//	cdpsim [-ops N] [-cdp] [-markov stab-kb] [-engine spec] [-l2 kb] [-tlb entries] [-inject] [-trace out.json] <benchmark>
//	cdpsim list
//	cdpsim list-engines
//
// With -trace, the run is instrumented with the internal/simtrace event
// tracer: the Chrome trace_event JSON written to the given path loads in
// Perfetto (one track per component), and a per-chain summary table is
// printed after the counters.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/prefetch/registry"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/simtrace"
	"repro/internal/workloads"
)

var (
	ops        = flag.Int("ops", 0, "µop budget (0 = default)")
	useCDP     = flag.Bool("cdp", false, "enable the content-directed prefetcher")
	depth      = flag.Int("depth", 3, "content prefetch depth threshold")
	next       = flag.Int("next", 3, "content next-line prefetches")
	prev       = flag.Int("prev", 0, "content previous-line prefetches")
	noReinf    = flag.Bool("no-reinforce", false, "disable path reinforcement")
	markovKB   = flag.Int("markov", 0, "enable Markov prefetcher with STAB budget in KB (-1 = unbounded)")
	engine     = flag.String("engine", "", "append a zoo entrant to the engine list by registry spec, e.g. pangloss or bestoffset:degree=2 (cdpsim list-engines)")
	l2kb       = flag.Int("l2", 1024, "UL2 size in KB")
	l2ways     = flag.Int("l2ways", 8, "UL2 associativity")
	tlbEntries = flag.Int("tlb", 64, "DTLB entries")
	inject     = flag.Bool("inject", false, "inject bad prefetches on idle bus cycles")
	baseline   = flag.Bool("baseline", false, "also run the stride baseline on the same machine and report speedup")
	tracePath  = flag.String("trace", "", "write a Perfetto-loadable Chrome trace_event JSON here")
	traceCap   = flag.Int("trace-cap", 1<<20, "trace ring capacity in events (oldest overwritten)")
)

func main() {
	flag.Parse()

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: cdpsim [flags] <benchmark> | list | list-engines")
		os.Exit(2)
	}
	if flag.Arg(0) == "list" {
		for _, s := range workloads.All() {
			fmt.Printf("%-14s %s\n", s.Name, s.Suite)
		}
		return
	}
	if flag.Arg(0) == "list-engines" {
		for _, n := range registry.Names() {
			e, _ := registry.Lookup(n)
			fmt.Printf("%-12s %s\n", e.Name, e.Doc)
		}
		return
	}
	spec, err := workloads.ByName(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		fmt.Fprintln(os.Stderr, "valid benchmarks:")
		for _, s := range workloads.All() {
			fmt.Fprintf(os.Stderr, "  %-14s %s\n", s.Name, s.Suite)
		}
		os.Exit(2)
	}
	cfg, err := machine()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	ck := workloads.Checkpoint(spec, *ops)

	var tr *simtrace.Tracer
	if *tracePath != "" {
		tr = simtrace.New(*traceCap)
	}
	res := sim.RunTraced(ck, cfg, tr)
	printResult(ck.Name, res)
	if tr != nil {
		if err := writeTrace(*tracePath, tr); err != nil {
			fmt.Fprintf(os.Stderr, "cdpsim: %v\n", err)
			os.Exit(1)
		}
		chains := tr.Chains()
		fmt.Println()
		fmt.Print(report.ChainTable(chains).Render())
		fmt.Printf("trace            %d events to %s (%d dropped by the ring)\n",
			tr.Len(), *tracePath, tr.Dropped())
	}

	if *baseline {
		b := sim.Run(ck, strideBaseline(cfg))
		fmt.Printf("\nStride-baseline cycles: %d\nSpeedup over baseline:  %.4f\n",
			b.MeasuredCycles, res.SpeedupOver(b))
	}
}

// machine assembles and validates the machine the flags describe. Warm-up
// and MPTU bucketing scale with the -ops budget (sim.ForBudget), exactly as
// for a POST /v1/sim of the same benchmark and budget, so the two report
// the same numbers for one configuration.
func machine() (sim.Config, error) {
	n := *ops
	if n <= 0 {
		n = workloads.DefaultOps
	}
	cfg := sim.ForBudget(n)
	cfg.L2 = cache.Config{SizeBytes: *l2kb * 1024, Ways: *l2ways, LineSize: sim.LineSize}
	cfg.TLB.Entries = *tlbEntries
	cfg.InjectBadPrefetches = *inject
	if *useCDP {
		cc := core.DefaultConfig
		cc.DepthThreshold = *depth
		cc.NextLines = *next
		cc.PrevLines = *prev
		cc.Reinforce = !*noReinf
		cfg = cfg.WithContent(cc)
	}
	if *markovKB != 0 {
		budget := *markovKB * 1024
		if *markovKB < 0 {
			budget = 0
		}
		cfg = cfg.WithMarkov(budget, cfg.L2)
	}
	if *engine != "" {
		if err := checkEngineFlag(*engine); err != nil {
			return sim.Config{}, err
		}
		cfg = cfg.WithEngine(*engine)
	}
	// Validate the assembled machine so a bad flag — an engine typo (the
	// error lists the registry's names) or an engine the list already
	// holds — exits like an unknown benchmark instead of panicking inside
	// the simulator.
	return cfg, cfg.Validate()
}

// checkEngineFlag refuses the content prefetcher in -engine. It scans
// fills rather than the miss stream, so it is no entry of the engine list:
// -cdp enables it, and -depth, -next, -prev and -no-reinforce tune it.
func checkEngineFlag(list string) error {
	for _, spec := range strings.Split(list, "+") {
		if name, _, err := registry.ParseSpec(spec); err == nil && name == "cdp" {
			return fmt.Errorf("cdpsim: engine %q scans fills; enable the content prefetcher with -cdp instead", name)
		}
	}
	return nil
}

// strideBaseline is the machine cfg describes with the stride baseline as
// its only prefetcher: the same core, caches, TLB and warm-up, without the
// content prefetcher, the other engines or injected prefetches. The speedup
// -baseline reports then measures the prefetchers alone, not a change of
// geometry as well.
func strideBaseline(cfg sim.Config) sim.Config {
	def := sim.Default()
	cfg.Name, cfg.Engines = def.Name, def.Engines
	cfg.Content = nil
	cfg.InjectBadPrefetches = false
	return cfg
}

func writeTrace(path string, tr *simtrace.Tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func printResult(name string, r *sim.Result) {
	c := r.Counters
	fmt.Printf("benchmark        %s\nconfig           %s\n", name, r.Config.Name)
	fmt.Printf("retired µops     %d (measured %d)\n", r.Core.Retired, r.MeasuredUops)
	fmt.Printf("cycles           %d (measured %d)\n", r.Core.Cycles, r.MeasuredCycles)
	fmt.Printf("IPC              %.3f\n", r.IPC())
	fmt.Printf("branches         %d (%d mispredicted)\n", r.Core.Branches, r.Core.Mispredicts)
	fmt.Printf("L1 demand        %d hits / %d misses\n", c.L1Hits, c.L1Misses)
	fmt.Printf("L2 demand loads  %d hits / %d misses (MPTU %.2f)\n",
		c.L2Hits, c.L2Misses, c.MPTUFor(r.MeasuredUops))
	fmt.Printf("TLB              %d hits / %d misses, %d walks (+%d speculative)\n",
		r.TLBHits, r.TLBMisses, c.Walks, c.CDPWalks)
	srcs := []cache.Source{cache.SrcStride, cache.SrcContent, cache.SrcMarkov}
	names := []string{"stride", "content", "markov"}
	for i, s := range srcs {
		if c.PrefIssued[s] == 0 {
			continue
		}
		fmt.Printf("%-7s prefetch  issued %d, useful %d (full %d / partial %d), evicted-unused %d, accuracy %.3f\n",
			names[i], c.PrefIssued[s], c.UsefulPrefetches(s), c.FullHits[s], c.PartialHits[s],
			c.PrefEvictedUnused[s], c.Accuracy(s))
	}
	fmt.Printf("prefetch drops   present %d, inflight %d, queue-full %d, squashed %d, unmapped %d\n",
		c.PrefDroppedPresent, c.PrefDroppedInflight, c.PrefDroppedQueue, c.PrefSquashed, c.PrefDroppedUnmapped)
	if c.Rescans > 0 {
		fmt.Printf("reinforcement    %d rescans, %d depth promotions\n", c.Rescans, c.PromotedDepths)
	}
	if c.UsefulPrefetches(cache.SrcContent) > 0 {
		fmt.Printf("mask histogram   %v (fully masked: %.1f%%)\n", c.MaskBuckets, c.FullyMaskedShare()*100)
	}
	if c.InjectedPrefetches > 0 {
		fmt.Printf("injected         %d bad prefetches\n", c.InjectedPrefetches)
	}
}
