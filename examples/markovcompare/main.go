// Markovcompare: Section 5's quantitative comparison on one OLTP workload.
// The Markov prefetcher records miss-successor history in a State
// Transition Table carved out of the UL2's resource budget; the content
// prefetcher needs no table at all. This example reruns the comparison on
// tpcc-2 with the Table 3 configurations.
//
//	go run ./examples/markovcompare
package main

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/workloads"
)

func main() {
	spec, err := workloads.ByName("tpcc-2")
	if err != nil {
		panic(err)
	}
	ck := workloads.Checkpoint(spec, workloads.DefaultOps)

	base := sim.ForBudget(workloads.DefaultOps)

	l2 := func(kb, ways int) cache.Config {
		return cache.Config{SizeBytes: kb * 1024, Ways: ways, LineSize: sim.LineSize}
	}
	configs := []struct {
		name string
		cfg  sim.Config
	}{
		{"stride baseline (1MB UL2)", base},
		{"markov_1/8 (128KB STAB, 896KB UL2)", base.WithMarkov(128*1024, l2(896, 7))},
		{"markov_1/2 (512KB STAB, 512KB UL2)", base.WithMarkov(512*1024, l2(512, 8))},
		{"markov_big (unbounded STAB, 1MB UL2)", base.WithMarkov(0, l2(1024, 8))},
		{"content prefetcher (1MB UL2)", base.WithContent(core.DefaultConfig)},
	}

	var baseline *sim.Result
	fmt.Printf("%-40s %12s %8s %10s %10s\n", "configuration", "cycles", "speedup", "pf-issued", "pf-useful")
	for _, c := range configs {
		r := sim.Run(ck, c.cfg)
		if baseline == nil {
			baseline = r
		}
		issued := r.Counters.PrefIssued[cache.SrcMarkov] + r.Counters.PrefIssued[cache.SrcContent]
		useful := r.Counters.UsefulPrefetches(cache.SrcMarkov) + r.Counters.UsefulPrefetches(cache.SrcContent)
		fmt.Printf("%-40s %12d %8.3f %10d %10d\n",
			c.name, r.MeasuredCycles, r.SpeedupOver(baseline), issued, useful)
	}
	fmt.Println("\nThe Markov splits pay for their table twice: a smaller UL2 and a")
	fmt.Println("training period; the stateless content prefetcher pays for neither.")
}
