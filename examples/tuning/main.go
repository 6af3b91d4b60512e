// Tuning: explore the virtual-address-matching knobs (Figures 7 and 8) on a
// custom workload. The example sweeps compare bits with filter bits fixed,
// printing the stride-adjusted coverage/accuracy trade-off the paper uses
// to select the 8.4.1.2 operating point.
//
//	go run ./examples/tuning
package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/workloads"
)

func main() {
	spec, err := workloads.ByName("specjbb-vsnet")
	if err != nil {
		panic(err)
	}
	const ops = 600_000
	ck := workloads.Checkpoint(spec, ops)

	base := sim.ForBudget(ops)

	fmt.Printf("%-10s %12s %12s %10s\n", "cmp.flt", "adj-coverage", "adj-accuracy", "speedup")
	baseline := sim.Run(ck, base)
	for _, compare := range []int{8, 9, 10, 11, 12} {
		for _, filter := range []int{0, 4} {
			cc := core.Config{
				Match: core.MatchConfig{
					CompareBits: compare, FilterBits: filter,
					AlignBits: 1, ScanStep: 2,
				},
				DepthThreshold: 3,
				RescanSlack:    1,
				Reinforce:      true,
				NextLines:      3,
				LineSize:       sim.LineSize,
			}
			r := sim.Run(ck, base.WithContent(cc))
			fmt.Printf("%02d.%-7d %12.3f %12.3f %10.3f\n",
				compare, filter,
				r.Counters.AdjustedCoverage(),
				r.Counters.AdjustedAccuracy(),
				r.SpeedupOver(baseline))
		}
	}
	fmt.Println("\nMore compare bits shrink the prefetchable range (coverage falls);")
	fmt.Println("filter bits recover the all-zeros/all-ones regions the compare test")
	fmt.Println("cannot separate from small constants.")
}
