package main

import (
	"math/rand"

	"repro/internal/api"
	"repro/internal/workloads"
)

const (
	// clusterOps is the µop budget of every cdpd-cluster request: small,
	// so a miss costs a few milliseconds of simulation.
	clusterOps = 20_000
	// hotKeys is the size of the hot set warmed during set-up.
	hotKeys = 32
	// blockSize fixes the mix exactly: every block of 10 requests holds 2
	// misses at seeded positions, so each batch has the same share of
	// misses whatever the seed.
	blockSize = 10
	// hotCheckpointEvery is the hot set's snapshot interval; misses use
	// distinct intervals above it, which makes every miss a configuration
	// no earlier request used while keeping its cost the same (one
	// boundary snapshot in a 20 k-µop run).
	hotCheckpointEvery = 10_000
	missIntervals      = 5_000

	// defaultClusterSeed is the seed the cdpd-cluster figures in README.md
	// were taken with; heldOutClusterSeed is kept back for confirming a
	// later claim on inputs it was not tuned on.
	defaultClusterSeed = 1
	heldOutClusterSeed = 20021005
)

// clusterInputs is everything cdpd-cluster sends, generated from a seed
// alone.
type clusterInputs struct {
	hot []api.SimRequest
	seq []api.SimRequest
	// miss marks the requests of seq that no earlier request used.
	miss []bool
}

// genCluster builds the hot set and a sequence of n requests (n rounded up
// to whole blocks).
func genCluster(seed int64, n int) clusterInputs {
	rng := rand.New(rand.NewSource(seed))
	specs := workloads.All()
	in := clusterInputs{}

	// Hot set: the benchmarks in rotation from a seeded offset; repeats
	// of a benchmark differ in TLB size, and the content prefetcher is
	// toggled by the seed.
	off := rng.Intn(len(specs))
	tlbSizes := []int{32, 64, 128}
	for i := 0; i < hotKeys; i++ {
		in.hot = append(in.hot, api.SimRequest{
			Benchmark:          specs[(off+i)%len(specs)].Name,
			Ops:                clusterOps,
			CDP:                rng.Intn(2) == 1,
			TLBEntries:         tlbSizes[i/len(specs)],
			CheckpointEveryOps: hotCheckpointEvery,
		})
	}

	// Misses: the benchmarks in rotation from another seeded offset, each
	// with a snapshot interval drawn without replacement.
	missOff := rng.Intn(len(specs))
	intervals := rng.Perm(missIntervals)
	misses := 0
	for len(in.seq) < n {
		first := rng.Intn(blockSize)
		second := (first + 1 + rng.Intn(blockSize-1)) % blockSize
		for pos := 0; pos < blockSize; pos++ {
			if pos != first && pos != second {
				in.seq = append(in.seq, in.hot[rng.Intn(hotKeys)])
				in.miss = append(in.miss, false)
				continue
			}
			in.seq = append(in.seq, api.SimRequest{
				Benchmark:          specs[(missOff+misses)%len(specs)].Name,
				Ops:                clusterOps,
				CheckpointEveryOps: hotCheckpointEvery + 1 + intervals[(misses/len(specs))%missIntervals],
			})
			in.miss = append(in.miss, true)
			misses++
		}
	}
	return in
}
