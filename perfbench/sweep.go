package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/sim"
	"repro/internal/workloads"
)

const (
	// sweepOps and Reps are the options the experiment goldens were
	// generated with, so every report can be checked byte for byte.
	sweepOps = 60_000
	// sweepParallelism is the simulation goroutine count: the 2 CPUs the
	// benchmark is sized for, fixed so the workload does not change with
	// the host.
	sweepParallelism = 2
	// sweepPassSeconds is the nominal host time of one pass over every
	// experiment on a 2-core x86-64 box.
	sweepPassSeconds = 5.0
)

type sweepEnv struct {
	ids       []string
	golden    map[string]string
	generateS float64
}

func sweepOptions() experiments.Options {
	return experiments.Options{Ops: sweepOps, Reps: true, Parallelism: sweepParallelism}
}

func setupSweep(o *options) (env, error) {
	e := &sweepEnv{ids: experiments.IDs(), golden: map[string]string{}}
	for _, id := range e.ids {
		path := filepath.Join("internal", "experiments", "testdata", "golden", id+".txt")
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("reading golden for %s: %w", id, err)
		}
		e.golden[id] = string(data)
	}
	// The sweep's experiments generate these checkpoints on first use;
	// generating them here keeps that out of the timed passes.
	start := time.Now()
	for _, spec := range workloads.All() {
		workloads.Checkpoint(spec, sweepOps)
	}
	e.generateS = time.Since(start).Seconds()
	return e, nil
}

func (e *sweepEnv) close() error { return nil }

// sweepPass is what one pass over every experiment measured.
type sweepPass struct {
	elapsed time.Duration
	sims    float64
	expDurs []time.Duration
	perExp  map[string][2]float64 // id -> {sims, seconds}
	mem     memDelta
}

// runPass runs every experiment once in the given order and checks each
// report against its golden file; y is read before each experiment,
// outside the pass's timing.
func (e *sweepEnv) runPass(order []int, traced bool, spans *spanLog, passNo int, r *report, y *yardstick) sweepPass {
	p := sweepPass{perExp: map[string][2]float64{}}
	before := readMem()
	simsBefore := sim.Runs()
	start := time.Now()
	var yardNs time.Duration
	for _, i := range order {
		id := e.ids[i]
		t := time.Now()
		y.read(1)
		yardNs += time.Since(t)
		runner, err := experiments.Get(id)
		t0 := time.Now()
		s0 := sim.Runs()
		if err == nil {
			var rep *experiments.Report
			rep, err = runner.Run(sweepOptions())
			if err == nil && rep.Text != e.golden[id] {
				err = fmt.Errorf("experiment %s: output differs from its golden file", id)
			}
		}
		d := time.Since(t0)
		r.op(err)
		p.expDurs = append(p.expDurs, d)
		if traced {
			p.perExp[id] = [2]float64{float64(sim.Runs() - s0), d.Seconds()}
			spans.add("experiment", fmt.Sprintf("%s#%d", id, passNo), "", t0, t0.Add(d))
		}
	}
	p.elapsed = time.Since(start) - yardNs
	p.sims = float64(sim.Runs() - simsBefore)
	p.mem = before.to(readMem())
	return p
}

func (e *sweepEnv) run(o *options, r *report, y *yardstick) error {
	rng := rand.New(rand.NewSource(o.seed))
	passes := passCount(o.seconds, sweepPassSeconds, 2)
	var spans *spanLog
	if o.trace {
		spans = newSpanLog()
		passes += passes % 2
	}
	var plain, traced []sweepPass
	for i := 0; i < passes; i++ {
		isTraced := o.trace && i%2 == 1
		p := e.runPass(rng.Perm(len(e.ids)), isTraced, spans, i, r, y)
		if isTraced {
			traced = append(traced, p)
		} else {
			plain = append(plain, p)
		}
	}

	var simRates, expRates, durs []float64
	for _, p := range plain {
		simRates = append(simRates, p.sims/p.elapsed.Seconds())
		expRates = append(expRates, float64(len(p.expDurs))/p.elapsed.Seconds())
		for _, d := range p.expDurs {
			durs = append(durs, ms(d))
		}
	}
	lat := summarize(durs)
	r.notef("matrix-sweep: %d experiments per pass (%.0f sims), %d timed passes (+%d traced), Parallelism %d",
		len(e.ids), plain[0].sims, len(plain), len(traced), sweepParallelism)
	r.notef("per-pass sims/s, raw: %s", formatFloats(simRates))
	r.notef("experiment latency, raw: %s", lat)
	if !o.trace {
		r.set("sims_per_s", median(simRates), "1/s")
		r.set("requests_per_s", median(expRates), "1/s")
		r.set("latency_p50_ms", lat.p50, "ms")
		if !lat.tailOK {
			return fmt.Errorf("only %d experiments timed: too few for a tail", lat.n)
		}
		r.set("latency_tail_ms", lat.tail, "ms")
		return nil
	}

	r.set("workloads.generate_s", e.generateS, "s")
	var windows []memDelta
	var sims, tracedRates []float64
	for _, p := range plain {
		windows = append(windows, p.mem)
		sims = append(sims, p.sims)
	}
	setAllocMetrics(r, windows, sims)
	var simFree []string
	for _, id := range e.ids {
		var rates []float64
		for _, p := range traced {
			v := p.perExp[id]
			rates = append(rates, v[0]/v[1])
		}
		if traced[0].perExp[id][0] == 0 {
			simFree = append(simFree, id)
			continue
		}
		r.set("experiments."+id+".sims_per_s", median(rates), "1/s")
	}
	r.notef("experiments that run no simulation (no sims_per_s): %s", strings.Join(simFree, ", "))
	for _, p := range traced {
		tracedRates = append(tracedRates, p.sims/p.elapsed.Seconds())
	}

	// Construction cost of each sim-hotloop machine at the sweep's budget,
	// over the suite representatives: the sweep's own configurations are
	// not exported.
	var constructMS []float64
	for _, spec := range workloads.SuiteRepresentatives() {
		ck := workloads.Checkpoint(spec, sweepOps)
		for _, m := range hotloopMachines() {
			cfg := m.cfg
			cfg.WarmupOps = sweepOps / 8
			cfg.MPTUBucketOps = sweepOps / 48
			constructMS = append(constructMS, ms(construct(ck, cfg)))
		}
	}
	r.set("sim.construct_ms", median(constructMS), "ms")
	r.set("trace.samples", float64(len(constructMS)+len(traced)*len(e.ids)), "count")
	r.notef("timed samples: %d experiment runs over %d traced passes, %d constructions",
		len(traced)*len(e.ids), len(traced), len(constructMS))
	overhead(r, "sims_per_s", median(simRates), median(tracedRates))
	return spans.write(o, r)
}
