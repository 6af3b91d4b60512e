package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// hotloopPassSeconds is the nominal host time of one sim-hotloop pass (30
// full-length sims) on a 2-core x86-64 box; --seconds divided by it is the
// number of timed passes, so every run does whole, fixed passes.
const hotloopPassSeconds = 5.0

// machine is one simulated configuration sim-hotloop runs every benchmark
// on.
type machine struct {
	name string
	cfg  sim.Config
}

// hotloopMachines are the five engine wirings: the stride baseline, the
// paper-default content prefetcher, Markov at Table 3's markov_1/2 split,
// and the two zoo entrants.
func hotloopMachines() []machine {
	base := sim.Default()
	return []machine{
		{"stride", base},
		{"cdp", base.WithContent(core.DefaultConfig)},
		{"markov", base.WithMarkov(512*1024, cache.Config{SizeBytes: 512 * 1024, Ways: 8, LineSize: sim.LineSize})},
		{"pangloss", base.WithEngine("pangloss")},
		{"bestoffset", base.WithEngine("bestoffset")},
	}
}

// hotSim is one (benchmark, machine) simulation of a pass.
type hotSim struct {
	bench   string
	ck      *trace.Checkpoint
	machine machine
}

func (s hotSim) key() string { return s.bench + "/" + s.machine.name }

// simDigest is the stored fingerprint of one sim's simulated outcome.
type simDigest struct {
	Cycles   int64  `json:"cycles"`
	Retired  uint64 `json:"retired"`
	Counters string `json:"counters"`
}

func digestOf(cycles int64, retired uint64, c *stats.Counters) simDigest {
	sum := sha256.Sum256([]byte(fmt.Sprintf("%+v", *c)))
	return simDigest{Cycles: cycles, Retired: retired, Counters: fmt.Sprintf("%x", sum[:12])}
}

//go:embed testdata/hotloop_digests.json
var hotloopDigestsJSON []byte

func loadDigests() (map[string]simDigest, error) {
	var d map[string]simDigest
	if err := json.Unmarshal(hotloopDigestsJSON, &d); err != nil {
		return nil, fmt.Errorf("parsing stored digests: %w", err)
	}
	return d, nil
}

type hotloopEnv struct {
	sims      []hotSim
	digests   map[string]simDigest
	generateS float64
}

// hotloopSims generates the six suite representatives at the default
// budget and pairs each with every machine, returning the time spent in
// workloads.Checkpoint.
func hotloopSims() ([]hotSim, time.Duration) {
	var sims []hotSim
	var gen time.Duration
	for _, spec := range workloads.SuiteRepresentatives() {
		start := time.Now()
		ck := workloads.Checkpoint(spec, workloads.DefaultOps)
		gen += time.Since(start)
		for _, m := range hotloopMachines() {
			sims = append(sims, hotSim{bench: spec.Name, ck: ck, machine: m})
		}
	}
	return sims, gen
}

func setupHotloop(o *options) (env, error) {
	digests, err := loadDigests()
	if err != nil {
		return nil, err
	}
	sims, gen := hotloopSims()
	return &hotloopEnv{sims: sims, digests: digests, generateS: gen.Seconds()}, nil
}

func (e *hotloopEnv) close() error { return nil }

// passCount turns --seconds into a whole number of fixed passes.
func passCount(seconds int, passSeconds float64, minPasses int) int {
	return max(minPasses, int(math.Round(float64(seconds)/passSeconds)))
}

// hotPass is what one pass measured.
type hotPass struct {
	elapsed     time.Duration
	simDurs     []time.Duration
	uops        map[string]float64 // per machine
	machineTime map[string]time.Duration
	mem         memDelta
	port        portStats
	constructMS []float64
	counters    layerCounters
}

// layerCounters are the simulated event counts of one pass.
type layerCounters struct {
	l2Misses, walks, linesScanned, prefIssued, prefUseful, prefDropped uint64
}

func (c *layerCounters) add(st *stats.Counters, ms *sim.MemSystem) {
	c.l2Misses += st.L2Misses
	c.walks += st.Walks + st.CDPWalks
	for i := range st.PrefIssued {
		c.prefIssued += st.PrefIssued[i]
		c.prefUseful += st.PrefUseful[i]
	}
	c.prefDropped += st.PrefDroppedQueue + st.PrefSquashed
	if cdp := ms.Content(); cdp != nil {
		lines, _, _, _ := cdp.Stats()
		c.linesScanned += lines
	}
}

// check compares one sim's outcome with its stored digest.
func (e *hotloopEnv) check(s hotSim, got simDigest) error {
	want, ok := e.digests[s.key()]
	if !ok {
		return fmt.Errorf("%s: no stored digest", s.key())
	}
	if got != want {
		return fmt.Errorf("%s: simulated outcome %+v, stored digest %+v", s.key(), got, want)
	}
	return nil
}

// runPass runs every sim once in the given order; traced passes go through
// the MemPort wrapper and record spans. A non-nil y is read before each
// sim, outside the pass's timing.
func (e *hotloopEnv) runPass(order []int, traced bool, spans *spanLog, passNo int, r *report, y *yardstick) hotPass {
	p := hotPass{uops: map[string]float64{}, machineTime: map[string]time.Duration{}}
	before := readMem()
	start := time.Now()
	var yardNs time.Duration
	for _, i := range order {
		s := e.sims[i]
		if y != nil {
			t := time.Now()
			y.read(1)
			yardNs += time.Since(t)
		}
		t0 := time.Now()
		var got simDigest
		var err error
		if traced {
			var pr *portedRun
			pr, err = runPorted(s.ck, s.machine.cfg)
			if err == nil {
				got = digestOf(pr.core.Cycles, pr.core.Retired, pr.counters)
				p.port.add(pr.port)
				p.constructMS = append(p.constructMS, ms(pr.built.Sub(pr.start)))
				id := fmt.Sprintf("%s#%d", s.key(), passNo)
				spans.add("sim.construct", id, "sim", pr.start, pr.built)
				spans.add("cpu.run", id, "sim", pr.built, pr.done)
				p.counters.add(pr.counters, pr.ms)
				p.uops[s.machine.name] += float64(pr.core.Retired)
			}
		} else {
			res := sim.Run(s.ck, s.machine.cfg)
			got = digestOf(res.Core.Cycles, res.Core.Retired, res.Counters)
			p.uops[s.machine.name] += float64(res.Core.Retired)
		}
		d := time.Since(t0)
		if err == nil {
			err = e.check(s, got)
		}
		r.op(err)
		p.simDurs = append(p.simDurs, d)
		p.machineTime[s.machine.name] += d
		if traced {
			id := fmt.Sprintf("%s#%d", s.key(), passNo)
			spans.add("sim", id, "", t0, t0.Add(d))
		}
	}
	p.elapsed = time.Since(start) - yardNs
	p.mem = before.to(readMem())
	return p
}

// rate is the pass's sims per second, raw.
func (p hotPass) rate() float64 { return float64(len(p.simDurs)) / p.elapsed.Seconds() }

func (e *hotloopEnv) run(o *options, r *report, y *yardstick) error {
	rng := rand.New(rand.NewSource(o.seed))
	order := func() []int { return rng.Perm(len(e.sims)) }

	// Warm-up: one sim per machine, discarded, so the heap and the code
	// paths of every engine are warm before the first timed pass.
	for i := range hotloopMachines() {
		e.runPass([]int{i}, false, nil, 0, r, nil)
	}

	passes := passCount(o.seconds, hotloopPassSeconds, 2)
	var spans *spanLog
	if o.trace {
		spans = newSpanLog()
		passes += passes % 2 // alternate untraced and traced passes
	}
	var plain, traced []hotPass
	for i := 0; i < passes; i++ {
		isTraced := o.trace && i%2 == 1
		p := e.runPass(order(), isTraced, spans, i, r, y)
		if isTraced {
			traced = append(traced, p)
		} else {
			plain = append(plain, p)
		}
	}

	var rates, durs []float64
	for _, p := range plain {
		rates = append(rates, p.rate())
		for _, d := range p.simDurs {
			durs = append(durs, ms(d))
		}
	}
	lat := summarize(durs)
	r.notef("sim-hotloop: %d sims per pass, %d timed passes (+%d traced), one warm-up sim per machine",
		len(e.sims), len(plain), len(traced))
	r.notef("per-pass sims/s, raw: %s", formatFloats(rates))
	r.notef("sim latency, raw: %s", lat)
	if !o.trace {
		sims := median(rates)
		r.set("sims_per_s", sims, "1/s")
		r.set("requests_per_s", sims, "1/s")
		r.set("latency_p50_ms", lat.p50, "ms")
		if !lat.tailOK {
			return fmt.Errorf("only %d sims timed: too few for a tail", lat.n)
		}
		r.set("latency_tail_ms", lat.tail, "ms")
		return nil
	}
	return e.layers(o, r, rates, plain, traced, spans)
}

// layers fills the per-layer metrics of a traced sim-hotloop run.
func (e *hotloopEnv) layers(o *options, r *report, rates []float64, plain, traced []hotPass, spans *spanLog) error {
	r.set("workloads.generate_s", e.generateS, "s")

	var all, constructMS []float64
	perMachine := map[string][]float64{}
	var windows []memDelta
	var sims []float64
	for _, p := range plain {
		var uops float64
		for name, u := range p.uops {
			uops += u
			perMachine[name] = append(perMachine[name], u/p.machineTime[name].Seconds())
		}
		all = append(all, uops/p.elapsed.Seconds())
		windows = append(windows, p.mem)
		sims = append(sims, float64(len(p.simDurs)))
	}
	r.set("sim.uops_per_s", median(all), "1/s")
	for _, m := range hotloopMachines() {
		r.set("sim.uops_per_s."+m.name, median(perMachine[m.name]), "1/s")
	}
	setAllocMetrics(r, windows, sims)

	var tickMS, accessMS, cpuMS, tracedRates []float64
	var samples portStats
	calls := traced[0].port // the counts are exact and the same every pass
	for _, p := range traced {
		tick, access, self := p.port.estimates()
		tickMS = append(tickMS, tick/1e6)
		accessMS = append(accessMS, access/1e6)
		cpuMS = append(cpuMS, self/1e6)
		constructMS = append(constructMS, p.constructMS...)
		tracedRates = append(tracedRates, p.rate())
		samples.add(p.port)
	}
	r.set("sim.tick_ms", median(tickMS), "ms")
	r.set("sim.access_ms", median(accessMS), "ms")
	r.set("cpu.self_ms", median(cpuMS), "ms")
	r.set("sim.construct_ms", median(constructMS), "ms")
	r.set("sim.tick_calls", float64(calls.tickCalls), "count")
	r.set("sim.access_calls", float64(calls.accessCalls), "count")
	r.set("sim.nextevent_calls", float64(calls.nextEventCalls), "count")
	r.set("trace.samples", float64(samples.tickSamples+samples.accessSamples), "count")
	r.notef("traced and untraced sims matched the same stored digests (cycles, retired µops, counters)")
	r.notef("per traced pass: Tick %d calls, Load+Store %d calls, NextEvent %d calls (exact)",
		calls.tickCalls, calls.accessCalls, calls.nextEventCalls)
	r.notef("timed samples over %d traced passes: Tick %d, Load+Store %d (1 in %d); construction %d",
		len(traced), samples.tickSamples, samples.accessSamples, sampleEvery, len(constructMS))
	r.notef("NextEvent is counted, not timed: its time stays in cpu.self_ms, as does %.1f ms of completion callbacks run inside timed calls",
		float64(samples.doneNs)/1e6)

	c := traced[0].counters
	r.set("cache.l2_misses", float64(c.l2Misses), "count")
	r.set("tlb.walks", float64(c.walks), "count")
	r.set("core.lines_scanned", float64(c.linesScanned), "count")
	r.set("prefetch.issued", float64(c.prefIssued), "count")
	r.set("prefetch.useful_ratio", float64(c.prefUseful)/float64(c.prefIssued), "ratio")
	r.set("bus.prefetch_dropped", float64(c.prefDropped), "count")

	overhead(r, "sims_per_s", median(rates), median(tracedRates))
	return spans.write(o, r)
}

// overhead reports the traced run's cost on one end-to-end throughput.
func overhead(r *report, metric string, untraced, traced float64) {
	pct := (untraced - traced) / untraced * 100
	r.notef("tracing overhead: %s untraced %.4g, traced %.4g (%.1f%% lower traced)", metric, untraced, traced, pct)
	r.set("trace.overhead_pct", pct, "%")
}
