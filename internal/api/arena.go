package api

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/jobq"
	"repro/internal/prefetch/registry"
	"repro/internal/report"
	"repro/internal/simcache"
	"repro/internal/workloads"
)

// arenaReport is the cacheable payload for one finished arena sweep.
type arenaReport struct {
	Ops         int                `json:"ops"`
	Benchmarks  []string           `json:"benchmarks"`
	Engines     []string           `json:"engines"`
	Cells       []report.ArenaCell `json:"cells"`
	Leaderboard string             `json:"leaderboard"`
}

// engineView is one GET /v1/engines entry.
type engineView struct {
	Name string   `json:"name"`
	Doc  string   `json:"doc"`
	Keys []string `json:"keys,omitempty"`
}

// handleEngines is GET /v1/engines: the prefetcher zoo roster — every
// registered engine with its one-line description and tunable spec keys.
// The arena smoke test asserts the leaderboard covers exactly this list.
func (s *Server) handleEngines(w http.ResponseWriter, r *http.Request) {
	names := registry.Names()
	out := make([]engineView, 0, len(names))
	for _, n := range names {
		e, _ := registry.Lookup(n)
		out = append(out, engineView{Name: e.Name, Doc: e.Doc, Keys: e.Keys})
	}
	writeJSON(w, http.StatusOK, map[string]any{"engines": out})
}

// arenaFanout bounds the cells a routed arena keeps in flight, so one sweep
// cannot flood a small fleet's queues into backpressure. A local arena
// computes its cells one at a time on the job's own worker.
const arenaFanout = 8

// handleArena is GET /v1/arena: run every requested engine over every
// requested benchmark and rank the cells against the stride baseline.
// Query parameters: ops (µop budget per cell), benchmarks and engines
// (comma lists; default the suite representatives × the whole registry),
// priority, wait=1.
//
// Each cell is the POST /v1/sim of its arenaCellRequest on this server, so
// on every role an arena never re-runs a configuration the server has
// already served, and later single-sim requests hit the cells the arena
// filled.
func (s *Server) handleArena(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	ops := 0
	if v := q.Get("ops"); v != "" {
		var err error
		ops, err = strconv.Atoi(v)
		if err != nil || ops < 0 {
			writeError(w, http.StatusBadRequest, "bad ops %q", v)
			return
		}
	}
	if ops == 0 {
		ops = workloads.DefaultOps
	}
	priority := 0
	if v := q.Get("priority"); v != "" {
		var err error
		priority, err = strconv.Atoi(v)
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad priority %q", v)
			return
		}
	}

	var benchmarks []string
	if v := q.Get("benchmarks"); v != "" {
		benchmarks = strings.Split(v, ",")
		for _, b := range benchmarks {
			if _, err := workloads.ByName(b); err != nil {
				writeError(w, http.StatusBadRequest,
					"unknown benchmark %q (valid: %s)", b, strings.Join(benchmarkNames(), ", "))
				return
			}
		}
	} else {
		for _, spec := range workloads.SuiteRepresentatives() {
			benchmarks = append(benchmarks, spec.Name)
		}
	}

	engines := registry.Names()
	if v := q.Get("engines"); v != "" {
		engines = strings.Split(v, ",")
	}
	for _, e := range engines {
		if _, err := s.arenaCell(benchmarks[0], e, ops); err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
	}

	key := simcache.KeyForArena(benchmarks, engines, ops, s.opts.CheckpointEveryOps)
	s.serveReport(w, r, key, "arena-"+key.String(), priority, s.arenaJob(benchmarks, engines, ops, key))
}

// arenaCellRequest maps one arena cell onto its POST /v1/sim request. It
// is the only spelling of a cell, so a cell computed anywhere fills the
// exact cache entry every server's /v1/sim and /v1/arena paths read. The
// three engines with their own request knobs (stride is the always-on
// baseline, cdp and markov_kb enable theirs) run their canonical
// configurations; interface-native entrants ride the request's engine
// field and accept the registry's spec grammar. The stride baseline each
// benchmark is ranked against is the "stride" cell.
func arenaCellRequest(bench, engineSpec string, ops int) (SimRequest, error) {
	name, params, err := registry.ParseSpec(engineSpec)
	if err != nil {
		return SimRequest{}, fmt.Errorf("arena: %w", err)
	}
	req := SimRequest{Benchmark: bench, Ops: ops}
	switch name {
	case "stride", "cdp", "markov":
		if len(params) > 0 {
			return SimRequest{}, fmt.Errorf(
				"arena: engine %q runs its canonical configuration; parameters are not supported here (use POST /v1/sim)", name)
		}
		// "stride" is the baseline machine itself: no knob to set.
		req.CDP = name == "cdp"
		if name == "markov" {
			req.MarkovKB = 512
		}
	default:
		if err := registry.Validate(engineSpec); err != nil {
			return SimRequest{}, fmt.Errorf("arena: %w", err)
		}
		req.Engine = engineSpec
	}
	return req, nil
}

// arenaCell resolves one cell exactly as this server resolves the POST
// /v1/sim of its arenaCellRequest, default checkpoint interval included.
func (s *Server) arenaCell(bench, engineSpec string, ops int) (simCall, error) {
	req, err := arenaCellRequest(bench, engineSpec, ops)
	if err != nil {
		return simCall{}, err
	}
	return resolve(s.stamp(req))
}

// makeArenaCell assembles one leaderboard cell from a benchmark's stride
// baseline result and the engine under test's.
func makeArenaCell(engine, bench string, base, res *SimResult) report.ArenaCell {
	cell := report.ArenaCell{
		Engine:    engine,
		Benchmark: bench,
		Band:      report.MPTUBand(base.MPTU),
		IPC:       res.IPC,
		MPTU:      res.MPTU,
		Speedup:   float64(base.MeasuredCycles) / float64(res.MeasuredCycles),
	}
	// Attribute the cell to the source the engine under test issues at:
	// interface-native entrants account under markov, cdp under content,
	// and the baseline's own stride stream is the fallback.
	for _, src := range []string{"content", "markov", "stride"} {
		if p, ok := res.Prefetch[src]; ok {
			cell.Issued = p.Issued
			cell.Accuracy = p.Accuracy
			break
		}
	}
	return cell
}

// arenaJob sweeps the benchmark × engine matrix. Every cell, and the stride
// baseline each benchmark is ranked against, goes through the result cache
// under its /v1/sim content key, so concurrent arenas and single-sim
// requests all collapse onto one miss per configuration. The report
// is assembled in benchmark-outer, engine-inner order whatever order the
// cells finish in.
func (s *Server) arenaJob(benchmarks, engines []string, ops int, key simcache.Key) jobq.Func {
	return func(ctx context.Context, j *jobq.Job) (any, error) {
		data, hit, err := s.cache.GetOrCompute(key, func() ([]byte, error) {
			return s.runArena(ctx, j, benchmarks, engines, ops)
		})
		if err != nil {
			return nil, err
		}
		return jobPayload{data: data, cached: hit}, nil
	}
}

// runArena computes every cell, arenaFanout at a time on a routed server
// and one at a time on a local one, and renders the report. The first
// failing cell stops the sweep and fails it.
func (s *Server) runArena(ctx context.Context, j *jobq.Job, benchmarks, engines []string, ops int) ([]byte, error) {
	type cell struct {
		bench, engine string
		baseline      bool // the stride run the bench's other cells are ranked against
	}
	var cells []cell
	for _, bench := range benchmarks {
		cells = append(cells, cell{bench, "stride", true})
		for _, eng := range engines {
			cells = append(cells, cell{bench, eng, false})
		}
	}
	results := make([]*SimResult, len(cells))
	ctx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)
	var next, done atomic.Int64
	var wg sync.WaitGroup
	workers := 1
	if s.route != nil {
		workers = arenaFanout
	}
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(cells) && ctx.Err() == nil; i = int(next.Add(1) - 1) {
				res, err := s.runCell(ctx, cells[i].bench, cells[i].engine, ops)
				if err != nil {
					cancel(err)
					return
				}
				results[i] = res
				j.SetProgress("simulating", int(done.Add(1)), len(cells))
			}
		}()
	}
	wg.Wait()
	if err := context.Cause(ctx); err != nil {
		return nil, err
	}

	out := arenaReport{Ops: ops, Benchmarks: benchmarks, Engines: engines}
	var base *SimResult
	for i, c := range cells {
		if c.baseline {
			base = results[i]
			continue
		}
		out.Cells = append(out.Cells, makeArenaCell(c.engine, c.bench, base, results[i]))
	}
	out.Leaderboard = report.ArenaLeaderboard(out.Cells)
	return json.Marshal(out)
}

// runCell answers one cell from the result cache or runs it through the
// executor, as POST /v1/sim would, and decodes the stable SimResult the
// cache stores.
func (s *Server) runCell(ctx context.Context, bench, engineSpec string, ops int) (*SimResult, error) {
	c, err := s.arenaCell(bench, engineSpec, ops)
	if err != nil {
		return nil, err
	}
	data, _, err := s.fill(ctx, nil, c, false, math.MaxInt)
	if err != nil {
		return nil, err
	}
	var res SimResult
	if err := json.Unmarshal(data, &res); err != nil {
		return nil, fmt.Errorf("arena: corrupt cell result for %s: %w", bench, err)
	}
	return &res, nil
}
