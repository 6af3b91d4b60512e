package api

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"repro/internal/jobq"
	"repro/internal/prefetch/registry"
	"repro/internal/report"
	"repro/internal/sim"
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

// handleArena is GET /v1/arena: run every requested engine over every
// requested benchmark and rank the cells against the stride baseline.
// Query parameters: ops (µop budget per cell), benchmarks and engines
// (comma lists; default the suite representatives × the whole registry),
// priority, wait=1.
//
// Each cell is cached under the same content key POST /v1/sim uses, so an
// arena never re-simulates a configuration the daemon has already served —
// and later single-sim requests hit the cells the arena filled.
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
		if _, _, err := arenaCellSim(benchmarks[0], e, ops); err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
	}

	key := simcache.KeyForArena(benchmarks, engines, ops)
	if data, ok := s.cache.Get(key); ok {
		injectRespondFaults(w, r)
		writeJSON(w, http.StatusOK, envelope{Cached: true, Result: data})
		return
	}
	if s.shedLowPriority(priority) {
		s.writeShed(w)
		return
	}

	jobID := "arena-" + key.String()
	job, err := s.queue.Submit(jobID, priority, s.arenaJob(benchmarks, engines, ops, key))
	if errors.Is(err, jobq.ErrDuplicateID) {
		if j, ok := s.queue.Get(jobID); ok {
			s.respondJob(w, r, false, j)
			return
		}
	}
	if err != nil {
		s.writeBackpressure(w, err)
		return
	}
	s.respondJob(w, r, false, job)
}

// ArenaCellRequest maps one arena cell onto its POST /v1/sim request. It is
// the only spelling of a cell: the standalone arena resolves it through
// buildSim and the cluster coordinator's fan-out submits it, so a cell
// computed anywhere fills the exact cache entry every worker's /v1/sim and
// /v1/arena paths read. The three engines with their own request knobs
// (stride is the always-on baseline, cdp and markov_kb enable theirs) run
// their canonical configurations; interface-native entrants ride the
// request's engine field and accept the registry's spec grammar. The
// stride baseline each benchmark is ranked against is the "stride" cell.
func ArenaCellRequest(bench, engineSpec string, ops int) (SimRequest, error) {
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

// arenaCellSim resolves one arena cell into its simulation inputs exactly
// as a POST /v1/sim of ArenaCellRequest would.
func arenaCellSim(bench, engineSpec string, ops int) (workloads.Spec, sim.Config, error) {
	req, err := ArenaCellRequest(bench, engineSpec, ops)
	if err != nil {
		return workloads.Spec{}, sim.Config{}, err
	}
	spec, cfg, _, err := buildSim(req)
	return spec, cfg, err
}

// MarshalArenaReport renders the cacheable arena payload. Exported so the
// coordinator's distributed fan-out and the local arenaJob produce the
// same bytes for the same cells.
func MarshalArenaReport(ops int, benchmarks, engines []string, cells []report.ArenaCell) ([]byte, error) {
	return json.Marshal(arenaReport{
		Ops:         ops,
		Benchmarks:  benchmarks,
		Engines:     engines,
		Cells:       cells,
		Leaderboard: report.ArenaLeaderboard(cells),
	})
}

// MakeArenaCell assembles one leaderboard cell from a benchmark's stride
// baseline result and the engine under test's. Exported so the
// coordinator's distributed fan-out attributes and ranks cells exactly as
// the local arenaJob does.
func MakeArenaCell(engine, bench string, base, res *SimResult) report.ArenaCell {
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

// arenaJob sweeps the benchmark × engine matrix. Every cell — and the
// stride baseline each benchmark is ranked against — flows through
// GetOrCompute under the /v1/sim content key, so concurrent arenas and
// single-sim requests all collapse onto one simulation per configuration.
func (s *Server) arenaJob(benchmarks, engines []string, ops int, key simcache.Key) jobq.Func {
	return func(ctx context.Context, j *jobq.Job) (any, error) {
		data, hit, err := s.cache.GetOrCompute(key, func() ([]byte, error) {
			total := len(benchmarks) * (len(engines) + 1)
			done := 0
			cells := make([]report.ArenaCell, 0, len(benchmarks)*len(engines))
			for _, bench := range benchmarks {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
				baseRes, err := s.arenaCell(ctx, bench, "stride", ops)
				done++
				j.SetProgress("simulating", done, total)
				if err != nil {
					return nil, err
				}
				for _, eng := range engines {
					if err := ctx.Err(); err != nil {
						return nil, err
					}
					res, err := s.arenaCell(ctx, bench, eng, ops)
					done++
					j.SetProgress("simulating", done, total)
					if err != nil {
						return nil, err
					}
					cells = append(cells, MakeArenaCell(eng, bench, baseRes, res))
				}
			}
			return MarshalArenaReport(ops, benchmarks, engines, cells)
		})
		if err != nil {
			return nil, err
		}
		return jobPayload{data: data, cached: hit}, nil
	}
}

// arenaCell computes (or fetches) one cell under the /v1/sim content key and
// decodes the stable SimResult the cache stores.
func (s *Server) arenaCell(ctx context.Context, bench, engineSpec string, ops int) (*SimResult, error) {
	spec, cfg, err := arenaCellSim(bench, engineSpec, ops)
	if err != nil {
		return nil, err
	}
	key := simcache.KeyFor(spec, cfg, ops)
	data, _, err := s.cache.GetOrCompute(key, func() ([]byte, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		ck := workloads.Checkpoint(spec, ops)
		return renderResult(spec.Name, ops, sim.Run(ck, cfg))
	})
	if err != nil {
		return nil, err
	}
	var res SimResult
	if err := json.Unmarshal(data, &res); err != nil {
		return nil, fmt.Errorf("arena: corrupt cached cell for %s: %w", spec.Name, err)
	}
	return &res, nil
}
