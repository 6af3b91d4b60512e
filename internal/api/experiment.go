package api

import (
	"context"
	"encoding/json"
	"net/http"
	"strconv"

	"repro/internal/experiments"
	"repro/internal/jobq"
	"repro/internal/simcache"
	"repro/internal/workloads"
)

// experimentReport is the cacheable payload for one finished experiment.
type experimentReport struct {
	ID    string `json:"id"`
	Title string `json:"title"`
	Ops   int    `json:"ops"`
	Reps  bool   `json:"reps"`
	Text  string `json:"text"`
}

// handleExperiment is GET /v1/experiments/{id}: run a registered
// experiment (a full benchmark × config matrix) as one job. Query
// parameters: ops (µop budget), reps=1 (representative-benchmark subset),
// priority, wait=1.
func (s *Server) handleExperiment(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	runner, err := experiments.Get(id)
	if err != nil {
		writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	q := r.URL.Query()
	ops := 0
	if v := q.Get("ops"); v != "" {
		ops, err = strconv.Atoi(v)
		if err != nil || ops < 0 {
			writeError(w, http.StatusBadRequest, "bad ops %q", v)
			return
		}
	}
	if ops == 0 {
		ops = workloads.DefaultOps
	}
	reps := q.Get("reps") == "1"
	priority := 0
	if v := q.Get("priority"); v != "" {
		priority, err = strconv.Atoi(v)
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad priority %q", v)
			return
		}
	}

	key := simcache.KeyForExperiment(id, ops, reps)
	s.serveReport(w, r, key, "exp-"+key.String(), priority, s.experimentJob(runner, ops, reps, key))
}

// experimentJob runs one experiment under the job's context, forwarding
// per-simulation matrix progress to stream subscribers.
func (s *Server) experimentJob(runner experiments.Runner, ops int, reps bool, key simcache.Key) jobq.Func {
	return func(ctx context.Context, j *jobq.Job) (any, error) {
		data, hit, err := s.cache.GetOrCompute(key, func() ([]byte, error) {
			rep, err := runner.Run(experiments.Options{
				Ctx:  ctx,
				Ops:  ops,
				Reps: reps,
				Progress: func(done, total int) {
					j.SetProgress("simulating", done, total)
				},
			})
			if err != nil {
				return nil, err
			}
			return json.Marshal(experimentReport{
				ID: runner.ID, Title: runner.Title, Ops: ops, Reps: reps, Text: rep.Text,
			})
		})
		if err != nil {
			return nil, err
		}
		return jobPayload{data: data, cached: hit}, nil
	}
}
