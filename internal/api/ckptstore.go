package api

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/faultinject"
	"repro/internal/sim"
	"repro/internal/simcache"
)

// ckptStore persists, per running simulation job, the request that started
// it and the latest boundary snapshot, so a daemon that dies mid-job (power
// cut, OOM kill, SIGKILL) can resume the work instead of redoing it. Layout
// is two flat files per job under one directory:
//
//	<job-id>.req.json  the defaulted SimRequest, for resubmission
//	<job-id>.snap      the latest sim.Snapshot (absent until the first boundary)
//
// Writes are atomic (temp file + rename) so a crash mid-write leaves the
// previous snapshot intact, never a torn one.
type ckptStore struct {
	dir string
}

func newCkptStore(dir string) (*ckptStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("checkpoint dir: %w", err)
	}
	return &ckptStore{dir: dir}, nil
}

const (
	reqSuffix  = ".req.json"
	snapSuffix = ".snap"
)

// writeAtomic lands data at path via a temp file and rename.
func (st *ckptStore) writeAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		_ = os.Remove(tmp)
		return err
	}
	return nil
}

// saveRequest records the (already defaulted) request for id.
func (st *ckptStore) saveRequest(id string, req SimRequest) error {
	data, err := json.Marshal(req)
	if err != nil {
		return err
	}
	return st.writeAtomic(filepath.Join(st.dir, id+reqSuffix), data)
}

// saveSnapshot replaces id's resume point with snap. The ckpt.write.error
// fault point models a full or failing disk; on any error the previously
// persisted snapshot (if any) survives untouched, so recovery falls back
// one boundary instead of losing the job.
func (st *ckptStore) saveSnapshot(id string, snap *sim.Snapshot) error {
	if err := faultinject.Error("ckpt.write.error"); err != nil {
		return err
	}
	blob, err := sim.EncodeSnapshot(snap)
	if err != nil {
		return err
	}
	return st.writeAtomic(filepath.Join(st.dir, id+snapSuffix), blob)
}

// loadSnapshot returns id's persisted boundary snapshot, or nil when none
// exists or it fails to decode (a torn file degrades to a from-scratch
// run, exactly like load's recovery path). The submit path uses it to
// resume a job a dead cluster peer had in flight when the checkpoint
// directory is shared.
func (st *ckptStore) loadSnapshot(id string) *sim.Snapshot {
	blob, err := os.ReadFile(filepath.Join(st.dir, id+snapSuffix))
	if err != nil {
		return nil
	}
	snap, err := sim.DecodeSnapshot(blob)
	if err != nil {
		return nil
	}
	return snap
}

// remove deletes both files for id (job finished, canceled, or stale).
func (st *ckptStore) remove(id string) {
	_ = os.Remove(filepath.Join(st.dir, id+reqSuffix))
	st.removeSnapshot(id)
}

// removeSnapshot deletes id's snapshot alone, keeping the request so a
// crash before the next boundary still finds the job to rerun.
func (st *ckptStore) removeSnapshot(id string) {
	_ = os.Remove(filepath.Join(st.dir, id+snapSuffix))
}

// pendingJob is one persisted, unfinished simulation found at startup.
type pendingJob struct {
	id   string
	req  SimRequest
	snap *sim.Snapshot // nil when the job died before its first boundary
}

// load scans the directory for persisted requests and pairs each with its
// snapshot when one decodes cleanly. Unreadable or torn files are skipped
// (a corrupt snapshot degrades to a from-scratch rerun, a corrupt request
// to nothing), never fatal: recovery must not be able to wedge startup.
func (st *ckptStore) load() ([]pendingJob, error) {
	entries, err := os.ReadDir(st.dir)
	if err != nil {
		return nil, err
	}
	var out []pendingJob
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, reqSuffix) {
			continue
		}
		id := strings.TrimSuffix(name, reqSuffix)
		data, err := os.ReadFile(filepath.Join(st.dir, name))
		if err != nil {
			continue
		}
		var req SimRequest
		if err := json.Unmarshal(data, &req); err != nil {
			st.remove(id)
			continue
		}
		p := pendingJob{id: id, req: req}
		if blob, err := os.ReadFile(filepath.Join(st.dir, id+snapSuffix)); err == nil {
			if snap, err := sim.DecodeSnapshot(blob); err == nil {
				p.snap = snap
			}
		}
		out = append(out, p)
	}
	return out, nil
}

// RecoverJobs resubmits every simulation persisted by a previous process,
// resuming each from its latest boundary snapshot when one survived. Job
// IDs are content-keyed ("sim-<hash>"), so clients polling an ID from
// before the restart find the recovered job under the same handle. It
// returns the number of jobs resubmitted and is a no-op without a
// checkpoint store.
func (s *Server) RecoverJobs() (int, error) {
	if s.store == nil {
		return 0, nil
	}
	pending, err := s.store.load()
	if err != nil {
		return 0, err
	}
	n := 0
	for _, p := range pending {
		spec, cfg, ops, err := buildSim(p.req)
		if err != nil {
			// The request predates a validation change; nothing to resume.
			s.store.remove(p.id)
			continue
		}
		key := simcache.KeyFor(spec, cfg, ops)
		if id := SimJobID(key); id != p.id {
			// Hash scheme changed across the restart; the snapshot would
			// land under a different job anyway.
			s.store.remove(p.id)
			continue
		}
		if _, ok := s.cache.Get(key); ok {
			s.store.remove(p.id)
			continue
		}
		snap := p.snap
		if snap != nil && cfg.CheckpointEveryOps <= 0 {
			snap = nil
		}
		// Recovered jobs are never traced: a resume would only cover the
		// tail segment, and the submitter who wanted the trace is gone.
		_, err = s.queue.SubmitTimeout(p.id, p.req.Priority, s.adaptiveTimeout(ops),
			s.simJob(p.id, spec, cfg, ops, key, snap, time.Now(), false, nil))
		if err != nil {
			// Queue full or shutting down: leave the files for next time.
			continue
		}
		n++
	}
	return n, nil
}
