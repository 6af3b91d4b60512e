package api

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/atomicfile"
	"repro/internal/faultinject"
	"repro/internal/sim"
)

// ckptStore keeps flat per-job files under one directory, so a process
// that dies mid-job (power cut, OOM kill, SIGKILL) can resume the work
// instead of redoing it:
//
//	<job-id>.req.json  the request record: the defaulted SimRequest, for resubmission
//	<job-id>.snap      the latest sim.Snapshot (absent until the first boundary)
//
// A server keeps its snapshots in the store of Options.CheckpointDir and
// its request records in the store RecoverJobs opens. A standalone daemon
// gives both one directory, a coordinator keeps records only, and a
// cluster worker snapshots only. Every method but saveSnapshot is a no-op
// on a nil store.
//
// Writes go through atomicfile, so a crash mid-write leaves the previous
// snapshot intact, never a torn one, and two workers sharing the directory
// cannot rename each other's half-written file into place.
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

// saveRequest records the (already defaulted) request for id.
func (st *ckptStore) saveRequest(id string, req SimRequest) error {
	if st == nil {
		return nil
	}
	data, err := json.Marshal(req)
	if err != nil {
		return err
	}
	return atomicfile.Write(filepath.Join(st.dir, id+reqSuffix), data)
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
	return atomicfile.Write(filepath.Join(st.dir, id+snapSuffix), blob)
}

// loadSnapshot returns id's persisted boundary snapshot, or nil when none
// exists or it fails to decode (a torn file degrades to a from-scratch
// run). Every local run consults it, so a job recovered at startup, or one
// a dead cluster peer had in flight when the checkpoint directory is
// shared, resumes from its last boundary.
func (st *ckptStore) loadSnapshot(id string) *sim.Snapshot {
	if st == nil {
		return nil
	}
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

// removeRequest deletes id's request record.
func (st *ckptStore) removeRequest(id string) {
	if st != nil {
		_ = os.Remove(filepath.Join(st.dir, id+reqSuffix))
	}
}

// removeSnapshot deletes id's snapshot alone, keeping the request so a
// crash before the next boundary still finds the job to rerun.
func (st *ckptStore) removeSnapshot(id string) {
	if st != nil {
		_ = os.Remove(filepath.Join(st.dir, id+snapSuffix))
	}
}

// RecoverJobs makes dir this server's request-record directory and
// resubmits every record a previous process left there through submit,
// the path POST /v1/sim takes: a local job resumes from its latest
// snapshot when one survived, and a routed one is placed on its key's
// current owner. From then on the server records every simulation it
// accepts, a /v1/sim job when submit accepts it and an arena cell when it
// misses the cache, until the simulation succeeds or a client's DELETE
// drops it; any other end keeps the record for the next restart. Job IDs
// are content-keyed ("sim-<key>"), so clients polling an ID from before
// the restart find the recovered job under the same handle.
//
// Call it before the server takes requests. It returns the number of jobs
// resubmitted; with an empty dir it records and recovers nothing.
func (s *Server) RecoverJobs(dir string) (int, error) {
	if dir == "" {
		return 0, nil
	}
	records, err := newCkptStore(dir)
	if err != nil {
		return 0, err
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	s.records = records
	n := 0
	for _, e := range entries {
		id, ok := strings.CutSuffix(e.Name(), reqSuffix)
		if e.IsDir() || !ok {
			continue
		}
		// A record that cannot be read now (EIO, EMFILE) waits for the
		// next start. A torn one fails to resolve to its ID, unless all it
		// lost lies outside the content key, and is cleared: recovery must
		// not be able to wedge startup.
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			continue
		}
		var req SimRequest
		_ = json.Unmarshal(data, &req)
		// Recovered jobs are never traced: a resume would only cover the
		// tail segment, and the submitter who wanted the trace is gone.
		req.Trace = false
		if c, err := resolve(req); err == nil && c.id == id {
			if _, hit := s.cache.Get(c.key); !hit {
				if _, err := s.submit(c, math.MaxInt); err == nil {
					n++
				}
				// Otherwise the queue is full or shutting down: leave the
				// files for next time.
				continue
			}
		}
		// The record predates a validation or hash change, or its result
		// is already cached: nothing to resume.
		s.clear(id)
	}
	return n, nil
}
