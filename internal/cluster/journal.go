package cluster

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"repro/internal/atomicfile"
	"repro/internal/faultinject"
)

// journalFile is the coordinator's write-ahead journal under -state-dir.
const journalFile = "coordinator.journal"

// journalRecord is one JSON line in the coordinator journal. The journal
// records the one thing a coordinator cannot rebuild from anywhere else
// after a crash: who the ring members were (name, URL, generation). The
// simulations it had accepted are the front end's request records under
// the same directory (api.Server.RecoverJobs), not journal records.
type journalRecord struct {
	// T is the record type: "gen" (compaction generation marker), "member"
	// (admission or URL change) or "leave" (departure or lease expiry).
	// Replay ignores any other type, such as the placement records of
	// journals older coordinators wrote, and the compaction on open drops
	// them.
	T    string `json:"t"`
	Name string `json:"name,omitempty"` // member/leave: worker name
	URL  string `json:"url,omitempty"`  // member: advertised URL
	Gen  uint64 `json:"gen,omitempty"`  // membership generation after the change
}

// journalState is the outcome of replaying a coordinator journal.
type journalState struct {
	// Members maps surviving worker names to their advertised URLs.
	Members map[string]string
	// Generation is the highest membership generation journaled.
	Generation uint64
	// TornRecords counts lines that failed to parse (a crash mid-append
	// tears at most the final line; replay tolerates and counts it).
	TornRecords int
}

// replayJournal reads the journal at path into a journalState. A missing
// file is an empty state, not an error; torn lines are counted and
// skipped.
func replayJournal(path string) (journalState, error) {
	state := journalState{Members: map[string]string{}}
	raw, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return state, nil
	}
	if err != nil {
		return state, err
	}
	for _, line := range bytes.Split(raw, []byte("\n")) {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var rec journalRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			state.TornRecords++
			continue
		}
		if rec.Gen > state.Generation {
			state.Generation = rec.Gen
		}
		switch rec.T {
		case "member":
			if rec.Name != "" {
				state.Members[rec.Name] = rec.URL
			}
		case "leave":
			delete(state.Members, rec.Name)
		}
	}
	return state, nil
}

// journal is the append side of the write-ahead log. Appends are
// best-effort by design: a journal write failure (disk full, the
// cluster.journal.write-error fault) costs recovery fidelity for that one
// record, never a live request — the same stance the checkpoint store
// takes toward snapshot writes.
type journal struct {
	mu sync.Mutex
	f  *os.File // simlint:guardedby mu

	writes    atomic.Uint64
	writeErrs atomic.Uint64
}

// openJournal replays the journal under dir, compacts it (live state only,
// written tmp+rename like a checkpoint), and reopens it for appending. The
// returned state drives the coordinator's recovery.
func openJournal(dir string) (*journal, journalState, error) {
	path := filepath.Join(dir, journalFile)
	state, err := replayJournal(path)
	if err != nil {
		return nil, state, err
	}

	// Compact: the surviving members replace the full history. Between
	// restarts the journal grows only with membership changes, never with
	// requests.
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	if err := enc.Encode(journalRecord{T: "gen", Gen: state.Generation}); err != nil {
		return nil, state, err
	}
	for name, url := range state.Members {
		if err := enc.Encode(journalRecord{T: "member", Name: name, URL: url, Gen: state.Generation}); err != nil {
			return nil, state, err
		}
	}
	if err := atomicfile.Write(path, buf.Bytes()); err != nil {
		return nil, state, err
	}

	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, state, err
	}
	return &journal{f: f}, state, nil
}

// append writes one record. Failures (and the cluster.journal.write-error
// fault) are counted and swallowed — journaling is recovery insurance, not
// a request dependency. Safe on a nil journal (no -state-dir).
func (j *journal) append(rec journalRecord) {
	if j == nil {
		return
	}
	line, err := json.Marshal(rec)
	if err != nil {
		j.writeErrs.Add(1)
		return
	}
	if err := faultinject.Error("cluster.journal.write-error"); err != nil {
		j.writeErrs.Add(1)
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		j.writeErrs.Add(1)
		return
	}
	if _, err := j.f.Write(append(line, '\n')); err != nil {
		j.writeErrs.Add(1)
		return
	}
	j.writes.Add(1)
}

// Close stops further appends. A closed journal counts attempted appends
// as write errors, which is exactly what a crashed process would have
// lost. Safe on nil.
func (j *journal) Close() {
	if j == nil {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f != nil {
		_ = j.f.Close()
		j.f = nil
	}
}
