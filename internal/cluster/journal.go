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
// records two things a coordinator cannot reconstruct from anywhere else
// after a crash: who the ring members were (name, URL, generation) and
// which external placements were accepted but not yet completed. Replay of
// those two sets is exactly what a rebooted coordinator needs to re-lease
// its fleet and re-route orphaned work.
type journalRecord struct {
	// T is the record type: "gen" (compaction generation marker), "member"
	// (admission or URL change), "leave" (departure or lease expiry),
	// "submit" (placement accepted), "placed" (placement landed on a
	// worker), "done" (placement reached a terminal outcome).
	T      string          `json:"t"`
	Name   string          `json:"name,omitempty"`   // member/leave: worker name
	URL    string          `json:"url,omitempty"`    // member: advertised URL
	Gen    uint64          `json:"gen,omitempty"`    // membership generation after the change
	Job    string          `json:"job,omitempty"`    // submit/placed/done: job ID
	Req    json.RawMessage `json:"req,omitempty"`    // submit: the routed SimRequest
	Worker string          `json:"worker,omitempty"` // placed: where the job landed
}

// Placement is one open external placement recovered from the journal: a
// job the previous coordinator incarnation accepted but never completed.
type Placement struct {
	Job    string
	Req    json.RawMessage
	Worker string // last worker it was placed on ("" = never placed)
}

// JournalState is the outcome of replaying a coordinator journal. Besides
// feeding recovery it doubles as the chaos orchestrator's evidence: after
// a run settles, Open must be empty (no lost jobs) and DoubleCompletes
// zero (no placement finished twice).
type JournalState struct {
	// Members maps surviving worker names to their advertised URLs.
	Members map[string]string
	// Generation is the highest membership generation journaled.
	Generation uint64
	// Open holds accepted-but-not-completed placements by job ID.
	Open map[string]Placement
	// DoubleCompletes counts "done" records with no matching open
	// placement — a completion journaled twice.
	DoubleCompletes int
	// TornRecords counts lines that failed to parse (a crash mid-append
	// tears at most the final line; replay tolerates and counts it).
	TornRecords int
}

// replayJournal reads the journal at path into a JournalState. A missing
// file is an empty state, not an error; torn lines are counted and
// skipped.
func replayJournal(path string) (JournalState, error) {
	state := JournalState{Members: map[string]string{}, Open: map[string]Placement{}}
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
		case "submit":
			if rec.Job != "" {
				pl := state.Open[rec.Job]
				pl.Job, pl.Req = rec.Job, rec.Req
				state.Open[rec.Job] = pl
			}
		case "placed":
			if pl, ok := state.Open[rec.Job]; ok {
				pl.Worker = rec.Worker
				state.Open[rec.Job] = pl
			}
		case "done":
			if _, ok := state.Open[rec.Job]; ok {
				delete(state.Open, rec.Job)
			} else {
				state.DoubleCompletes++
			}
		}
	}
	return state, nil
}

// ReadJournal replays the coordinator journal under stateDir. The chaos
// orchestrator and operators use it to audit a cluster's placement ledger
// without constructing a coordinator.
func ReadJournal(stateDir string) (JournalState, error) {
	return replayJournal(filepath.Join(stateDir, journalFile))
}

// journal is the append side of the write-ahead log. Appends are
// best-effort by design: a journal write failure (disk full, the
// cluster.journal.write-error fault) costs recovery fidelity for that one
// record, never a live request — the same stance the checkpoint store
// takes toward snapshot writes.
type journal struct {
	path string

	mu sync.Mutex
	f  *os.File // simlint:guardedby mu

	writes    atomic.Uint64
	writeErrs atomic.Uint64
}

// openJournal replays the journal under dir, compacts it (live state only,
// written tmp+rename like a checkpoint), and reopens it for appending. The
// returned state drives the coordinator's recovery.
func openJournal(dir string) (*journal, JournalState, error) {
	path := filepath.Join(dir, journalFile)
	state, err := replayJournal(path)
	if err != nil {
		return nil, state, err
	}

	// Compact: the snapshot of live state replaces the full history, so
	// the journal's size is bounded by the live member and placement sets
	// across restarts, not by lifetime traffic.
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	writeRec := func(rec journalRecord) error { return enc.Encode(rec) }
	if err := writeRec(journalRecord{T: "gen", Gen: state.Generation}); err != nil {
		return nil, state, err
	}
	for name, url := range state.Members {
		if err := writeRec(journalRecord{T: "member", Name: name, URL: url, Gen: state.Generation}); err != nil {
			return nil, state, err
		}
	}
	for _, pl := range state.Open {
		if err := writeRec(journalRecord{T: "submit", Job: pl.Job, Req: pl.Req}); err != nil {
			return nil, state, err
		}
		if pl.Worker != "" {
			if err := writeRec(journalRecord{T: "placed", Job: pl.Job, Worker: pl.Worker}); err != nil {
				return nil, state, err
			}
		}
	}
	if err := atomicfile.Write(path, buf.Bytes()); err != nil {
		return nil, state, err
	}

	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, state, err
	}
	return &journal{path: path, f: f}, state, nil
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
