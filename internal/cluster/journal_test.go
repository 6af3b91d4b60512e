package cluster

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/faultinject"
)

// writeJournalLines hand-writes a journal file from raw lines, standing in
// for the history a previous coordinator incarnation left behind.
func writeJournalLines(t *testing.T, dir string, lines ...string) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dir, journalFile), []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
}

// readJournal replays the journal under dir.
func readJournal(t *testing.T, dir string) journalState {
	t.Helper()
	state, err := replayJournal(filepath.Join(dir, journalFile))
	if err != nil {
		t.Fatal(err)
	}
	return state
}

// TestJournalReplayMissing: no journal file is an empty state, not an error
// — a first boot with -state-dir must come up clean.
func TestJournalReplayMissing(t *testing.T) {
	state := readJournal(t, t.TempDir())
	if len(state.Members) != 0 || state.Generation != 0 {
		t.Fatalf("empty dir replayed to non-empty state: %+v", state)
	}
}

// TestJournalReplaySemantics replays a hand-written history and checks every
// record type lands: members join and leave, the highest generation wins,
// the placement records an older coordinator wrote are ignored, and a torn
// final line (the crash-mid-append case) is counted and skipped without
// poisoning the rest.
func TestJournalReplaySemantics(t *testing.T) {
	dir := t.TempDir()
	writeJournalLines(t, dir,
		`{"t":"member","name":"w1","url":"http://w1","gen":1}`,
		`{"t":"member","name":"w2","url":"http://w2","gen":2}`,
		`{"t":"submit","job":"sim-aaaa","req":{"benchmark":"quake","ops":1000}}`,
		`{"t":"placed","job":"sim-aaaa","worker":"w2"}`,
		`{"t":"leave","name":"w1","gen":3}`,
		`{"t":"done","job":"sim-bbbb"}`,
		`{"t":"member","name":"w3","url":`, // torn mid-append
	)

	state := readJournal(t, dir)
	if len(state.Members) != 1 || state.Members["w2"] != "http://w2" {
		t.Fatalf("members = %v, want only w2", state.Members)
	}
	if state.Generation != 3 {
		t.Fatalf("generation = %d, want 3 (highest journaled)", state.Generation)
	}
	if state.TornRecords != 1 {
		t.Fatalf("torn records = %d, want 1", state.TornRecords)
	}
}

// TestJournalCompaction: openJournal rewrites the file down to the surviving
// members — the journal's size is bounded by membership, not lifetime
// traffic — dropping an older coordinator's placement records once, and
// the compacted file replays to the same state.
func TestJournalCompaction(t *testing.T) {
	dir := t.TempDir()
	var lines []string
	// A long churn history, with the placement records an older coordinator
	// wrote, that nets out to one member.
	for i := 0; i < 50; i++ {
		lines = append(lines,
			`{"t":"member","name":"churn","url":"http://churn","gen":`+jsonInt(uint64(2*i+1))+`}`,
			`{"t":"leave","name":"churn","gen":`+jsonInt(uint64(2*i+2))+`}`,
			`{"t":"submit","job":"sim-done","req":{"ops":1}}`,
			`{"t":"done","job":"sim-done"}`,
		)
	}
	lines = append(lines,
		`{"t":"member","name":"w1","url":"http://w1","gen":101}`,
		`{"t":"submit","job":"sim-open","req":{"benchmark":"quake","ops":1000}}`,
		`{"t":"placed","job":"sim-open","worker":"w1"}`,
	)
	writeJournalLines(t, dir, lines...)

	jr, state, err := openJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer jr.Close()
	if len(state.Members) != 1 || state.Members["w1"] != "http://w1" {
		t.Fatalf("members after churn = %v, want only w1", state.Members)
	}
	if state.Generation != 101 {
		t.Fatalf("generation = %d, want 101", state.Generation)
	}

	// Compaction shrank ~203 history lines to 2 (gen + member).
	raw, err := os.ReadFile(filepath.Join(dir, journalFile))
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(raw), "\n"); n != 2 {
		t.Fatalf("compacted journal has %d lines, want 2:\n%s", n, raw)
	}

	// The compacted file replays to the same state, and post-compaction
	// appends extend it.
	jr.append(journalRecord{T: "member", Name: "w2", URL: "http://w2", Gen: 102})
	again := readJournal(t, dir)
	if len(again.Members) != 2 || again.Members["w1"] != "http://w1" || again.Generation != 102 {
		t.Fatalf("compacted replay lost state: %+v", again)
	}
}

func jsonInt(v uint64) string {
	b, _ := json.Marshal(v)
	return string(b)
}

// TestJournalWriteErrorFault: an armed cluster.journal.write-error drops the
// record and bumps the error counter — the append never fails the caller,
// and the journal keeps accepting once the fault clears.
func TestJournalWriteErrorFault(t *testing.T) {
	dir := t.TempDir()
	jr, _, err := openJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer jr.Close()

	prev := faultinject.Enable(faultinject.MustParse(1, "cluster.journal.write-error:times=1"))
	defer faultinject.Enable(prev)

	jr.append(journalRecord{T: "member", Name: "lost", URL: "http://lost", Gen: 1})
	if got := jr.writeErrs.Load(); got != 1 {
		t.Fatalf("write errors = %d after faulted append, want 1", got)
	}
	jr.append(journalRecord{T: "member", Name: "kept", URL: "http://kept", Gen: 2})
	if got := jr.writes.Load(); got != 1 {
		t.Fatalf("writes = %d after clean append, want 1", got)
	}

	state, err := replayJournal(filepath.Join(dir, journalFile))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := state.Members["lost"]; ok {
		t.Fatal("faulted record reached the journal")
	}
	if state.Members["kept"] != "http://kept" {
		t.Fatalf("clean record missing: %+v", state.Members)
	}
}

// TestJournalClosedAndNil: appends after Close count as write errors (the
// crashed-process stand-in appends nothing), and a nil journal — no
// -state-dir — swallows both append and Close.
func TestJournalClosedAndNil(t *testing.T) {
	jr, _, err := openJournal(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	jr.Close()
	jr.append(journalRecord{T: "member", Name: "late", Gen: 1})
	if got := jr.writeErrs.Load(); got != 1 {
		t.Fatalf("write errors after close = %d, want 1", got)
	}
	jr.Close() // idempotent

	var nilJr *journal
	nilJr.append(journalRecord{T: "member", Name: "x"})
	nilJr.Close()
}
