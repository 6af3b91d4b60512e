package atomicfile

import (
	"bytes"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// TestConcurrentWritersOnePath: writers racing on one path each land their
// whole payload or lose whole. The file ends as exactly one writer's
// bytes, with mode 0644, and no temp file is left beside it.
func TestConcurrentWritersOnePath(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "job.snap")
	const writers = 8
	payloads := make([][]byte, writers)
	for i := range payloads {
		payloads[i] = bytes.Repeat([]byte{byte('a' + i)}, 1<<20)
	}
	for round := 0; round < 5; round++ {
		var wg sync.WaitGroup
		for _, p := range payloads {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := Write(path, p); err != nil {
					t.Error(err)
				}
			}()
		}
		wg.Wait()
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		whole := false
		for _, p := range payloads {
			whole = whole || bytes.Equal(got, p)
		}
		if !whole {
			t.Fatalf("round %d: file is no single writer's bytes (%d bytes, first %q)", round, len(got), got[:1])
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("directory holds %d entries after the writes, want only the file: %v", len(entries), entries)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Mode().Perm() != 0o644 {
		t.Fatalf("mode %v, want 0644", fi.Mode().Perm())
	}
}

// TestWriteErrorLeavesNoTemp: a write that cannot land (the target is a
// directory) fails and removes its temp file.
func TestWriteErrorLeavesNoTemp(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "occupied")
	if err := os.Mkdir(path, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(path, "keep"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := Write(path, []byte("data")); err == nil {
		t.Fatal("Write over a non-empty directory succeeded")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("directory holds %v after a failed write, want only the target", entries)
	}
}

// TestRemoveTemps: only names of Write's temp-file shape go; a target, a
// name that merely contains ".tmp", and a directory stay.
func TestRemoveTemps(t *testing.T) {
	dir := t.TempDir()
	if err := Write(filepath.Join(dir, "job.snap"), []byte("snap")); err != nil {
		t.Fatal(err)
	}
	keep := []string{"job.snap", "job.tmp", "job.tmpx", "job.tmp1.bak", ".tmp1", "coordinator.journal"}
	gone := []string{"job.snap.tmp1889226410", "job.req.json.tmp42", "coordinator.journal.tmp7"}
	for _, name := range append(keep[1:], gone...) {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.Mkdir(filepath.Join(dir, "sub.tmp3"), 0o755); err != nil {
		t.Fatal(err)
	}
	keep = append(keep, "sub.tmp3")

	if err := RemoveTemps(dir); err != nil {
		t.Fatal(err)
	}
	for _, name := range keep {
		if _, err := os.Lstat(filepath.Join(dir, name)); err != nil {
			t.Errorf("%s removed: %v", name, err)
		}
	}
	for _, name := range gone {
		if _, err := os.Lstat(filepath.Join(dir, name)); !os.IsNotExist(err) {
			t.Errorf("%s left behind: %v", name, err)
		}
	}
}
