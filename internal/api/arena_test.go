package api

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/jobq"
	"repro/internal/prefetch/registry"
	"repro/internal/report"
)

func getArena(t *testing.T, s *Server, query string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest("GET", "/v1/arena"+query, nil)
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	return w
}

// TestEnginesEndpoint pins /v1/engines to the registry roster — the arena
// smoke test in CI compares leaderboard coverage against this list.
func TestEnginesEndpoint(t *testing.T) {
	s, _ := newTestServer(t, jobq.Config{Workers: 1, Capacity: 4})
	req := httptest.NewRequest("GET", "/v1/engines", nil)
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("engines: %d %s", w.Code, w.Body)
	}
	var out struct {
		Engines []struct {
			Name string `json:"name"`
			Doc  string `json:"doc"`
		} `json:"engines"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	names := registry.Names()
	if len(out.Engines) != len(names) {
		t.Fatalf("endpoint lists %d engines, registry has %d", len(out.Engines), len(names))
	}
	for i, e := range out.Engines {
		if e.Name != names[i] {
			t.Errorf("engine %d = %q, registry says %q", i, e.Name, names[i])
		}
		if e.Doc == "" {
			t.Errorf("engine %q has no doc line", e.Name)
		}
	}
}

// TestRegistryCDPIsTheSimulatorsCDP: the registry's cdp engine is the
// simulator's own core.Prefetcher, and a spec builds the policy the
// matching /v1/sim knobs build, so conformance, the roster and the arena
// all see the type MemSystem runs.
func TestRegistryCDPIsTheSimulatorsCDP(t *testing.T) {
	eng, err := registry.Build("cdp:depth=2,next=1,prev=1,reinforce=false")
	if err != nil {
		t.Fatal(err)
	}
	p, ok := eng.(*core.Prefetcher)
	if !ok {
		t.Fatalf("cdp spec built a %T, want *core.Prefetcher", eng)
	}
	var req SimRequest
	if err := json.Unmarshal([]byte(`{"benchmark":"b2c","cdp":true,"depth":2,"next_lines":1,"prev_lines":1,"reinforce":false}`), &req); err != nil {
		t.Fatal(err)
	}
	_, cfg, _, err := ResolveSim(req)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Content == nil || p.Config() != *cfg.Content {
		t.Fatalf("registry cdp policy %+v, /v1/sim content %+v", p.Config(), cfg.Content)
	}
}

// TestArenaSweep runs a tiny full-registry arena and checks the matrix is
// complete: one cell per engine × benchmark, every engine on the
// leaderboard, stride cells at exactly 1.0 speedup, and a cache hit on
// resubmission.
func TestArenaSweep(t *testing.T) {
	s, _ := newTestServer(t, jobq.Config{Workers: 1, Capacity: 4})

	w := getArena(t, s, "?ops=10000&benchmarks=b2c,tpcc-1&wait=1")
	if w.Code != http.StatusOK {
		t.Fatalf("arena: %d %s", w.Code, w.Body)
	}
	var env struct {
		Cached bool `json:"cached"`
		Result struct {
			Ops         int                `json:"ops"`
			Benchmarks  []string           `json:"benchmarks"`
			Engines     []string           `json:"engines"`
			Cells       []report.ArenaCell `json:"cells"`
			Leaderboard string             `json:"leaderboard"`
		} `json:"result"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &env); err != nil {
		t.Fatal(err)
	}
	if env.Cached {
		t.Fatal("first arena run reported cached")
	}
	engines := registry.Names()
	wantCells := len(engines) * 2
	if len(env.Result.Cells) != wantCells {
		t.Fatalf("arena produced %d cells, want %d (%d engines × 2 benchmarks)",
			len(env.Result.Cells), wantCells, len(engines))
	}
	seen := map[string]int{}
	for _, c := range env.Result.Cells {
		seen[c.Engine]++
		if c.Band == "" {
			t.Errorf("cell %s/%s has no MPTU band", c.Engine, c.Benchmark)
		}
		if c.Engine == "stride" && c.Speedup != 1.0 {
			t.Errorf("stride cell on %s has speedup %v against itself", c.Benchmark, c.Speedup)
		}
		if c.Speedup <= 0 {
			t.Errorf("cell %s/%s has non-positive speedup %v", c.Engine, c.Benchmark, c.Speedup)
		}
	}
	for _, e := range engines {
		if seen[e] != 2 {
			t.Errorf("engine %q appears in %d cells, want 2", e, seen[e])
		}
		if !strings.Contains(env.Result.Leaderboard, e) {
			t.Errorf("leaderboard omits engine %q:\n%s", e, env.Result.Leaderboard)
		}
	}

	// The whole sweep is content-addressed: resubmitting is a cache hit.
	w = getArena(t, s, "?ops=10000&benchmarks=b2c,tpcc-1&wait=1")
	if w.Code != http.StatusOK {
		t.Fatalf("arena rerun: %d %s", w.Code, w.Body)
	}
	var env2 struct {
		Cached bool `json:"cached"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &env2); err != nil {
		t.Fatal(err)
	}
	if !env2.Cached {
		t.Fatal("identical arena request missed the cache")
	}
}

// TestArenaBadRequests exercises the 400 paths: unknown engines carry the
// registry's valid-name listing, and classic engines reject parameters.
func TestArenaBadRequests(t *testing.T) {
	s, _ := newTestServer(t, jobq.Config{Workers: 1, Capacity: 4})
	cases := []struct {
		query   string
		wantErr string
	}{
		{"?engines=quake3", "valid: bestoffset, cdp, markov, pangloss, stride"},
		{"?engines=cdp:depth=9", "parameters are not supported here"},
		{"?engines=pangloss:rows=100", "power of two"},
		{"?benchmarks=nope", "unknown benchmark"},
		{"?ops=-5", "bad ops"},
	}
	for _, tc := range cases {
		w := getArena(t, s, tc.query)
		if w.Code != http.StatusBadRequest {
			t.Errorf("%s: code %d, want 400", tc.query, w.Code)
			continue
		}
		if !strings.Contains(w.Body.String(), tc.wantErr) {
			t.Errorf("%s: body %s missing %q", tc.query, w.Body, tc.wantErr)
		}
	}
}

// TestArenaCellRequestRejectsParameterisedEngine: the engines with their
// own request knobs run only their canonical configuration in an arena
// cell, so a parameterised spelling must be refused rather than silently
// dropping its parameters.
func TestArenaCellRequestRejectsParameterisedEngine(t *testing.T) {
	const ops = 20_000
	for _, engine := range []string{"markov(budget_kb=64)", "markov:entries=64", "cdp:depth=2"} {
		if _, err := arenaCellRequest("quake", engine, ops); err == nil {
			t.Errorf("parameterised %q accepted by arenaCellRequest", engine)
		}
	}
}

// TestArenaCellsRunAsSubmitted: a cell is the POST /v1/sim of its cell
// request on this server, so the server's default checkpoint interval
// segments it and its snapshots reach the store, which holds nothing once
// the sweep has finished.
func TestArenaCellsRunAsSubmitted(t *testing.T) {
	dir := t.TempDir()
	s, _ := newResilientServer(t, jobq.Config{Workers: 1, Capacity: 4},
		Options{CheckpointDir: dir, CheckpointEveryOps: 4000})
	if w := getArena(t, s, "?ops=10000&benchmarks=b2c&engines=cdp&wait=1"); w.Code != http.StatusOK {
		t.Fatalf("arena: %d %s", w.Code, w.Body)
	}
	if got := s.ckptWrites.Load(); got == 0 {
		t.Fatal("arena cells ran unsegmented despite the server's default interval")
	}
	left, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil || len(left) != 0 {
		t.Fatalf("checkpoint files left after the sweep: %v (%v)", left, err)
	}
}

// TestArenaCachedCellTouchesNoFile: a cell is recorded only while its miss
// runs, so a cell answered from the cache neither writes a request record
// nor deletes a snapshot, such as the one a peer sharing the directory is
// resuming from. The cell that misses clears its own files.
func TestArenaCachedCellTouchesNoFile(t *testing.T) {
	dir := t.TempDir()
	s, _ := newResilientServer(t, jobq.Config{Workers: 1, Capacity: 4},
		Options{CheckpointDir: dir, CheckpointEveryOps: 4000})
	if _, err := s.RecoverJobs(dir); err != nil {
		t.Fatal(err)
	}
	if w := getArena(t, s, "?ops=10000&benchmarks=b2c&engines=cdp&wait=1"); w.Code != http.StatusOK {
		t.Fatalf("arena: %d %s", w.Code, w.Body)
	}
	baseline, err := s.arenaCell("b2c", "stride", 10_000)
	if err != nil {
		t.Fatal(err)
	}
	peer := filepath.Join(dir, baseline.id+snapSuffix)
	if err := os.WriteFile(peer, []byte("a peer's snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}

	// The second sweep shares the cached stride baseline and misses on its
	// pangloss cell.
	writes := s.ckptWrites.Load()
	if w := getArena(t, s, "?ops=10000&benchmarks=b2c&engines=pangloss&wait=1"); w.Code != http.StatusOK {
		t.Fatalf("arena: %d %s", w.Code, w.Body)
	}
	if s.ckptWrites.Load() == writes {
		t.Fatal("the pangloss cell ran unsegmented or hit the cache")
	}
	left, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil || len(left) != 1 || left[0] != peer {
		t.Fatalf("files after the second sweep = %v (%v), want only the peer's snapshot %s", left, err, peer)
	}
}

// TestArenaFailedCellIsRecovered: a cell's miss records the cell, so a
// cell that fails keeps its record, and the next server's RecoverJobs
// resubmits it as the /v1/sim job of its cell request, which clears it.
func TestArenaFailedCellIsRecovered(t *testing.T) {
	dir := t.TempDir()
	opts := Options{CheckpointDir: dir, CheckpointEveryOps: 2000}
	a, _ := newResilientServer(t, jobq.Config{Workers: 1, Capacity: 4}, opts)
	if _, err := a.RecoverJobs(dir); err != nil {
		t.Fatal(err)
	}
	prev := faultinject.Enable(faultinject.MustParse(11, "sim.checkpoint.abort:after=2"))
	w := getArena(t, a, "?ops=10000&benchmarks=b2c&engines=cdp&wait=1")
	faultinject.Enable(prev)
	if w.Code != http.StatusInternalServerError {
		t.Fatalf("arena under an aborting cell: %d %s, want 500", w.Code, w.Body)
	}
	baseline, err := a.arenaCell("b2c", "stride", 10_000)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, baseline.id+reqSuffix)); err != nil {
		t.Fatalf("the failed cell left no request record: %v", err)
	}

	b, _ := newResilientServer(t, jobq.Config{Workers: 1, Capacity: 4}, opts)
	if n, err := b.RecoverJobs(dir); err != nil || n != 1 {
		t.Fatalf("RecoverJobs = (%d, %v), want (1, nil)", n, err)
	}
	j, ok := b.queue.Get(baseline.id)
	if !ok {
		t.Fatalf("no recovered job %s", baseline.id)
	}
	<-j.Done()
	if _, err := j.Result(); err != nil {
		t.Fatalf("recovered cell failed: %v", err)
	}
	if got := b.resumedJobs.Load(); got != 1 {
		t.Errorf("resumed %d jobs from snapshots, want 1", got)
	}
	if left, _ := filepath.Glob(filepath.Join(dir, "*")); len(left) != 0 {
		t.Errorf("files left after the recovered cell finished: %v", left)
	}
}
