package api

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"repro/internal/jobq"
	"repro/internal/promtest"
	"repro/internal/simcache"
)

// scrapeMetrics fetches /metrics and returns the body.
func scrapeMetrics(t *testing.T, s *Server) string {
	t.Helper()
	w := httptest.NewRecorder()
	s.ServeHTTP(w, httptest.NewRequest("GET", "/metrics", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("/metrics: %d %s", w.Code, w.Body)
	}
	if ct := w.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/metrics content type %q", ct)
	}
	return w.Body.String()
}

// TestMetricsExpositionFormat scrapes /metrics and validates the whole
// payload: every series carries HELP and TYPE, types are legal, and the
// three latency histograms expose cumulative le-labelled buckets ending at
// +Inf whose count matches _count.
func TestMetricsExpositionFormat(t *testing.T) {
	s, _ := newTestServer(t, jobq.Config{Workers: 1, Capacity: 4})

	// One synchronous simulation so the latency histograms and job/cache
	// counters have observations.
	if w := postSim(t, s, `{"benchmark": "quake", "ops": 10000, "wait": true}`); w.Code != http.StatusOK {
		t.Fatalf("warm-up sim: %d %s", w.Code, w.Body)
	}

	fams := promtest.ParseExposition(t, scrapeMetrics(t, s))

	for _, name := range []string{
		"cdpd_queue_depth", "cdpd_jobs_completed_total", "cdpd_cache_hits_total",
		"cdpd_sims_total", "cdpd_heap_alloc_bytes",
	} {
		if fams[name] == nil || len(fams[name].Samples) == 0 {
			t.Errorf("series %s missing from /metrics", name)
		}
	}

	for _, name := range []string{
		"cdpd_queue_wait_seconds", "cdpd_run_duration_seconds", "cdpd_cache_lookup_seconds",
	} {
		fam := fams[name]
		if fam == nil {
			t.Fatalf("histogram %s missing from /metrics", name)
		}
		if fam.Type != "histogram" {
			t.Fatalf("%s TYPE = %q, want histogram", name, fam.Type)
		}
		var buckets, infCount, count int
		var sawSum bool
		prev := -1
		for _, sample := range fam.Samples {
			switch {
			case strings.HasPrefix(sample, name+"_bucket{le="):
				buckets++
				n, err := strconv.Atoi(sample[strings.LastIndex(sample, " ")+1:])
				if err != nil {
					t.Fatalf("%s bucket value: %v", name, err)
				}
				if n < prev {
					t.Fatalf("%s buckets not cumulative: %d after %d", name, n, prev)
				}
				prev = n
				if strings.Contains(sample, `le="+Inf"`) {
					infCount = n
				}
			case strings.HasPrefix(sample, name+"_sum "):
				sawSum = true
			case strings.HasPrefix(sample, name+"_count "):
				count, _ = strconv.Atoi(sample[strings.LastIndex(sample, " ")+1:])
			default:
				t.Fatalf("%s: unexpected sample %q", name, sample)
			}
		}
		if buckets < 2 {
			t.Fatalf("%s exposes %d buckets, want at least a finite one and +Inf", name, buckets)
		}
		if !sawSum {
			t.Fatalf("%s missing _sum", name)
		}
		if infCount != count {
			t.Fatalf("%s +Inf bucket %d != _count %d", name, infCount, count)
		}
	}

	// The warm-up sim must have landed observations in the wait and run
	// histograms (the cache probe always observes, even on miss).
	for _, name := range []string{
		"cdpd_queue_wait_seconds", "cdpd_run_duration_seconds", "cdpd_cache_lookup_seconds",
	} {
		countLine := ""
		for _, sample := range fams[name].Samples {
			if strings.HasPrefix(sample, name+"_count ") {
				countLine = sample
			}
		}
		if countLine == fmt.Sprintf("%s_count 0", name) {
			t.Errorf("%s observed nothing despite a completed simulation", name)
		}
	}
}

// TestMetricsBuildInfo pins the build-identity gauge: always-1 value with
// the toolchain in a label.
func TestMetricsBuildInfo(t *testing.T) {
	s, _ := newTestServer(t, jobq.Config{Workers: 1, Capacity: 4})
	fams := promtest.ParseExposition(t, scrapeMetrics(t, s))
	fam := fams["cdpd_build_info"]
	if fam == nil || fam.Type != "gauge" || len(fam.Samples) != 1 {
		t.Fatalf("cdpd_build_info family: %+v", fam)
	}
	sample := fam.Samples[0]
	if !strings.Contains(sample, fmt.Sprintf("go_version=%q", runtime.Version())) {
		t.Fatalf("go_version label missing: %q", sample)
	}
	if fam.Value(t, 0) != 1 {
		t.Fatalf("build info value = %v, want 1", fam.Value(t, 0))
	}
}

// TestMetricsTierSeries: a server whose cache is the tiered wrapper grows
// the cold-tier series, and a plain-cache server does not expose them at
// all (the block is conditional on the tier being present).
func TestMetricsTierSeries(t *testing.T) {
	plain, _ := newTestServer(t, jobq.Config{Workers: 1, Capacity: 4})
	if fams := promtest.ParseExposition(t, scrapeMetrics(t, plain)); fams["cdpd_cache_disk_hits_total"] != nil {
		t.Fatalf("plain-cache server exposes tier series")
	}

	queue := jobq.New(jobq.Config{Workers: 1, Capacity: 4})
	t.Cleanup(func() { queue.Shutdown(t.Context()) })
	tiered := simcache.NewTiered(simcache.New(1<<20), t.TempDir(), nil)
	t.Cleanup(tiered.Close)
	s := New(queue, tiered)

	if w := postSim(t, s, `{"benchmark": "quake", "ops": 10000, "wait": true}`); w.Code != http.StatusOK {
		t.Fatalf("warm-up sim: %d %s", w.Code, w.Body)
	}

	fams := promtest.ParseExposition(t, scrapeMetrics(t, s))
	for _, name := range []string{
		"cdpd_cache_disk_hits_total", "cdpd_cache_disk_misses_total",
		"cdpd_cache_spill_writes_total", "cdpd_cache_spill_errors_total",
		"cdpd_cache_disk_quarantined_total",
		"cdpd_cache_peer_hits_total", "cdpd_cache_peer_misses_total",
	} {
		if fams[name] == nil || len(fams[name].Samples) == 0 {
			t.Errorf("tier series %s missing from /metrics", name)
		}
	}
	if got := fams["cdpd_cache_spill_writes_total"].Value(t, 0); got < 1 {
		t.Errorf("spill writes = %v after a computed sim, want >= 1", got)
	}
}
