package cluster

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/faultinject"
	"repro/internal/jobq"
	"repro/internal/simcache"
)

// answer is what a client can observe of one response.
type answer struct {
	status                        int
	body, contentType, retryAfter string
}

// ask sends one request and records its answer. A body cut short by the
// server is recorded with the read error, so a torn response compares
// equal only to another torn at the same byte.
func ask(t *testing.T, base, method, path, body string) answer {
	t.Helper()
	req, err := http.NewRequest(method, base+path, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, path, err)
	}
	defer resp.Body.Close()
	payload, err := io.ReadAll(resp.Body)
	a := answer{
		status:      resp.StatusCode,
		body:        string(payload),
		contentType: resp.Header.Get("Content-Type"),
		retryAfter:  resp.Header.Get("Retry-After"),
	}
	if err != nil {
		a.body += " <" + err.Error() + ">"
	}
	return a
}

// TestCoordinatorStandaloneParity sends one table of requests to a
// standalone api.Server and to a coordinator with the same default
// checkpoint interval. Status, body, Content-Type and Retry-After must
// agree: validation and its order, the 202 acknowledgement, the cached
// repeat of a finished request, an arena report whose cells run segmented,
// the respond fault on a cached report and on a cached sim, and a
// submission after shutdown.
func TestCoordinatorStandaloneParity(t *testing.T) {
	const every = 50_000
	coord, coordTS := startCoordinator(t, CoordinatorOptions{CheckpointEveryOps: every})
	startWorker(t, coordTS.URL, "w1", WorkerOptions{})
	waitForWorkers(t, coord, 1)

	queue := jobq.New(jobq.Config{Workers: 2, Capacity: 16})
	t.Cleanup(func() { queue.Shutdown(t.Context()) })
	ref, err := api.NewWithOptions(queue, simcache.New(1<<24), api.Options{CheckpointEveryOps: every})
	if err != nil {
		t.Fatal(err)
	}
	refTS := httptest.NewServer(ref)
	t.Cleanup(refTS.Close)

	same := func(name, method, path, body string) {
		t.Helper()
		want := ask(t, refTS.URL, method, path, body)
		if got := ask(t, coordTS.URL, method, path, body); got != want {
			t.Errorf("%s: coordinator and standalone disagree\ncoordinator %+v\nstandalone  %+v", name, got, want)
		}
	}
	for _, tc := range []struct{ name, method, path, body string }{
		{"bad json", "POST", "/v1/sim", `{"benchmark":`},
		{"unknown field", "POST", "/v1/sim", `{"benchmark":"quake","bogus":1}`},
		{"unknown benchmark", "POST", "/v1/sim", `{"benchmark":"nope"}`},
		{"negative ops", "POST", "/v1/sim", `{"benchmark":"quake","ops":-1}`},
		{"engine list", "POST", "/v1/sim", `{"benchmark":"quake","engine":"pangloss+markov"}`},
		{"accepted", "POST", "/v1/sim", `{"benchmark":"quake","ops":12000}`},
		{"arena bad ops", "GET", "/v1/arena?ops=-5", ""},
		{"arena bad priority", "GET", "/v1/arena?priority=high", ""},
		{"arena unknown benchmark", "GET", "/v1/arena?benchmarks=nope", ""},
		{"arena unknown engine", "GET", "/v1/arena?engines=quake3", ""},
		{"arena parameterised engine", "GET", "/v1/arena?engines=markov:entries=64", ""},
		{"arena validation order", "GET", "/v1/arena?benchmarks=quake,nope&engines=quake3", ""},
		{"arena report", "GET", "/v1/arena?ops=60000&benchmarks=quake&engines=cdp&wait=1", ""},
	} {
		same(tc.name, tc.method, tc.path, tc.body)
	}

	// The accepted request above, once finished, is answered from the
	// cache on either role. The first waited POST only waits it out: it
	// attaches to the job or hits, depending on timing.
	const accepted = `{"benchmark":"quake","ops":12000}`
	for _, base := range []string{refTS.URL, coordTS.URL} {
		if a := ask(t, base, "POST", "/v1/sim?wait=1", accepted); a.status != http.StatusOK {
			t.Fatalf("%s: waiting out the accepted request: %+v", base, a)
		}
	}
	same("cached repeat", "POST", "/v1/sim?wait=1", accepted)

	// The cached report and the cached sim, torn by the respond fault on
	// either role.
	for _, base := range []string{refTS.URL, coordTS.URL} {
		for _, tc := range []struct{ name, method, path, body string }{
			{"arena report", "GET", "/v1/arena?ops=60000&benchmarks=quake&engines=cdp", ""},
			{"sim", "POST", "/v1/sim", accepted},
		} {
			prev := faultinject.Enable(faultinject.MustParse(3, "api.respond.partialwrite:times=1"))
			a := ask(t, base, tc.method, tc.path, tc.body)
			faultinject.Enable(prev)
			if !strings.HasSuffix(a.body, ">") {
				t.Errorf("%s: api.respond.partialwrite did not tear the cached %s: %+v", base, tc.name, a)
			}
		}
	}

	ctx, cancel := context.WithTimeout(t.Context(), 30*time.Second)
	defer cancel()
	if err := queue.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if err := coord.Close(ctx); err != nil {
		t.Fatal(err)
	}
	same("after shutdown", "POST", "/v1/sim", `{"benchmark":"quake","ops":13000}`)
}
