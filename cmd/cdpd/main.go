// Command cdpd serves the simulator over HTTP: POST /v1/sim submits a
// simulation into a bounded worker pool, identical requests are collapsed
// and cached by content hash, and /metrics exposes queue, cache, and
// throughput telemetry. See internal/api for the endpoint catalogue.
//
// Roles: the default -role standalone is the single-process daemon. -role
// coordinator serves the same API and routes each /v1/sim job and arena
// cell to its content key's owner on a consistent-hash ring of workers,
// stealing jobs back from workers that die mid-run; only
// GET /v1/experiments/{id} still runs its matrix in the coordinator's own
// process. -role worker joins a coordinator (-join URL), heartbeats a
// lease, and serves its share of the keyspace; its result cache becomes
// the shared tier (memory, disk spill under -cache-dir, then peer fetch
// from the ring). See internal/cluster.
//
// Resilience: a standalone daemon keeps a request record for every
// simulation it accepts, and the boundary snapshots of running ones, under
// -checkpoint-dir, so a killed daemon resubmits them on restart and
// resumes them (byte-identical results). A coordinator keeps its request
// records beside its membership journal under -state-dir and re-routes
// them on restart; a worker keeps only snapshots under -checkpoint-dir,
// where a survivor sharing the directory resumes a dead peer's job.
// Watermark flags shed low-priority work and flip /readyz under overload;
// -faults arms the deterministic fault-injection plan (testing only).
// Invalid flags exit 2 with a one-line message before anything starts.
//
// SIGINT/SIGTERM trigger a graceful shutdown: the server stops accepting
// work, drains in-flight jobs within -drain, cancels whatever remains, and
// exits 0.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the default mux, served only at -debug-addr
	"net/url"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"repro/internal/api"
	"repro/internal/cluster"
	"repro/internal/faultinject"
	"repro/internal/jobq"
	"repro/internal/simcache"
)

// options collects every flag so validation is one pure function the tests
// can hit without execing the binary.
type options struct {
	addr       string
	workers    int
	queueCap   int
	cacheMB    int
	jobTimeout time.Duration
	drain      time.Duration

	role     string
	joinURL  string
	name     string
	selfURL  string
	cacheDir string
	stateDir string
	leaseTTL time.Duration

	checkpointDir   string
	checkpointEvery int
	shedWatermark   float64
	overloadWM      float64
	adaptiveTimeout bool

	faults    string
	faultSeed int64

	debugAddr string
	logLevel  string
}

// parseLogLevel maps the -log-level flag to a slog level; empty means the
// default (info), so a zero options value stays valid.
func parseLogLevel(s string) (slog.Level, error) {
	switch strings.ToLower(s) {
	case "", "info":
		return slog.LevelInfo, nil
	case "debug":
		return slog.LevelDebug, nil
	case "warn":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	}
	return 0, fmt.Errorf("-log-level must be debug, info, warn, or error; got %q", s)
}

// checkBaseURL validates a flag that must name a reachable HTTP endpoint.
func checkBaseURL(flagName, raw string) error {
	u, err := url.Parse(raw)
	if err != nil || !u.IsAbs() || u.Host == "" || (u.Scheme != "http" && u.Scheme != "https") {
		return fmt.Errorf("%s %q is not an absolute http(s) URL, e.g. %s http://127.0.0.1:8080", flagName, raw, flagName)
	}
	return nil
}

// checkWritableDir creates dir if needed and probes it with a throwaway
// file so a typoed path fails at startup, not at first use.
func checkWritableDir(flagName, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("%s %q is not creatable: %v", flagName, dir, err)
	}
	probe := filepath.Join(dir, ".cdpd-probe")
	if err := os.WriteFile(probe, nil, 0o644); err != nil {
		return fmt.Errorf("%s %q is not writable: %v", flagName, dir, err)
	}
	_ = os.Remove(probe)
	return nil
}

// validate rejects configurations that cannot work, each with a one-line
// message that says how to fix it.
func validate(o options) error {
	if o.addr == "" {
		return errors.New("-addr must not be empty; pass host:port, e.g. -addr 127.0.0.1:8080")
	}
	if o.workers < 0 {
		return fmt.Errorf("-workers must be >= 0 (0 means GOMAXPROCS); got %d", o.workers)
	}
	if o.queueCap <= 0 {
		return fmt.Errorf("-queue must be positive (it bounds queued jobs before 429s); got %d", o.queueCap)
	}
	if o.cacheMB <= 0 {
		return fmt.Errorf("-cache-mb must be positive (result cache bound in MiB); got %d", o.cacheMB)
	}
	if o.jobTimeout < 0 {
		return fmt.Errorf("-job-timeout must be >= 0 (0 disables the per-job deadline); got %v", o.jobTimeout)
	}
	if o.drain < 0 {
		return fmt.Errorf("-drain must be >= 0; got %v", o.drain)
	}
	switch o.role {
	case "", "standalone", "coordinator", "worker": // empty = standalone, so a zero options value stays valid
	default:
		return fmt.Errorf("-role must be standalone, coordinator, or worker; got %q", o.role)
	}
	if o.role == "worker" && o.joinURL == "" {
		return errors.New("-role worker requires -join (the coordinator's base URL, e.g. -join http://127.0.0.1:8080)")
	}
	if o.joinURL != "" {
		if o.role != "worker" {
			return fmt.Errorf("-join only applies to -role worker; got -role %s", o.role)
		}
		if err := checkBaseURL("-join", o.joinURL); err != nil {
			return err
		}
	}
	if o.selfURL != "" {
		if err := checkBaseURL("-self-url", o.selfURL); err != nil {
			return err
		}
	}
	if o.leaseTTL < 0 {
		return fmt.Errorf("-lease-ttl must be >= 0 (0 = default %v); got %v", cluster.DefaultLeaseTTL, o.leaseTTL)
	}
	if o.cacheDir != "" {
		if err := checkWritableDir("-cache-dir", o.cacheDir); err != nil {
			return err
		}
	}
	if o.stateDir != "" {
		if o.role != "coordinator" {
			return fmt.Errorf("-state-dir only applies to -role coordinator (it holds the membership journal and request records); got -role %s", o.role)
		}
		if err := checkWritableDir("-state-dir", o.stateDir); err != nil {
			return err
		}
	}
	if o.checkpointEvery < 0 {
		return fmt.Errorf("-checkpoint-every must be >= 0 µops (0 disables segmentation); got %d", o.checkpointEvery)
	}
	if o.shedWatermark < 0 || o.shedWatermark > 1 {
		return fmt.Errorf("-shed-watermark must be in [0,1] (fraction of -queue; 0 = default 0.75); got %g", o.shedWatermark)
	}
	if o.overloadWM < 0 || o.overloadWM > 1 {
		return fmt.Errorf("-overload-watermark must be in [0,1] (fraction of -queue; 0 = default 0.90); got %g", o.overloadWM)
	}
	if o.shedWatermark > 0 && o.overloadWM > 0 && o.shedWatermark > o.overloadWM {
		return fmt.Errorf("-shed-watermark (%g) must not exceed -overload-watermark (%g); shedding is the earlier defense", o.shedWatermark, o.overloadWM)
	}
	if o.checkpointDir != "" {
		if err := checkWritableDir("-checkpoint-dir", o.checkpointDir); err != nil {
			return err
		}
	}
	if o.faults != "" {
		if _, err := faultinject.Parse(o.faultSeed, o.faults); err != nil {
			return fmt.Errorf("-faults spec rejected: %v", err)
		}
	}
	if o.debugAddr != "" && o.debugAddr == o.addr {
		return fmt.Errorf("-debug-addr must differ from -addr (%q); pprof gets its own listener", o.addr)
	}
	if _, err := parseLogLevel(o.logLevel); err != nil {
		return err
	}
	return nil
}

// advertiseURL derives the URL peers reach a worker at when -self-url is
// not given: the listen address with a wildcard host rewritten to
// loopback.
func advertiseURL(addr string) string {
	host, port, err := net.SplitHostPort(addr)
	if err != nil {
		return "http://" + addr
	}
	if host == "" || host == "0.0.0.0" || host == "::" {
		host = "127.0.0.1"
	}
	return "http://" + net.JoinHostPort(host, port)
}

func main() {
	var o options
	flag.StringVar(&o.addr, "addr", "127.0.0.1:8080", "listen address")
	flag.IntVar(&o.workers, "workers", 0, "worker pool size (0 = GOMAXPROCS)")
	flag.IntVar(&o.queueCap, "queue", 64, "max queued jobs before 429s")
	flag.IntVar(&o.cacheMB, "cache-mb", 64, "result cache bound in MiB")
	flag.DurationVar(&o.jobTimeout, "job-timeout", 10*time.Minute, "per-job deadline (0 = none)")
	flag.DurationVar(&o.drain, "drain", 30*time.Second, "graceful-shutdown drain deadline")
	flag.StringVar(&o.role, "role", "standalone", "standalone, coordinator, or worker")
	flag.StringVar(&o.joinURL, "join", "", "coordinator base URL (required for -role worker)")
	flag.StringVar(&o.name, "name", "", "worker's stable ring identity (default: derived from -addr)")
	flag.StringVar(&o.selfURL, "self-url", "", "base URL peers reach this worker at (default: derived from -addr)")
	flag.StringVar(&o.cacheDir, "cache-dir", "", "disk spill tier for the result cache (empty = memory only)")
	flag.StringVar(&o.stateDir, "state-dir", "", "coordinator state dir: its membership journal and the requests it accepted survive a crash (empty = memory only)")
	flag.DurationVar(&o.leaseTTL, "lease-ttl", 0, "coordinator worker-lease TTL (0 = default 3s)")
	flag.StringVar(&o.checkpointDir, "checkpoint-dir", "", "persist boundary snapshots here; standalone, also request records, resumed on restart (empty = off)")
	flag.IntVar(&o.checkpointEvery, "checkpoint-every", 0, "default snapshot interval in fetched µops for submitted sims (0 = unsegmented)")
	flag.Float64Var(&o.shedWatermark, "shed-watermark", 0, "queue-depth fraction beyond which priority<0 work is shed (0 = 0.75)")
	flag.Float64Var(&o.overloadWM, "overload-watermark", 0, "queue-depth fraction beyond which /readyz reports 503 (0 = 0.90)")
	flag.BoolVar(&o.adaptiveTimeout, "adaptive-timeout", false, "derive per-job deadlines from observed simulation throughput")
	flag.StringVar(&o.faults, "faults", os.Getenv("CDPD_FAULTS"), "fault-injection plan, e.g. 'jobq.worker.crash:p=0.1' (testing only; also CDPD_FAULTS)")
	flag.Int64Var(&o.faultSeed, "fault-seed", 1, "seed for the fault plan's deterministic randomness")
	flag.StringVar(&o.debugAddr, "debug-addr", "", "serve net/http/pprof at this address (empty = off)")
	flag.StringVar(&o.logLevel, "log-level", "info", "structured log threshold: debug, info, warn, or error")
	flag.Parse()

	if err := validate(o); err != nil {
		fmt.Fprintf(os.Stderr, "cdpd: %v\n", err)
		os.Exit(2)
	}

	if o.faults != "" {
		plan, err := faultinject.Parse(o.faultSeed, o.faults)
		if err != nil { // unreachable: validate parsed the same spec
			fmt.Fprintf(os.Stderr, "cdpd: %v\n", err)
			os.Exit(2)
		}
		faultinject.Enable(plan)
		fmt.Fprintf(os.Stderr, "cdpd: WARNING fault injection armed (seed %d): %s\n", o.faultSeed, o.faults)
	}

	level, err := parseLogLevel(o.logLevel)
	if err != nil { // unreachable: validate parsed the same level
		fmt.Fprintf(os.Stderr, "cdpd: %v\n", err)
		os.Exit(2)
	}
	logger := slog.New(slog.NewJSONHandler(os.Stderr, &slog.HandlerOptions{Level: level}))

	queueCfg := jobq.Config{
		Workers:    o.workers,
		Capacity:   o.queueCap,
		JobTimeout: o.jobTimeout,
	}
	apiOpts := api.Options{
		CheckpointDir:      o.checkpointDir,
		CheckpointEveryOps: o.checkpointEvery,
		ShedWatermark:      o.shedWatermark,
		OverloadWatermark:  o.overloadWM,
		AdaptiveTimeout:    o.adaptiveTimeout,
		Logger:             logger,
	}

	// Each role yields an HTTP handler and a drain routine; everything
	// after this switch (listeners, signals, shutdown sequencing) is
	// role-agnostic.
	var handler http.Handler
	var drain func(ctx context.Context)
	switch o.role {
	case "coordinator":
		coord, err := cluster.NewCoordinator(cluster.CoordinatorOptions{
			LeaseTTL:           o.leaseTTL,
			CheckpointEveryOps: o.checkpointEvery,
			CacheBytes:         int64(o.cacheMB) << 20,
			Queue:              queueCfg,
			StateDir:           o.stateDir,
			Logger:             logger,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "cdpd: %v\n", err)
			os.Exit(2)
		}
		handler = coord
		drain = func(ctx context.Context) {
			coord.API().SetDraining(true)
			if err := coord.Close(ctx); err != nil {
				fmt.Fprintf(os.Stderr, "cdpd: drain deadline passed, canceled remaining jobs: %v\n", err)
			}
		}

	case "worker":
		name := o.name
		selfURL := o.selfURL
		if selfURL == "" {
			selfURL = advertiseURL(o.addr)
		}
		if name == "" {
			name = "worker-" + o.addr
		}
		wrk, err := cluster.NewWorker(cluster.WorkerOptions{
			Name:       name,
			SelfURL:    selfURL,
			JoinURL:    o.joinURL,
			CacheDir:   o.cacheDir,
			CacheBytes: int64(o.cacheMB) << 20,
			Queue:      queueCfg,
			API:        apiOpts,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "cdpd: %v\n", err)
			os.Exit(2)
		}
		// No RecoverJobs here, so a worker writes only snapshots: the
		// coordinator records what it accepted and re-routes it by content
		// key, and whichever worker it lands on resumes the snapshot from
		// the shared checkpoint dir.
		wrk.Start()
		fmt.Fprintf(os.Stderr, "cdpd: worker %q joining %s as %s\n", name, o.joinURL, selfURL)
		handler = wrk
		drain = func(ctx context.Context) {
			wrk.API().SetDraining(true)
			if err := wrk.Close(ctx); err != nil {
				fmt.Fprintf(os.Stderr, "cdpd: drain deadline passed, canceled remaining jobs: %v\n", err)
			}
		}

	default: // standalone
		queue := jobq.New(queueCfg)
		var resultCache api.ResultCache
		mem := simcache.New(int64(o.cacheMB) << 20)
		if o.cacheDir != "" {
			tiered := simcache.NewTiered(mem, o.cacheDir, nil)
			defer tiered.Close()
			resultCache = tiered
		} else {
			resultCache = mem
		}
		server, err := api.NewWithOptions(queue, resultCache, apiOpts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cdpd: %v\n", err)
			os.Exit(2)
		}
		if n, err := server.RecoverJobs(o.checkpointDir); err != nil {
			fmt.Fprintf(os.Stderr, "cdpd: checkpoint recovery: %v\n", err)
		} else if n > 0 {
			fmt.Fprintf(os.Stderr, "cdpd: resumed %d persisted job(s) from %s\n", n, o.checkpointDir)
		}
		handler = server
		drain = func(ctx context.Context) {
			server.SetDraining(true)
			if err := queue.Shutdown(ctx); err != nil {
				fmt.Fprintf(os.Stderr, "cdpd: drain deadline passed, canceled remaining jobs: %v\n", err)
			}
		}
	}

	httpSrv := &http.Server{
		Addr:              o.addr,
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
	}

	if o.debugAddr != "" {
		// The pprof handlers live on the default mux (the blank
		// net/http/pprof import) and get their own listener so profiling
		// endpoints are never exposed on the service address.
		dbgSrv := &http.Server{
			Addr:              o.debugAddr,
			Handler:           http.DefaultServeMux,
			ReadHeaderTimeout: 10 * time.Second,
		}
		go func() {
			fmt.Fprintf(os.Stderr, "cdpd: pprof on http://%s/debug/pprof/\n", o.debugAddr)
			if err := dbgSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				fmt.Fprintf(os.Stderr, "cdpd: debug server: %v\n", err)
			}
		}()
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() {
		fmt.Fprintf(os.Stderr, "cdpd: %s listening on http://%s\n", o.role, o.addr)
		errCh <- httpSrv.ListenAndServe()
	}()

	select {
	case err := <-errCh:
		fmt.Fprintf(os.Stderr, "cdpd: %v\n", err)
		os.Exit(1)
	case <-ctx.Done():
	}

	// Shutdown sequence: flip readiness so load balancers stop routing
	// here, stop the queue (drain or cancel within the deadline), then
	// close the listener once responses for finished jobs have gone out.
	fmt.Fprintln(os.Stderr, "cdpd: shutting down")
	drainCtx, cancel := context.WithTimeout(context.Background(), o.drain)
	defer cancel()
	drain(drainCtx)
	if err := httpSrv.Shutdown(drainCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintf(os.Stderr, "cdpd: http shutdown: %v\n", err)
	}
	fmt.Fprintln(os.Stderr, "cdpd: bye")
}
