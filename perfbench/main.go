// Command perfbench is the repository benchmark: it runs one named
// workload against the simulator or the cdpd service, checks the outputs,
// and prints the end-to-end metrics (or, with --trace 1, the per-layer
// metrics) as a JSON object on the last line of standard output.
//
//	bash perfbench/run.sh --workload sim-hotloop --seed 1 --seconds 20 --trace 0
//
// README.md beside this file records why each workload exists, which
// end-to-end metric each per-layer metric should move, and what is left
// unmeasured.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/benchio"
)

// options are the parsed command-line flags.
type options struct {
	workload  string
	seed      int64
	seconds   int
	trace     bool
	setupOnly bool
}

// env is one workload after set-up: everything before the first timed
// operation has happened.
type env interface {
	// run executes the warm-up and the timed work, checks the outputs, and
	// fills the report with raw figures, reading y before each timed
	// operation.
	run(o *options, r *report, y *yardstick) error
	// close releases what set-up acquired and stops every goroutine it
	// started.
	close() error
}

// workload is one named set of inputs the benchmark runs.
type workload struct {
	name  string
	setup func(o *options) (env, error)
}

var benchWorkloads = []workload{
	{"sim-hotloop", setupHotloop},
	{"matrix-sweep", setupSweep},
	{"cdpd-cluster", setupCluster},
}

// scratchDir holds the cluster's state directories and the span files; it
// is relative to the checkout root the benchmark runs from, where run.sh
// also builds.
const scratchDir = ".bench_build"

// setupRuns is how many times set-up is measured per run: once in this
// process, the rest in child processes that do only the set-up, so each
// sample pays the same cold costs. setup_s is their median.
const setupRuns = 3

func main() {
	o, err := parseFlags(os.Args[1:], os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if err := run(o, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func parseFlags(args []string, stderr io.Writer) (*options, error) {
	o := &options{}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "workload to run: "+workloadNames())
	fs.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs are generated from")
	fs.IntVar(&o.seconds, "seconds", 20, "nominal measured seconds; sets how much fixed work is timed")
	traceFlag := fs.Int("trace", 0, "1 runs the traced variant and prints per-layer metrics")
	fs.BoolVar(&o.setupOnly, "setup-only", false, "run only the workload's set-up and print its duration")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() > 0 {
		return nil, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if _, ok := lookup(o.workload); !ok {
		return nil, fmt.Errorf("--workload must be one of %s; got %q", workloadNames(), o.workload)
	}
	if o.seconds < 1 {
		return nil, fmt.Errorf("--seconds must be >= 1; got %d", o.seconds)
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		return nil, fmt.Errorf("--trace must be 0 or 1; got %d", *traceFlag)
	}
	o.trace = *traceFlag == 1
	return o, nil
}

func lookup(name string) (workload, bool) {
	for _, w := range benchWorkloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() string {
	names := make([]string, len(benchWorkloads))
	for i, w := range benchWorkloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// timedSetup runs the workload's set-up and reports how long it took.
func timedSetup(w workload, o *options) (env, time.Duration, error) {
	start := time.Now()
	e, err := w.setup(o)
	return e, time.Since(start), err
}

func run(o *options, stdout io.Writer) error {
	w, _ := lookup(o.workload)
	if err := os.MkdirAll(scratchDir, 0o755); err != nil {
		return fmt.Errorf("creating scratch dir: %w", err)
	}
	if o.setupOnly {
		e, d, err := timedSetup(w, o)
		if err != nil {
			return err
		}
		if err := e.close(); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "setup_s %.9f\n", d.Seconds())
		return nil
	}

	// The traced run reports per-layer metrics only, so it samples set-up
	// once.
	var setups []float64
	for i := 1; i < setupRuns && !o.trace; i++ {
		s, err := childSetup(o)
		if err != nil {
			return fmt.Errorf("set-up sample %d: %w", i, err)
		}
		setups = append(setups, s)
	}
	e, d, err := timedSetup(w, o)
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	setups = append(setups, d.Seconds())

	r := newReport(o.trace)
	y, err := newYardstick()
	if err != nil {
		return errors.Join(err, e.close())
	}
	runErr := e.run(o, r, y)
	closeErr := e.close()
	if err := errors.Join(runErr, closeErr); err != nil {
		return err
	}
	r.notef("setup_s samples (s): %s", formatFloats(setups))
	y.note(r)
	if !o.trace {
		r.scale(y.slowdown())
		kb, ok := benchio.PeakRSS()
		if !ok {
			return errors.New("cannot read VmHWM from /proc/self/status")
		}
		r.set("setup_s", median(setups), "s")
		r.set("peak_rss_mb", (float64(kb)*1024-yardstickBytes)/1e6, "MB")
	}
	return r.write(stdout)
}

// childSetup measures one set-up in a fresh process running this binary.
func childSetup(o *options) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(exe, "--setup-only", "--workload", o.workload,
		"--seed", strconv.FormatInt(o.seed, 10))
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return 0, err
	}
	var s float64
	if _, err := fmt.Sscanf(strings.TrimSpace(out.String()), "setup_s %g", &s); err != nil {
		return 0, fmt.Errorf("parsing child set-up output %q: %w", out.String(), err)
	}
	return s, nil
}

func formatFloats(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x, 'f', 4, 64)
	}
	return strings.Join(parts, " ")
}

// metric is one named value in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report accumulates one run's operation counts, metrics and notes.
type report struct {
	traced    bool
	attempted int
	failed    int
	metrics   map[string]metric
	notes     []string
}

func newReport(traced bool) *report {
	return &report{traced: traced, metrics: map[string]metric{}}
}

func (r *report) set(name string, v float64, unit string) {
	r.metrics[name] = metric{Value: v, Unit: unit}
}

func (r *report) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// scale turns the raw end-to-end rates and latencies into scaled ones:
// rates are multiplied by the host's slowdown and times divided by it.
func (r *report) scale(slowdown float64) {
	for name, m := range r.metrics {
		switch m.Unit {
		case "1/s":
			m.Value *= slowdown
		case "ms":
			m.Value /= slowdown
		}
		r.metrics[name] = m
	}
}

// op records one attempted operation; a non-nil err marks it failed.
func (r *report) op(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		if r.failed <= 20 {
			r.notef("FAILED: %v", err)
		}
	}
}

// write prints the notes, then the result object as the last line. Every
// metric the mode declares is present; a per-layer metric the workload
// does not exercise is reported as 0 and named in a note.
func (r *report) write(w io.Writer) error {
	declared := endToEnd
	if r.traced {
		declared = perLayer
	}
	var absent []string
	for _, d := range declared {
		if m, ok := r.metrics[d.name]; !ok {
			if !r.traced {
				return fmt.Errorf("end-to-end metric %s was not measured", d.name)
			}
			absent = append(absent, d.name)
			r.set(d.name, 0, d.unit)
		} else if m.Unit != d.unit {
			return fmt.Errorf("metric %s measured in %s, declared in %s", d.name, m.Unit, d.unit)
		}
	}
	for name := range r.metrics {
		if !isDeclared(declared, name) {
			return fmt.Errorf("metric %s is not declared", name)
		}
	}
	if len(absent) > 0 {
		r.notef("not exercised by this workload (reported as 0): %s", strings.Join(absent, ", "))
	}
	r.notef("go %s, GOMAXPROCS %d, NumCPU %d", runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU())
	for _, n := range r.notes {
		if _, err := fmt.Fprintln(w, n); err != nil {
			return err
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.failed == 0 && r.attempted > 0, r.attempted, r.failed, r.metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(line))
	return err
}
