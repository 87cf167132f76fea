// Command benchmark is the repository benchmark: it runs one workload
// through the program's own entry points (fleet.Run on a virtual clock, or
// player.Play), checks the outputs against computations made apart from the
// program, and prints one JSON result line.
//
//	benchmark --workload fleet-vclock --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// a separately traced run measures the per-layer metrics. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }

// result is the benchmark's last output line.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int64   `json:"attempted"`
	Failed    int64   `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// scale sizes a run. The self-test shrinks it; the benchmark runs full.
type scale struct {
	tracesPerClass int // seeded traces per family × mean cell
	excerpt        int // stream only the first chunks of each video (0 = full length)
	setupReps      int // set-up repetitions timed for setup_s
}

var fullScale = scale{tracesPerClass: 4, setupReps: 41}

// runConfig is one invocation's settings.
type runConfig struct {
	seed     uint64
	seconds  time.Duration
	traced   bool
	scale    scale
	log      io.Writer // human-readable lines, before the result
	spanPath string    // where a traced run writes its spans ("" = nowhere)
}

// outcome is what a workload hands back: counts, metrics and the checks
// that failed.
type outcome struct {
	attempted, failed int64
	metrics           metrics
	problems          []string // failed output checks
	notes             []string // failed operations, for the log
}

func (o *outcome) problem(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(runConfig) (*outcome, error){
	"fleet-vclock":                  func(c runConfig) (*outcome, error) { return runFleet(c, false) },
	"fleet-vclock-closedloop-chaos": func(c runConfig) (*outcome, error) { return runFleet(c, true) },
	"abr-sim":                       runSim,
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := fs.Int("seconds", 20, "length of the timed phase in seconds")
	traceFlag := fs.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runner, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(stderr, "benchmark: need --workload (%s), --seconds ≥ 1 and --trace 0|1\n", workloadNames())
		return 2
	}
	cfg := runConfig{
		seed:    *seed,
		seconds: time.Duration(*seconds) * time.Second,
		traced:  *traceFlag == 1,
		scale:   fullScale,
		log:     stdout,
	}
	if cfg.traced {
		cfg.spanPath = filepath.Join(".bench_build", "spans", *name+".csv")
	}
	fmt.Fprintf(stdout, "# workload=%s seed=%d seconds=%d trace=%d\n", *name, *seed, *seconds, *traceFlag)
	fmt.Fprintf(stdout, "# machine: %s\n", machineFingerprint())
	steal := startSteal()
	start := time.Now()
	out, err := runner(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %s: %v\n", *name, err)
		return 1
	}
	fmt.Fprintf(stdout, "# wall %.1fs, hypervisor steal during the run %s (all CPUs)\n", time.Since(start).Seconds(), steal)
	for _, n := range out.notes {
		fmt.Fprintf(stdout, "# FAILED OPERATION: %s\n", n)
	}
	for _, p := range out.problems {
		fmt.Fprintf(stdout, "# CHECK FAILED: %s\n", p)
	}
	line, err := json.Marshal(result{
		Correct:   len(out.problems) == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   out.metrics,
	})
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: encoding result: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return fmt.Sprint(names)
}

// perLayer lists every per-layer metric with its unit. A traced run
// reports all of them; a layer a workload does not exercise reads 0.
var perLayer = [][2]string{
	{"abr.mpc_decide_us_p50", "us"},
	{"abr.mpc_decide_us_p99", "us"},
	{"abr.decide_ms_per_session", "ms"},
	{"player.self_ms_per_session", "ms"},
	{"crowd.profile_ms_per_video", "ms"},
	{"crowd.rated_renderings", "count"},
	{"crowd.window_campaigns", "count"},
	{"dash.self_ms_per_session", "ms"},
	{"dash.requests_per_session", "count"},
	{"dash.retries_per_session", "count"},
	{"transport.segment_us_p50", "us"},
	{"transport.segment_us_p99", "us"},
	{"transport.conns_per_session", "count"},
	{"transport.mb_per_session", "MB"},
	{"origin.segment_us_p50", "us"},
	{"origin.segment_us_p99", "us"},
	{"origin.control_us_p50", "us"},
	{"origin.rating_us_p50", "us"},
	{"vclock.sleeps_per_session", "count"},
	{"vclock.parked_ms_per_session", "ms"},
	{"qlog.events_per_session", "count"},
	{"qlog.drops", "count"},
	{"ingest.refreshes_applied", "count"},
	{"sensitivity.refetches_per_session", "count"},
	{"runtime.alloc_kb_per_session", "KB"},
	{"runtime.gc_cpu_ms_per_session", "ms"},
	{"runtime.sys_cpu_ms_per_session", "ms"},
}

// newPerLayer returns the per-layer metric set with every value at 0.
func newPerLayer() metrics {
	m := metrics{}
	for _, nu := range perLayer {
		m.set(nu[0], nu[1], 0)
	}
	return m
}
