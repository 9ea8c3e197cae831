// Command bench is the repository's one repeatable benchmark: five workloads
// generated from a seed, end-to-end metrics measured with tracing off, a
// traced pass that times the calls into each layer's public functions, and
// a check of every output. BENCHMARK.json at the repository root declares
// the workloads and metrics; README.md beside this file explains them.
//
//	go run ./bench -seed 1                       # everything, both passes
//	go run ./bench -workload serve_mapped -trace 0 -seconds 10
//	go run ./bench -compare runs/a runs/b        # before/after table
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

var workloads = []workload{
	batchInmemWorkload,
	buildSpillStoreWorkload,
	serveMappedWorkload,
	clusterCoordWorkload,
	closetMetaWorkload,
}

// runConfig is one invocation's settings.
type runConfig struct {
	seed     int64
	seconds  float64
	scale    scale
	untraced bool
	traced   bool
	root     string // scratch directory, removed when the run ends
	log      io.Writer
}

// workloadResult is one workload's section of results.json.
type workloadResult struct {
	Name             string      `json:"name"`
	Loop             string      `json:"loop"`
	Clients          int         `json:"clients"`
	Input            string      `json:"input"`
	Correct          bool        `json:"correct"`
	Attempted        int         `json:"attempted"`
	Failed           int         `json:"failed"`
	Checks           []check     `json:"checks"`
	EndToEnd         []metric    `json:"end_to_end,omitempty"`
	PerLayer         []metric    `json:"per_layer,omitempty"`
	Budget           []budgetRow `json:"budget,omitempty"`
	TraceOverheadPct *float64    `json:"trace_overhead_pct,omitempty"`

	spans []span
}

// results is the schema of results.json.
type results struct {
	Schema     int               `json:"schema"`
	Seed       int64             `json:"seed"`
	Seconds    float64           `json:"seconds"`
	GoMaxProcs int               `json:"gomaxprocs"`
	GoVersion  string            `json:"go_version"`
	GOOS       string            `json:"goos"`
	GOARCH     string            `json:"goarch"`
	Commit     string            `json:"commit"`
	Workloads  []*workloadResult `json:"workloads"`
}

// traceMode is the -trace flag: "0" runs the untraced pass only, "1" the
// traced pass only, "both" (the default) one after the other. It is not a
// boolean flag because the driver passes the value as a separate argument.
type traceMode string

func (m *traceMode) String() string { return string(*m) }
func (m *traceMode) Set(s string) error {
	switch s {
	case "0", "false":
		*m = "0"
	case "1", "true":
		*m = "1"
	case "both":
		*m = "both"
	default:
		return fmt.Errorf("want 0, 1 or both")
	}
	return nil
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	seed := fs.Int64("seed", 1, "the only input to workload generation")
	names := fs.String("workload", "", "comma-separated workloads to run (default: all five)")
	seconds := fs.Float64("seconds", 20, "timed seconds per workload and pass")
	out := fs.String("out", filepath.Join(".bench_tmp", "out"), "directory for results.json and trace.json")
	trace := traceMode("both")
	fs.Var(&trace, "trace", "0: untraced pass only, 1: traced pass only, both")
	compare := fs.Bool("compare", false, "compare two results.json files or directories of them: bench -compare A B")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two results.json files or directories of runs")
			return 2
		}
		return compareRuns(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "bench: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	selected, err := selectWorkloads(*names)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}

	// Go 1.24 sizes GOMAXPROCS from the host, not the container quota; pin
	// it so worker pools, clients and the scheduler agree on the budget.
	procs := min(runtime.NumCPU(), 4)
	runtime.GOMAXPROCS(procs)

	root := filepath.Join(".bench_tmp", fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(root, 0o755); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	defer os.RemoveAll(root)

	cfg := runConfig{
		seed: *seed, seconds: *seconds, scale: scaleFull,
		untraced: trace != "1", traced: trace != "0",
		root: root, log: stderr,
	}
	res := &results{
		Schema: 1, Seed: *seed, Seconds: *seconds, GoMaxProcs: procs,
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, Commit: vcsRevision(),
	}
	fmt.Fprintf(stdout, "bench: seed=%d gomaxprocs=%d seconds=%g trace=%s %s %s/%s\n",
		*seed, procs, *seconds, trace, res.GoVersion, res.GOOS, res.GOARCH)
	ok := true
	for _, w := range selected {
		wr, err := runWorkload(w, cfg, procs)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.Name, err)
			return 1
		}
		printWorkload(stdout, wr)
		res.Workloads = append(res.Workloads, wr)
		ok = ok && wr.Correct
	}
	if err := writeOutputs(*out, res); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "\nwrote %s and %s\n", filepath.Join(*out, "results.json"), filepath.Join(*out, "trace.json"))
	if len(res.Workloads) == 1 {
		// The driver's contract: one JSON object as the last line.
		fmt.Fprintln(stdout, contractLine(res.Workloads[0], cfg))
	}
	if !ok {
		fmt.Fprintln(stderr, "bench: output verification failed")
		return 1
	}
	return 0
}

func selectWorkloads(names string) ([]workload, error) {
	if names == "" {
		return workloads, nil
	}
	var out []workload
	for _, name := range strings.Split(names, ",") {
		found := false
		for _, w := range workloads {
			if w.Name == name {
				out, found = append(out, w), true
			}
		}
		if !found {
			return nil, fmt.Errorf("unknown workload %q", name)
		}
	}
	return out, nil
}

// vcsRevision is the commit the binary was built from, when the toolchain
// stamped one (go build in a git checkout; go run does not).
func vcsRevision() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// setupRepeats is how many times a workload is set up so that setup_s is a
// median: at least three, more while set-up is cheap, for about a second.
func setupRepeats(done int, spent time.Duration) bool {
	const minSetups, maxSetups = 3, 15
	return done < minSetups || (spent < time.Second && done < maxSetups)
}

// runWorkload sets the workload up, runs the requested passes, and folds
// the measurements and checks into its result.
func runWorkload(w workload, cfg runConfig, procs int) (*workloadResult, error) {
	fmt.Fprintf(cfg.log, "%s: set-up\n", w.Name)
	e := &env{seed: cfg.seed, procs: procs, seconds: cfg.seconds, scale: cfg.scale, log: cfg.log}
	var (
		inst   instance
		setupS []float64
		spent  time.Duration
	)
	for n := 0; n == 0 || (cfg.scale == scaleFull && setupRepeats(n, spent)); n++ {
		if inst != nil {
			// Dropped before the next set-up so that its heap is not there
			// for the next set-up's collections to trace.
			inst.close()
			inst = nil
		}
		e.dir = filepath.Join(cfg.root, fmt.Sprintf("%s-%d", w.Name, n))
		if err := os.MkdirAll(e.dir, 0o755); err != nil {
			return nil, err
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		if inst, err = w.setup(e); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		d := time.Since(t0)
		spent += d
		setupS = append(setupS, d.Seconds())
	}
	defer inst.close()

	wr := &workloadResult{Name: w.Name, Loop: w.Loop, Input: w.Input}
	if w.Loop == "closed" {
		wr.Clients = procs
	}
	var untracedWall float64
	if cfg.untraced {
		fmt.Fprintf(cfg.log, "%s: untraced pass\n", w.Name)
		m, err := inst.measure(e)
		if err != nil {
			return nil, fmt.Errorf("untraced pass: %w", err)
		}
		wr.EndToEnd = m.endToEndMetrics(setupS).list()
		wr.Attempted += m.ops
		wr.Failed += m.failed
		untracedWall = median(m.wallS)
	}
	layers := newMetricSet(perLayer)
	if cfg.traced {
		fmt.Fprintf(cfg.log, "%s: traced pass\n", w.Name)
		tr := newTracer()
		m, err := inst.trace(e, tr, layers)
		if err != nil {
			return nil, fmt.Errorf("traced pass: %w", err)
		}
		wr.Attempted += m.ops
		wr.Failed += m.failed
		wr.spans = tr.snapshot()
		// Per root span (an iteration, a request): its mean length, and the
		// mean self time of the spans below it. The two agree when the
		// layer spans cover the root.
		var roots int
		var rootS, layerSum float64
		wr.Budget, roots, rootS, layerSum = budget(wr.spans)
		layers.scalar("trace.wall_s", rootS/float64(roots))
		layers.scalar("trace.layer_sum_s", layerSum/float64(roots))
		if cfg.untraced && w.Loop == "batch" {
			pct := 100 * (median(m.wallS) - untracedWall) / untracedWall
			wr.TraceOverheadPct = &pct
		}
	}
	// Every check is an operation too: a failed one fails the run.
	wr.Attempted += len(e.checks)
	wr.Failed += e.failedChecks()
	if cfg.traced {
		layers.scalar("fail_ratio", float64(wr.Failed)/float64(max(wr.Attempted, 1)))
		wr.PerLayer = layers.list()
	}
	wr.Checks = e.checks
	wr.Correct = wr.Failed == 0
	return wr, nil
}

func printWorkload(w io.Writer, wr *workloadResult) {
	passed := 0
	for _, c := range wr.Checks {
		if c.OK {
			passed++
		}
	}
	fmt.Fprintf(w, "\n== %s  [%s loop", wr.Name, wr.Loop)
	if wr.Clients > 0 {
		fmt.Fprintf(w, ", %d clients", wr.Clients)
	}
	fmt.Fprintf(w, "]  %s\n   ops=%d failed=%d checks=%d/%d correct=%v\n",
		wr.Input, wr.Attempted, wr.Failed, passed, len(wr.Checks), wr.Correct)
	printMetrics := func(title string, ms []metric) {
		if len(ms) == 0 {
			return
		}
		fmt.Fprintf(w, "  %s\n    %-42s %-8s %6s %14s %14s %14s %14s\n", title, "metric", "unit", "n", "value", "q1", "median", "q3")
		for _, m := range ms {
			fmt.Fprintf(w, "    %-42s %-8s %6d %14.6g %14.6g %14.6g %14.6g\n", m.Name, m.Unit, m.N, m.Value, m.Q1, m.Median, m.Q3)
		}
	}
	printMetrics("end-to-end (tracing off)", wr.EndToEnd)
	printMetrics("per-layer (traced pass)", wr.PerLayer)
	if len(wr.Budget) > 0 {
		fmt.Fprintf(w, "  time budget (traced pass, self time = span - child spans)\n    %-32s %8s %12s %8s\n", "layer.span", "calls", "self_s", "share")
		for _, r := range wr.Budget {
			fmt.Fprintf(w, "    %-32s %8d %12.4f %7.1f%%\n", r.Layer+"."+r.Name, r.Calls, r.SelfS, 100*r.Share)
		}
	}
	if wr.TraceOverheadPct != nil {
		fmt.Fprintf(w, "  trace_overhead_pct %.2f (traced vs untraced median wall_s)\n", *wr.TraceOverheadPct)
	}
}

// contractLine renders the driver's result object: every end-to-end metric
// after an untraced pass, every per-layer metric after a traced one. A
// per-layer metric of a layer the workload never enters reads 0.
func contractLine(wr *workloadResult, cfg runConfig) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := map[string]value{}
	if cfg.untraced {
		for _, m := range wr.EndToEnd {
			ms[m.Name] = value{m.Value, m.Unit}
		}
	}
	if cfg.traced {
		for _, d := range perLayer {
			ms[d.Name] = value{0, d.Unit}
		}
		for _, m := range wr.PerLayer {
			ms[m.Name] = value{m.Value, m.Unit}
		}
	}
	line, err := json.Marshal(map[string]any{
		"correct": wr.Correct, "attempted": wr.Attempted, "failed": wr.Failed, "metrics": ms,
	})
	if err != nil {
		panic(err) // NaN in a metric: a bug in the benchmark
	}
	return string(line)
}

func writeOutputs(dir string, res *results) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	type traceFile struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}
	var traces []traceFile
	for _, wr := range res.Workloads {
		if len(wr.spans) > 0 {
			traces = append(traces, traceFile{wr.Name, wr.spans})
		}
	}
	return errors.Join(
		writeJSON(filepath.Join(dir, "results.json"), res),
		writeJSON(filepath.Join(dir, "trace.json"), traces),
	)
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return fmt.Errorf("encoding %s: %w", path, err)
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
