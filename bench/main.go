// Command morphbench is the repository's end-to-end benchmark: it runs
// four workloads against the simulator and the serve-mode cache, checks
// their outputs, and prints every metric BENCHMARK.json names.
//
// Usage (from the repository root):
//
//	bash bench/run.sh                                  # all four workloads, each in a fresh child process
//	bash bench/run.sh -workload sim-sweep -seed 3      # one workload
//	bash bench/run.sh -workload serve-read -trace 1    # traced run: per-layer ledger + Chrome trace
//	bash bench/run.sh -workload serve-churn -addr 127.0.0.1:8944   # load an external morphserve
//	bash bench/run.sh -compare a.json b.json           # compare two sets of recorded runs
//
// run.sh builds this package into .bench_build and runs it; `go run .`
// from the bench directory does the same. The last line of standard
// output is one JSON object {"correct", "attempted", "failed", "metrics"};
// the line before it is a record of the run that -compare reads (append
// the output of several runs to one file to make a set). The process
// exits 1 when any check fails and 2 on a usage error.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"morphcache/internal/obs"
)

// defaultSeconds is how long one run measures by default; it equals
// BENCHMARK.json's run_seconds.
const defaultSeconds = 30

// workloadDef is one named workload.
type workloadDef struct {
	name string
	run  func(*runEnv) (*outcome, error)
	// layers are the modules the workload's traced run accounts for; the
	// per-layer metrics of every other module read zero.
	layers []string
}

var (
	simLayerSet   = []string{"runner", "workload", "hierarchy", "core", "acfv", "sim", "sampled", "bandit", "trace"}
	serveLayerSet = []string{"loadgen", "http", "serve", "serve.epoch", "wal", "core", "acfv", "trace"}
)

// workloads is the benchmark's workload list, in run order.
var workloads = []workloadDef{
	{"sim-sweep", runSimSweep, simLayerSet},
	{"sim-windowed", runSimWindowed, simLayerSet},
	{"serve-read", runServeRead, serveLayerSet},
	{"serve-churn", runServeChurn, serveLayerSet},
}

// runEnv is what a workload run is given.
type runEnv struct {
	name   string
	seed   uint64
	dur    time.Duration
	trace  bool
	tiny   bool   // smoke-test sizes
	addr   string // external morphserve (serve workloads)
	root   string // repository root
	work   string // scratch directory, removed when the run ends
	tracer *obs.Tracer
	log    io.Writer
}

// check is one correctness check's verdict.
type check struct {
	name   string
	ok     bool
	detail string
}

// outcome is what a workload run produces.
type outcome struct {
	attempted, failed int64
	checks            []check
	// metrics holds the contract metrics of the run's mode: end-to-end
	// untraced, per-layer traced.
	metrics map[string]float64
	// diag holds supporting numbers: printed, recorded, not gated.
	diag map[string]float64
}

func newOutcome() *outcome {
	return &outcome{metrics: map[string]float64{}, diag: map[string]float64{}}
}

func (o *outcome) check(name string, ok bool, format string, args ...any) {
	o.checks = append(o.checks, check{name: name, ok: ok, detail: fmt.Sprintf(format, args...)})
}

func (o *outcome) correct() bool {
	for _, c := range o.checks {
		if !c.ok {
			return false
		}
	}
	return true
}

// result is the contract's last output line.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// recordSchema tags the per-run record line -compare reads.
const recordSchema = "morphbench-record/v1"

// record is one run as -compare reads it.
type record struct {
	Schema    string             `json:"record"`
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Trace     int                `json:"trace"`
	Seconds   int                `json:"seconds"`
	Correct   bool               `json:"correct"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
	Diag      map[string]float64 `json:"diag"`

	checks []check
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point: 0 = every check passed, 1 = a check or
// the run failed, 2 = usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("morphbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "workload to run: sim-sweep, sim-windowed, serve-read or serve-churn (empty: all four, each in a fresh child process)")
		seed    = fs.Uint64("seed", 1, "workload seed")
		seconds = fs.Int("seconds", defaultSeconds, "measured seconds per run")
		trace   = fs.Int("trace", 0, "1 = traced run: per-layer metrics and a Chrome trace instead of the end-to-end metrics")
		addr    = fs.String("addr", "", "drive an external morphserve at host:port instead of an in-process server (serve workloads; tracing off)")
		compare = fs.Bool("compare", false, "compare two sets of recorded runs: -compare a.json b.json")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(stderr, "morphbench:", err)
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: morphbench -compare a.json b.json")
			return 2
		}
		return runCompare(filepath.Join(root, "BENCHMARK.json"), fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "morphbench: unexpected arguments %q\n", fs.Args())
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(stderr, "morphbench: -trace must be 0 or 1, got %d\n", *trace)
		return 2
	}
	if *seconds < 1 {
		fmt.Fprintf(stderr, "morphbench: -seconds must be >= 1, got %d\n", *seconds)
		return 2
	}
	if *addr != "" && *trace == 1 {
		fmt.Fprintln(stderr, "morphbench: -addr drives an external server; tracing is off in that mode")
		return 2
	}
	if *name == "" {
		return runAll(args, stdout, stderr)
	}
	var wl *workloadDef
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil {
		fmt.Fprintf(stderr, "morphbench: unknown workload %q\n", *name)
		return 2
	}
	env := &runEnv{
		name:  wl.name,
		seed:  *seed,
		dur:   time.Duration(*seconds) * time.Second,
		trace: *trace == 1,
		addr:  *addr,
		root:  root,
		log:   stderr,
	}
	rec, err := runOne(env, *wl, filepath.Join(root, ".bench_build", "traces", fmt.Sprintf("%s-seed%d.json", wl.name, *seed)))
	if err != nil {
		fmt.Fprintf(stderr, "morphbench: %s: %v\n", wl.name, err)
		return 1
	}
	rec.Seconds = *seconds
	printRun(stdout, rec)
	if !rec.Correct {
		return 1
	}
	return 0
}

// runOne runs one workload in this process and assembles its record. A
// traced run writes its Chrome trace to tracePath.
func runOne(env *runEnv, wl workloadDef, tracePath string) (*record, error) {
	work, err := os.MkdirTemp(scratchDir(env.root), "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	env.work = work
	if env.trace {
		env.tracer = obs.NewTracer(nil)
	}
	out, err := wl.run(env)
	if err != nil {
		return nil, err
	}
	if !env.trace {
		out.metrics["peak_rss_mb"] = peakRSSMB()
	}
	// Every contract metric must be present, zero for a layer the workload
	// does not run; anything else is a diagnostic.
	for _, d := range defs(env.trace) {
		if _, ok := out.metrics[d.Name]; ok {
			continue
		}
		if env.trace && !slices.Contains(wl.layers, d.Layer) {
			out.metrics[d.Name] = 0
			continue
		}
		out.check("metric-"+d.Name, false, "workload did not report %s", d.Name)
	}
	for k, v := range out.metrics {
		if _, ok := lookupDef(k); !ok {
			out.diag[k] = v
			delete(out.metrics, k)
		}
	}
	if bad := zeroNonFinite(out.metrics); len(bad) > 0 {
		out.check("metrics-finite", false, "NaN or infinite: %v", bad)
	}
	zeroNonFinite(out.diag)
	if env.trace && tracePath != "" {
		if err := writeTrace(tracePath, env.tracer); err != nil {
			return nil, fmt.Errorf("trace: %w", err)
		}
		fmt.Fprintf(env.log, "morphbench: trace written to %s\n", tracePath)
	}
	tr := 0
	if env.trace {
		tr = 1
	}
	return &record{
		Schema: recordSchema, Workload: env.name, Seed: env.seed, Trace: tr,
		Correct: out.correct(), Attempted: out.attempted, Failed: out.failed,
		Metrics: out.metrics, Diag: out.diag,
		checks: out.checks,
	}, nil
}

// scratchDir is where runs keep their temporary files: inside the
// checkout, never the system temp directory.
func scratchDir(root string) string {
	d := filepath.Join(root, ".bench_build", "tmp")
	os.MkdirAll(d, 0o755) //nolint:errcheck // MkdirTemp reports the failure
	return d
}

// writeTrace writes the collected spans as a Chrome trace document.
func writeTrace(path string, tr *obs.Tracer) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printRun prints the human-readable report, the record line and the
// contract's result line (last).
func printRun(w io.Writer, rec *record) {
	mode := "untraced"
	if rec.Trace == 1 {
		mode = "traced"
	}
	fmt.Fprintf(w, "== %s (seed %d, %s): %d attempted, %d failed\n", rec.Workload, rec.Seed, mode, rec.Attempted, rec.Failed)
	for _, c := range rec.checks {
		verdict := "ok  "
		if !c.ok {
			verdict = "FAIL"
		}
		fmt.Fprintf(w, "  check %-22s %s %s\n", c.name, verdict, c.detail)
	}
	for _, d := range defs(rec.Trace == 1) {
		fmt.Fprintf(w, "  %-30s %14.6g %s\n", d.Name, rec.Metrics[d.Name], d.Unit)
	}
	for _, k := range sortedKeys(rec.Diag) {
		fmt.Fprintf(w, "  %-30s %14.6g (diagnostic)\n", k, rec.Diag[k])
	}
	b, _ := json.Marshal(rec)
	fmt.Fprintln(w, string(b))
	res := result{Correct: rec.Correct, Attempted: rec.Attempted, Failed: rec.Failed, Metrics: map[string]metricJSON{}}
	for k, v := range rec.Metrics {
		d, _ := lookupDef(k)
		res.Metrics[k] = metricJSON{Value: v, Unit: d.Unit}
	}
	b, _ = json.Marshal(res)
	fmt.Fprintln(w, string(b))
}

// runAll runs every workload, each in a fresh child process of this
// binary (so set-up time, peak RSS and process-wide caches are per
// workload), and ends with one result line over all of them, its metric
// names prefixed by the workload.
func runAll(args []string, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "morphbench:", err)
		return 1
	}
	all := result{Correct: true, Metrics: map[string]metricJSON{}}
	code := 0
	for _, wl := range workloads {
		cmd := exec.Command(exe, append([]string{"-workload", wl.name}, args...)...)
		var buf bytes.Buffer
		cmd.Stdout = io.MultiWriter(stdout, &buf)
		cmd.Stderr = stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "morphbench: %s: %v\n", wl.name, err)
			code = 1
		}
		var res result
		if err := json.Unmarshal(lastLine(buf.Bytes()), &res); err != nil {
			all.Correct = false
			code = 1
			continue
		}
		all.Correct = all.Correct && res.Correct
		all.Attempted += res.Attempted
		all.Failed += res.Failed
		for k, v := range res.Metrics {
			all.Metrics[wl.name+":"+k] = v
		}
	}
	if all.Attempted == 0 {
		all.Attempted = 1
	}
	b, _ := json.Marshal(all)
	fmt.Fprintln(stdout, string(b))
	return code
}

// lastLine returns the last non-empty line of b.
func lastLine(b []byte) []byte {
	lines := bytes.Split(bytes.TrimRight(b, "\n"), []byte("\n"))
	return lines[len(lines)-1]
}

// findRoot locates the repository root: the working directory or its
// parent, whichever holds BENCHMARK.json next to the module's go.mod.
func findRoot() (string, error) {
	wd, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for _, d := range []string{wd, filepath.Dir(wd)} {
		if fileExists(filepath.Join(d, "BENCHMARK.json")) && fileExists(filepath.Join(d, "go.mod")) {
			return d, nil
		}
	}
	return "", errors.New("run from the repository root or the bench directory (no BENCHMARK.json and go.mod found)")
}

func fileExists(p string) bool {
	_, err := os.Stat(p)
	return err == nil
}

// peakRSSMB is the process's peak resident set (VmHWM) in MiB. Outside
// Linux it falls back to the Go runtime's total obtained memory.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// zeroNonFinite replaces NaN and infinite values with 0, so the record
// stays valid JSON, and returns their names.
func zeroNonFinite(m map[string]float64) []string {
	var bad []string
	for k, v := range m {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			m[k] = 0
			bad = append(bad, k)
		}
	}
	return bad
}

// sortedKeys returns a map's keys in order (for stable output).
func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
