package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"morphcache/internal/mem"
	"morphcache/internal/trace"
)

// The example tests pin morphsim's output byte for byte: every usage
// example of the package comment and the README runs in-process at a tiny
// size, and its stdout (plus any file it writes) must match the golden in
// testdata/examples. Regenerate after an intentional change with:
//
//	go test ./cmd/morphsim -run TestExamples -update
var updateGolden = flag.Bool("update", false, "rewrite the example goldens with current output")

// quick shrinks every example to two short epochs; the flags come last, so
// they override the example's own -epochs/-warmup.
var quick = []string{"-epochs", "2", "-warmup", "0", "-epoch-cycles", "100000"}

// exampleCase is one CLI invocation: its args (before quick), the flags
// that override quick's (windowed runs need several windows), and the files
// it writes whose bytes are pinned too.
type exampleCase struct {
	name  string
	args  []string
	after []string
	files []string
}

// windows gives a windowed run enough epochs for several windows.
var windows = []string{"-epochs", "8"}

// examples lists the usage examples in run order: the replays read the
// trace the recording run wrote. -admin binds an ephemeral port instead of
// the README's fixed one.
var examples = []exampleCase{
	// package comment
	{name: "mix01-morph", args: []string{"-workload", "MIX 01", "-policy", "morph"}},
	{name: "mix03-static", args: []string{"-workload", "MIX 03", "-policy", "(4:4:1)", "-epochs", "10"}},
	{name: "dedup-verbose-stats", args: []string{"-workload", "dedup", "-policy", "morph", "-verbose", "-stats"}},
	{name: "mix05-trace-out", args: []string{"-workload", "MIX 05", "-policy", "morph", "-trace-out", "mix05.mctr"}, files: []string{"mix05.mctr"}},
	{name: "trace-in-16-1-1", args: []string{"-trace-in", "mix05.mctr", "-policy", "(16:1:1)"}},
	{name: "mix01-sampled", args: []string{"-workload", "MIX 01", "-policy", "morph", "-epochs", "60", "-sampled"}, after: windows},
	{name: "phase-shift-bandit", args: []string{"-workload", "PHASE SHIFT", "-epochs", "22", "-bandit"}, after: windows},
	{name: "mix01-bandit-epsilon", args: []string{"-workload", "MIX 01", "-bandit", "-bandit-arms", "morph,dsr", "-bandit-strategy", "epsilon"}, after: windows},
	// README
	{name: "mix05-verbose-stats", args: []string{"-workload", "MIX 05", "-policy", "morph", "-verbose", "-stats"}},
	{name: "trace-in-4-4-1", args: []string{"-trace-in", "mix05.mctr", "-policy", "(4:4:1)"}},
	{name: "mix05-json", args: []string{"-workload", "MIX 05", "-policy", "morph", "-out", "json"}},
	{name: "mix05-epochlog", args: []string{"-workload", "MIX 05", "-policy", "morph", "-epochlog", "epochs.json"}, files: []string{"epochs.json"}},
	{name: "mix05-faults", args: []string{"-workload", "MIX 05", "-policy", "morph", "-faults", "4", "-fault-seed", "7"}},
	{name: "mix05-admin-trace", args: []string{"-workload", "MIX 05", "-policy", "morph", "-admin", "127.0.0.1:0", "-trace", "run.trace.json"}},
	// output modes the examples do not reach
	{name: "mix01-pipp-json", args: []string{"-workload", "MIX 01", "-policy", "pipp", "-out", "json"}},
	{name: "mix01-dsr-csv", args: []string{"-workload", "MIX 01", "-policy", "dsr", "-out", "csv"}},
	{name: "mix01-sampled-json", args: []string{"-workload", "MIX 01", "-policy", "morph", "-sampled", "-sampled-phases", "2", "-json"}, after: windows},
	{name: "phase-shift-bandit-json", args: []string{"-workload", "PHASE SHIFT", "-bandit", "-bandit-arms", "pipp,dsr,(16:1:1)", "-out", "json"}, after: windows},
	{name: "trace-in-json", args: []string{"-trace-in", "mix05.mctr", "-policy", "morph", "-stats", "-out", "json"}},
	{name: "mix01-verbose-warmup", args: []string{"-workload", "MIX 01", "-policy", "morph", "-verbose"}, after: []string{"-warmup", "2"}},
	{name: "mix02-small-qos", args: []string{"-workload", "MIX 02", "-cores", "8", "-scale", "32", "-seed", "3", "-policy", "morph-qos", "-verbose", "-stats"}},
	{name: "mix01-sampled-knobs", args: []string{"-workload", "MIX 01", "-policy", "(4:4:1)", "-sampled", "-sampled-warmup", "0", "-sampled-window", "50000", "-sampled-refs", "512"}, after: windows},
	{name: "mix01-bandit-knobs", args: []string{"-workload", "MIX 01", "-bandit", "-bandit-arms", "morph, dsr", "-bandit-strategy", "epsilon", "-bandit-epsilon", "0.3", "-bandit-window", "3", "-bandit-warmup", "0", "-bandit-reward", "mpki", "-verbose"}, after: windows},
}

// chdirTemp runs the rest of the test in a fresh temporary directory, so
// the examples' relative output paths land there.
func chdirTemp(t *testing.T) {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(wd) })
}

// runCLI runs morphsim in-process and returns its exit code and output.
func runCLI(args ...string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// compareGolden checks got against dir/name, rewriting it under -update.
func compareGolden(t *testing.T, dir, name string, got []byte) {
	t.Helper()
	path := filepath.Join(dir, name)
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden: %v (regenerate with: go test ./cmd/morphsim -run TestExamples -update)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs from its golden:\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

func TestExamples(t *testing.T) {
	golden, err := filepath.Abs(filepath.Join("testdata", "examples"))
	if err != nil {
		t.Fatal(err)
	}
	if *updateGolden {
		if err := os.MkdirAll(golden, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	chdirTemp(t)
	for _, ex := range examples {
		args := append(append([]string{}, ex.args...), quick...)
		if ex.after != nil {
			args = append(args, ex.after...)
		}
		code, stdout, stderr := runCLI(args...)
		if code != 0 {
			t.Fatalf("%s: exit %d\nstderr: %s", ex.name, code, stderr)
		}
		compareGolden(t, golden, ex.name+".out", []byte(stdout))
		for _, f := range ex.files {
			b, err := os.ReadFile(f)
			if err != nil {
				t.Fatalf("%s: %v", ex.name, err)
			}
			if filepath.Ext(f) == ".mctr" {
				// Pin a binary trace by its size and digest.
				b = []byte(fmt.Sprintf("%d bytes sha256 %x\n", len(b), sha256.Sum256(b)))
			}
			compareGolden(t, golden, ex.name+"."+f, b)
		}
	}
}

// TestRejected checks that every invalid flag combination fails before
// printing anything on stdout.
func TestRejected(t *testing.T) {
	chdirTemp(t)
	// A valid 4-core trace for the core-count mismatch case.
	f, err := os.Create("four.mctr")
	if err != nil {
		t.Fatal(err)
	}
	w, err := trace.NewWriter(f, 4)
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < 4; c++ {
		if err := w.Record(c, mem.Access{Line: mem.Line(c)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	f.Close()

	cases := []struct {
		args string
		code int
	}{
		{"-nosuch", 2},
		{"stray", 1},
		{"-out xml", 1},
		{"-cores 3", 1},
		{"-epochs 0", 1},
		{"-scale 0", 1},
		{"-warmup -1", 1},
		{"-epoch-cycles 0", 1},
		{"-policy nosuch", 1},
		{"-workload nosuch", 1},
		{"-cores 32", 1},
		{"-faults 4 -policy pipp", 1},
		{"-faults 4 -policy dsr", 1},
		{"-stats -policy pipp", 1},
		{"-stats -policy dsr", 1},
		{"-trace-in missing.mctr", 1},
		{"-trace-in four.mctr", 1},
		{"-trace-out nodir/t.mctr", 1},
		{"-sampled -trace-in four.mctr", 1},
		{"-sampled -trace-out t.mctr", 1},
		{"-sampled -faults 2", 1},
		{"-sampled -stats", 1},
		{"-bandit -sampled", 1},
		{"-bandit -trace-in four.mctr", 1},
		{"-bandit -trace-out t.mctr", 1},
		{"-bandit -faults 2", 1},
		{"-bandit -stats", 1},
		{"-bandit -bandit-strategy nosuch", 1},
		{"-bandit -bandit-reward nosuch", 1},
	}
	for _, tc := range cases {
		// The case's flags come last, so they override quick's.
		args := append([]string{}, quick...)
		if strings.Contains(tc.args, "-sampled") {
			args = append(args, "-epochs", "8")
		}
		args = append(args, strings.Fields(tc.args)...)
		code, stdout, stderr := runCLI(args...)
		if code != tc.code {
			t.Errorf("%s: exit %d, want %d (stderr: %s)", tc.args, code, tc.code, stderr)
		}
		if stdout != "" {
			t.Errorf("%s: printed on stdout:\n%s", tc.args, stdout)
		}
		if stderr == "" {
			t.Errorf("%s: no message on stderr", tc.args)
		}
		t.Logf("%-36s exit %d: %s", tc.args, code, strings.TrimSpace(stderr))
	}
	if _, err := os.Stat("t.mctr"); !os.IsNotExist(err) {
		t.Errorf("a rejected -trace-out run left its trace file behind (stat: %v)", err)
	}
}

// TestTraceOutStructuredOutput checks that recording under -out json
// keeps stdout one JSON document: the "recorded" note goes to stderr.
func TestTraceOutStructuredOutput(t *testing.T) {
	chdirTemp(t)
	code, stdout, stderr := runCLI(append([]string{"-trace-out", "t.mctr", "-out", "json"}, quick...)...)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	dec := json.NewDecoder(strings.NewReader(stdout))
	var doc map[string]any
	if err := dec.Decode(&doc); err != nil {
		t.Fatalf("stdout is not JSON: %v\n%s", err, stdout)
	}
	if err := dec.Decode(new(any)); err != io.EOF {
		t.Fatalf("stdout holds more than one JSON value (%v)", err)
	}
	if !strings.Contains(stderr, "recorded ") {
		t.Errorf("stderr lacks the recorded note: %q", stderr)
	}
}

// TestReplayObserverLabel checks that a replay's job span is labeled with
// the policy and the trace it replays, not the ignored -workload flag.
func TestReplayObserverLabel(t *testing.T) {
	chdirTemp(t)
	if code, _, stderr := runCLI(append([]string{"-workload", "MIX 05", "-trace-out", "m.mctr"}, quick...)...); code != 0 {
		t.Fatalf("record: exit %d: %s", code, stderr)
	}
	if code, _, stderr := runCLI(append([]string{"-trace-in", "m.mctr", "-policy", "(4:4:1)", "-trace", "run.json"}, quick...)...); code != 0 {
		t.Fatalf("replay: exit %d: %s", code, stderr)
	}
	b, err := os.ReadFile("run.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct{ Name, Cat string } `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	var jobs []string
	for _, ev := range doc.TraceEvents {
		if ev.Cat == "job" {
			jobs = append(jobs, ev.Name)
		}
	}
	if want := []string{"(4:4:1) trace:m.mctr"}; !reflect.DeepEqual(jobs, want) {
		t.Errorf("job spans %q, want %q", jobs, want)
	}
}
