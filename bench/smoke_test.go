package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"morphcache/internal/obs"
)

// tinyRun runs one workload at smoke-test size in this process.
func tinyRun(t *testing.T, name string, trace bool) *record {
	t.Helper()
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	i := slices.IndexFunc(workloads, func(w workloadDef) bool { return w.name == name })
	if i < 0 {
		t.Fatalf("no workload %q", name)
	}
	env := &runEnv{name: name, seed: 1, dur: 400 * time.Millisecond, trace: trace, tiny: true, root: root, log: io.Discard}
	tracePath := ""
	if trace {
		tracePath = filepath.Join(t.TempDir(), "trace.json")
	}
	rec, err := runOne(env, workloads[i], tracePath)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	for _, c := range rec.checks {
		if !c.ok {
			t.Errorf("%s (trace %v): check %s failed: %s", name, trace, c.name, c.detail)
		}
	}
	if trace {
		checkTraceFile(t, tracePath)
	}
	return rec
}

// checkTraceFile applies cmd/tracecheck's rules: a non-empty event list
// of named complete or instant events with non-negative times.
func checkTraceFile(t *testing.T, path string) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc obs.TraceDoc
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatalf("trace: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("trace has no events")
	}
	for _, ev := range doc.TraceEvents {
		if ev.Name == "" || (ev.Ph != "X" && ev.Ph != "i") || ev.TS < 0 || ev.Dur < 0 {
			t.Fatalf("bad trace event %+v", ev)
		}
	}
}

func specNames[T any](xs []T, name func(T) string) []string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = name(x)
	}
	sort.Strings(out)
	return out
}

// TestCatalogMatchesBenchmarkJSON: the metrics and workloads the program
// knows are exactly the ones BENCHMARK.json declares, with the same units
// and directions, and the bounds obey the contract.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if spec.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, defaultSeconds %d", spec.RunSeconds, defaultSeconds)
	}
	if !slices.Equal(spec.Command, []string{"bash", "bench/run.sh"}) || !slices.Equal(spec.Paths, []string{"bench"}) {
		t.Errorf("command %q paths %q", spec.Command, spec.Paths)
	}
	gotW := specNames(spec.Workloads, func(w specWorkload) string { return w.Name })
	wantW := specNames(workloads, func(w workloadDef) string { return w.name })
	if !slices.Equal(gotW, wantW) {
		t.Errorf("workloads: BENCHMARK.json %v, program %v", gotW, wantW)
	}
	type row struct{ name, unit, better string }
	var e2e, layer []row
	largest := ""
	for _, e := range spec.EndToEnd {
		e2e = append(e2e, row{e.Name, e.Unit, e.Better})
		if e.Bound < 0 || e.Bound > 0.25 {
			t.Errorf("%s: bound %v outside [0, 0.25]", e.Name, e.Bound)
		}
		if largest == "" || e.Bound > spec.bounds()[largest] {
			largest = e.Name
		}
	}
	if spec.bounds()["setup_s"] < spec.bounds()[largest] {
		t.Errorf("setup_s must carry the largest bound")
	}
	for _, p := range spec.PerLayer {
		layer = append(layer, row{p.Name, p.Unit, p.Better})
	}
	for _, c := range []struct {
		what string
		json []row
		defs []metricDef
	}{{"end_to_end", e2e, endToEnd}, {"per_layer", layer, perLayer}} {
		var prog []row
		for _, d := range c.defs {
			prog = append(prog, row{d.Name, d.Unit, d.Better})
		}
		if !slices.Equal(c.json, prog) {
			t.Errorf("%s differs:\nBENCHMARK.json %v\nprogram        %v", c.what, c.json, prog)
		}
	}
}

// TestSmokeEveryWorkload runs every workload at tiny size, untraced and
// traced, and checks the metric names it emits are exactly the
// BENCHMARK.json set for that mode.
func TestSmokeEveryWorkload(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	want := map[bool][]string{}
	for _, e := range spec.EndToEnd {
		want[false] = append(want[false], e.Name)
	}
	for _, p := range spec.PerLayer {
		want[true] = append(want[true], p.Name)
	}
	for _, wl := range workloads {
		for _, trace := range []bool{false, true} {
			rec := tinyRun(t, wl.name, trace)
			got := make([]string, 0, len(rec.Metrics))
			for k, v := range rec.Metrics {
				got = append(got, k)
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s %s = %v", wl.name, k, v)
				}
			}
			sort.Strings(got)
			w := append([]string(nil), want[trace]...)
			sort.Strings(w)
			if !slices.Equal(got, w) {
				t.Errorf("%s (trace %v) emitted %v\nBENCHMARK.json has %v", wl.name, trace, got, w)
			}
			if rec.Attempted < 1 || rec.Failed != 0 {
				t.Errorf("%s (trace %v): attempted %d failed %d", wl.name, trace, rec.Attempted, rec.Failed)
			}
		}
	}
}

// TestTracedLedgerReconciles: the traced layers partition the traced time
// base, and what no layer claims stays under 5%.
func TestTracedLedgerReconciles(t *testing.T) {
	// Entries prefixed "diag:" are diagnostics rather than contract
	// metrics.
	simParts := []string{"runner.idle_share", "workload.share", "hierarchy.share", "hierarchy.new_share",
		"hierarchy.epoch_reset_share", "diag:core.share", "diag:acfv.share", "reconfig.share", "sim.self_share",
		"sampled.overhead_share", "bandit.overhead_share", "trace.unattributed_share"}
	serveParts := []string{"http.handler_share", "http.transport_share", "loadgen.self_share",
		"diag:loadgen.sleep_share", "trace.unattributed_share"}
	for _, c := range []struct {
		workload string
		parts    []string
	}{{"sim-sweep", simParts}, {"sim-windowed", simParts}, {"serve-read", serveParts}, {"serve-churn", serveParts}} {
		rec := tinyRun(t, c.workload, true)
		if u := rec.Metrics["trace.unattributed_share"]; u < 0 || u > 5 {
			t.Errorf("%s: %.2f%% of traced time unattributed, want ≤ 5%%", c.workload, u)
		}
		var sum float64
		for _, p := range c.parts {
			if name, ok := strings.CutPrefix(p, "diag:"); ok {
				sum += rec.Diag[name]
			} else {
				sum += rec.Metrics[p]
			}
		}
		if math.Abs(sum-100) > 0.01 {
			t.Errorf("%s: layer shares sum to %.4f%%, want 100%%", c.workload, sum)
		}
	}
}
