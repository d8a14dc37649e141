package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// metricDef names one metric the benchmark reports.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Layer, Moves and On are documentation for per-layer metrics: the
	// module the number belongs to, the end-to-end metric an optimisation
	// of that layer should move, and the workloads where it does.
	Layer, Moves, On string
}

// endToEnd lists what a user of the simulator or the server sees. Every
// workload reports every one of them; what an "operation" is depends on
// the workload (README.md, "End-to-end metrics").
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower"},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher"},
	{Name: "p50_ms", Unit: "ms", Better: "lower"},
	{Name: "tail_ms", Unit: "ms", Better: "lower"},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower"},
}

// perLayer lists the traced run's per-layer ledger. A traced run reports
// all of them; a layer the workload bypasses reports zero work. Busy time
// is reported as a share of the traced time base (worker time for the
// simulator, load-generator time for serve mode) so that a bypassed layer
// reads 0% instead of a constant zero duration; the two per-call timings
// kept in microseconds belong to layers every workload runs.
var perLayer = []metricDef{
	{"runner.jobs", "count", "higher", "runner", "ops_per_s", "sim-sweep, sim-windowed"},
	{"runner.idle_share", "%", "lower", "runner", "ops_per_s", "sim-sweep"},
	{"workload.refs", "count", "higher", "workload", "ops_per_s", "sim-sweep, sim-windowed"},
	{"workload.share", "%", "lower", "workload", "ops_per_s, p50_ms", "sim-sweep, sim-windowed"},
	{"hierarchy.accesses", "count", "higher", "hierarchy", "ops_per_s", "sim-sweep, sim-windowed"},
	{"hierarchy.share", "%", "lower", "hierarchy", "ops_per_s, p50_ms", "sim-sweep"},
	{"hierarchy.l1_share", "%", "higher", "hierarchy", "-", "sim-sweep, sim-windowed"},
	{"hierarchy.l2_share", "%", "higher", "hierarchy", "-", "sim-sweep, sim-windowed"},
	{"hierarchy.l3_share", "%", "higher", "hierarchy", "-", "sim-sweep, sim-windowed"},
	{"hierarchy.c2c_share", "%", "lower", "hierarchy", "-", "sim-sweep, sim-windowed"},
	{"hierarchy.mem_share", "%", "lower", "hierarchy", "-", "sim-sweep, sim-windowed"},
	{"hierarchy.targets_built", "count", "lower", "hierarchy", "ops_per_s", "sim-windowed"},
	{"hierarchy.new_share", "%", "lower", "hierarchy", "ops_per_s, tail_ms", "sim-windowed"},
	{"hierarchy.epoch_reset_share", "%", "lower", "hierarchy", "ops_per_s", "sim-sweep"},
	{"core.decide_us", "us", "lower", "core", "ops_per_s; tail_ms", "sim-sweep; serve-churn"},
	{"core.reconfigs", "count", "lower", "core", "-", "sim-sweep, sim-windowed, serve-churn"},
	{"reconfig.calls", "count", "lower", "core", "tail_ms", "serve-churn"},
	{"reconfig.share", "%", "lower", "core", "ops_per_s; tail_ms", "sim-sweep; serve-churn"},
	{"acfv.signal_calls", "count", "lower", "acfv", "ops_per_s", "sim-sweep"},
	{"acfv.signal_us", "us", "lower", "acfv", "ops_per_s; tail_ms", "sim-sweep; serve-churn"},
	{"sim.self_share", "%", "lower", "sim", "ops_per_s", "sim-sweep"},
	{"sampled.windows", "count", "lower", "sampled", "ops_per_s", "sim-windowed"},
	{"sampled.simulated_epochs", "count", "lower", "sampled", "ops_per_s, p50_ms", "sim-windowed"},
	{"sampled.overhead_share", "%", "lower", "sampled", "ops_per_s, p50_ms", "sim-windowed"},
	{"bandit.windows", "count", "lower", "bandit", "tail_ms", "sim-windowed"},
	{"bandit.switches", "count", "lower", "bandit", "-", "sim-windowed"},
	{"bandit.overhead_share", "%", "lower", "bandit", "tail_ms", "sim-windowed"},
	{"loadgen.sent", "count", "higher", "loadgen", "-", "serve-read, serve-churn"},
	{"loadgen.late_share", "%", "lower", "loadgen", "-", "serve-churn"},
	{"loadgen.self_share", "%", "lower", "loadgen", "-", "serve-read, serve-churn"},
	{"http.handler_share", "%", "lower", "http", "ops_per_s, p50_ms", "serve-read"},
	{"http.transport_share", "%", "lower", "http", "ops_per_s, p50_ms", "serve-read"},
	{"serve.hit_ratio", "ratio", "higher", "serve", "-", "serve-read"},
	{"serve.evictions", "count", "lower", "serve", "-", "serve-churn"},
	{"serve.store_share", "%", "lower", "serve", "ops_per_s, p50_ms", "serve-read"},
	{"serve.obs_overhead_ratio", "ratio", "lower", "serve", "ops_per_s, p50_ms", "serve-read"},
	{"serve.epochs", "count", "higher", "serve.epoch", "-", "serve-read, serve-churn"},
	{"serve.epoch_pause_share", "%", "lower", "serve.epoch", "tail_ms", "serve-churn"},
	{"serve.epoch_nonpolicy_share", "%", "lower", "serve.epoch", "tail_ms", "serve-churn"},
	{"serve.pause_to_tail_ratio", "ratio", "lower", "serve.epoch", "tail_ms", "serve-churn"},
	{"wal.bytes_per_user_byte", "ratio", "lower", "wal", "p50_ms, tail_ms", "serve-churn"},
	{"wal.append_share", "%", "lower", "wal", "p50_ms", "serve-churn"},
	{"wal.replay_share", "%", "lower", "wal", "setup_s", "serve-churn"},
	{"trace.overhead_ratio", "ratio", "lower", "trace", "-", "all"},
	{"trace.unattributed_share", "%", "lower", "trace", "-", "all"},
}

// benchSpec is BENCHMARK.json: the contract the benchmark is run and
// gated against.
type benchSpec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []specWorkload `json:"workloads"`
	EndToEnd   []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// specWorkload is one BENCHMARK.json workload entry.
type specWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// loadSpec reads BENCHMARK.json.
func loadSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// bounds maps each end-to-end metric to its regression bound.
func (s *benchSpec) bounds() map[string]float64 {
	m := make(map[string]float64, len(s.EndToEnd))
	for _, e := range s.EndToEnd {
		m[e.Name] = e.Bound
	}
	return m
}

// defs returns the catalog entries for trace mode (per-layer) or the
// end-to-end set.
func defs(trace bool) []metricDef {
	if trace {
		return perLayer
	}
	return endToEnd
}

// lookupDef finds a metric by name in either list.
func lookupDef(name string) (metricDef, bool) {
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range list {
			if d.Name == name {
				return d, true
			}
		}
	}
	return metricDef{}, false
}
