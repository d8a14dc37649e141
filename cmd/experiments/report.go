package main

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"

	mc "morphcache"

	"morphcache/internal/telemetry"
)

// The structured report (-out json|csv) is assembled as a side effect of
// the memo caches: every facade simulation an experiment performs is
// recorded exactly once, keyed by its memo fingerprint, together with each
// experiment's text rendering. Runs are emitted sorted by key, so the
// document is byte-identical at every -jobs value. Experiments that
// simulate outside the facade (sens, xbar, energy, table4) and those that
// do not simulate (table2, fig5) contribute through their text sections
// only. The solo-IPC references behind the speedup metrics also run
// outside the facade; they appear as bare IPC values in the solo section.

// reportSchema versions the JSON document; bump on any field change.
const reportSchema = "morphcache-report/v1"

// reportDoc is the -out json document.
type reportDoc struct {
	Schema      string             `json:"schema"`
	Config      reportConfig       `json:"config"`
	Experiments []reportExperiment `json:"experiments"`
	Runs        []reportRun        `json:"runs"`
	Solo        []reportSolo       `json:"solo,omitempty"`
}

// reportConfig summarizes the invocation's base configuration.
type reportConfig struct {
	Cores        int    `json:"cores"`
	Scale        int    `json:"scale"`
	Epochs       int    `json:"epochs"`
	WarmupEpochs int    `json:"warmup_epochs"`
	EpochCycles  uint64 `json:"epoch_cycles"`
	Seed         uint64 `json:"seed"`
	Quick        bool   `json:"quick,omitempty"`
}

// reportExperiment is one experiment's text rendering.
type reportExperiment struct {
	ID    string `json:"id"`
	About string `json:"about"`
	Text  string `json:"text"`
}

// reportRun is one facade simulation with its telemetry.
type reportRun struct {
	// Key is the memo fingerprint (policy, workload, and every
	// result-affecting configuration field).
	Key              string         `json:"key"`
	Policy           string         `json:"policy"`
	Workload         string         `json:"workload"`
	Throughput       float64        `json:"throughput"`
	PerCoreIPC       []float64      `json:"per_core_ipc"`
	EpochThroughputs []float64      `json:"epoch_throughputs"`
	EpochTopologies  []string       `json:"epoch_topologies,omitempty"`
	Reconfigurations int            `json:"reconfigurations"`
	AsymmetricSteps  int            `json:"asymmetric_steps"`
	Telemetry        *telemetry.Log `json:"telemetry,omitempty"`
	// Sampled is the reconstruction report of a sampled run (absent for
	// full runs, so documents without sampled runs — the committed goldens
	// among them — are byte-identical to prior releases).
	Sampled *mc.SampledReport `json:"sampled,omitempty"`
	// Bandit is the decision report of a bandit meta-policy run (absent
	// otherwise, preserving the goldens the same way). The experiment
	// attaches the regret series to the shared report before the document
	// encodes, so it appears here too.
	Bandit *mc.BanditReport `json:"bandit,omitempty"`
}

// reportSolo is one alone-IPC reference measurement.
type reportSolo struct {
	Key       string  `json:"key"`
	Benchmark string  `json:"benchmark"`
	IPC       float64 `json:"ipc"`
}

var (
	reportMu    sync.Mutex
	reportOn    bool
	reportCfg   reportConfig
	reportExps  []reportExperiment
	reportRuns  map[string]reportRun
	reportSolos map[string]reportSolo
)

// reportReset clears all collection state (telemetry off).
func reportReset() {
	reportMu.Lock()
	defer reportMu.Unlock()
	reportOn = false
	reportCfg = reportConfig{}
	reportExps = nil
	reportRuns = nil
	reportSolos = nil
}

// reportInit switches collection on for this invocation.
func reportInit(cfg mc.Config, quick bool) {
	reportMu.Lock()
	defer reportMu.Unlock()
	reportOn = true
	reportCfg = reportConfig{
		Cores:        cfg.Cores,
		Scale:        cfg.Scale,
		Epochs:       cfg.Epochs,
		WarmupEpochs: cfg.WarmupEpochs,
		EpochCycles:  cfg.EpochCycles,
		Seed:         cfg.Seed,
		Quick:        quick,
	}
	reportExps = nil
	reportRuns = map[string]reportRun{}
	reportSolos = map[string]reportSolo{}
}

// reportAddExperiment appends one experiment's captured text section.
func reportAddExperiment(id, about, text string) {
	reportMu.Lock()
	defer reportMu.Unlock()
	if !reportOn {
		return
	}
	reportExps = append(reportExps, reportExperiment{ID: id, About: about, Text: text})
}

// reportRecordRun records one facade simulation under its memo key (first
// store wins; later memo hits are the same result). Called from the memo
// layer, possibly from worker goroutines.
func reportRecordRun(key string, s mc.RunSpec, res *mc.Result) {
	reportMu.Lock()
	defer reportMu.Unlock()
	if !reportOn || reportRuns == nil {
		return
	}
	if _, dup := reportRuns[key]; dup {
		return
	}
	reportRuns[key] = reportRun{
		Key:              key,
		Policy:           res.Policy,
		Workload:         s.Workload.String(),
		Throughput:       res.Throughput,
		PerCoreIPC:       res.PerCoreIPC,
		EpochThroughputs: res.EpochThroughputs,
		EpochTopologies:  res.EpochTopologies,
		Reconfigurations: res.Reconfigurations,
		AsymmetricSteps:  res.AsymmetricSteps,
		Telemetry:        res.Telemetry,
		Sampled:          res.SampledReport,
		Bandit:           res.BanditReport,
	}
}

// reportRecordSolo records one alone-IPC reference under its memo key.
func reportRecordSolo(key, bench string, ipc float64) {
	reportMu.Lock()
	defer reportMu.Unlock()
	if !reportOn || reportSolos == nil {
		return
	}
	reportSolos[key] = reportSolo{Key: key, Benchmark: bench, IPC: ipc}
}

// reportBuild assembles the document with runs and solos sorted by key.
func reportBuild() *reportDoc {
	reportMu.Lock()
	defer reportMu.Unlock()
	doc := &reportDoc{
		Schema:      reportSchema,
		Config:      reportCfg,
		Experiments: reportExps,
		Runs:        []reportRun{},
	}
	keys := make([]string, 0, len(reportRuns))
	for k := range reportRuns {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		doc.Runs = append(doc.Runs, reportRuns[k])
	}
	skeys := make([]string, 0, len(reportSolos))
	for k := range reportSolos {
		skeys = append(skeys, k)
	}
	sort.Strings(skeys)
	for _, k := range skeys {
		doc.Solo = append(doc.Solo, reportSolos[k])
	}
	return doc
}

// reportWriteJSON emits the full report document.
func reportWriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(reportBuild())
}

// reportWriteCSV emits the flat per-epoch form: every run's telemetry rows
// (schema of telemetry.CSVHeader) prefixed with the run's memo key.
// Reconfiguration events and experiment text have no flat rendering — use
// -out json when they matter.
func reportWriteCSV(w io.Writer) error {
	doc := reportBuild()
	cw := csv.NewWriter(w)
	if err := cw.Write(append([]string{"run"}, telemetry.CSVHeader()...)); err != nil {
		return err
	}
	for _, r := range doc.Runs {
		if r.Telemetry == nil {
			continue
		}
		for _, rec := range r.Telemetry.CSVRecords() {
			if err := cw.Write(append([]string{r.Key}, rec...)); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// epochLogSchema versions the -epochlog document.
const epochLogSchema = "morphcache-epochlog/v1"

// epochLogDoc is the -epochlog file: just the per-run telemetry.
type epochLogDoc struct {
	Schema string        `json:"schema"`
	Runs   []epochLogRun `json:"runs"`
}

type epochLogRun struct {
	Key       string         `json:"key"`
	Telemetry *telemetry.Log `json:"telemetry"`
}

// reportWriteEpochLog writes the per-run epoch logs to path.
func reportWriteEpochLog(path string) error {
	doc := reportBuild()
	out := epochLogDoc{Schema: epochLogSchema, Runs: []epochLogRun{}}
	for _, r := range doc.Runs {
		if r.Telemetry == nil {
			continue
		}
		out.Runs = append(out.Runs, epochLogRun{Key: r.Key, Telemetry: r.Telemetry})
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		f.Close()
		return fmt.Errorf("encode %s: %w", path, err)
	}
	return f.Close()
}
