package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"

	mc "morphcache"

	"morphcache/internal/hierarchy"
	"morphcache/internal/telemetry"
)

// report is the machine-readable run summary emitted by -out json.
type report struct {
	Workload         string                `json:"workload"`
	Policy           string                `json:"policy"`
	EpochCycles      uint64                `json:"epoch_cycles"`
	Epochs           int                   `json:"epochs"`
	Throughput       float64               `json:"throughput"`
	PerCoreIPC       []float64             `json:"per_core_ipc"`
	EpochThroughputs []float64             `json:"epoch_throughputs"`
	EpochTopologies  []string              `json:"epoch_topologies"`
	Reconfigurations int                   `json:"reconfigurations"`
	AsymmetricSteps  int                   `json:"asymmetric_steps"`
	Hierarchy        *hierarchy.Stats      `json:"hierarchy,omitempty"`
	PerCore          []hierarchy.CoreStats `json:"per_core,omitempty"`
	Telemetry        *telemetry.Log        `json:"telemetry,omitempty"`
	// Sampled is the reconstruction report of a -sampled run (absent for
	// full runs, so their documents are unchanged by its introduction).
	Sampled *mc.SampledReport `json:"sampled,omitempty"`
	// Bandit is the decision report of a -bandit run (absent otherwise,
	// preserving existing documents the same way).
	Bandit *mc.BanditReport `json:"bandit,omitempty"`
}

func emitJSON(w io.Writer, workload string, epochCycles uint64, r *mc.Result) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(report{
		Workload:         workload,
		Policy:           r.Policy,
		EpochCycles:      epochCycles,
		Epochs:           len(r.EpochThroughputs),
		Throughput:       r.Throughput,
		PerCoreIPC:       r.PerCoreIPC,
		EpochThroughputs: r.EpochThroughputs,
		EpochTopologies:  r.EpochTopologies,
		Reconfigurations: r.Reconfigurations,
		AsymmetricSteps:  r.AsymmetricSteps,
		Hierarchy:        r.Hierarchy,
		PerCore:          r.PerCore,
		Telemetry:        r.Telemetry,
		Sampled:          r.SampledReport,
		Bandit:           r.BanditReport,
	})
}

// writeEpochLog writes the run's telemetry log as indented JSON to path.
func writeEpochLog(path string, tl *telemetry.Log) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = tl.WriteJSON(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// printText renders the default report: the run line, per-epoch lines
// under -verbose, the aggregate, the windowed modes' reports, and the
// hierarchy counters under -stats.
func printText(w io.Writer, workload string, epochCycles uint64, r *mc.Result, verbose, stats bool) {
	fmt.Fprintf(w, "workload=%q policy=%q epochs=%d epoch-cycles=%d\n", workload, r.Policy, len(r.EpochThroughputs), epochCycles)
	if verbose {
		for i, t := range r.EpochThroughputs {
			fmt.Fprintf(w, "  epoch %2d  throughput=%6.3f  topology=%s\n", i, t, r.EpochTopologies[i])
		}
	}
	fmt.Fprintf(w, "throughput (sum IPC): %.4f\n", r.Throughput)
	if r.Reconfigurations > 0 {
		fmt.Fprintf(w, "reconfigurations: %d (asymmetric outcome in %d/%d intervals)\n",
			r.Reconfigurations, r.AsymmetricSteps, len(r.EpochThroughputs))
	}
	if rep := r.BanditReport; rep != nil {
		// The arm schedule as a run-length string, the per-arm play
		// counts, and any reward-degradation warnings.
		var parts []string
		for i := 0; i < len(rep.Windows); {
			j := i
			for j < len(rep.Windows) && rep.Windows[j].Arm == rep.Windows[i].Arm {
				j++
			}
			parts = append(parts, fmt.Sprintf("%s x%d", rep.Windows[i].Arm, j-i))
			i = j
		}
		fmt.Fprintf(w, "bandit: %s/%s, %d-epoch windows, %d switches, %d resets\n",
			rep.Strategy, rep.Reward, rep.WindowEpochs, rep.Switches, rep.Resets)
		fmt.Fprintf(w, "  schedule: %s\n", strings.Join(parts, " -> "))
		for _, a := range rep.Arms {
			fmt.Fprintf(w, "  arm %-18s plays=%2d  mean reward=%8.4f\n", a.Name, a.Plays, a.MeanReward)
		}
		for _, warn := range rep.Warnings {
			fmt.Fprintf(w, "  note: %s\n", warn)
		}
	}
	if rep := r.SampledReport; rep != nil {
		fmt.Fprintf(w, "sampled: %d phases over %d measured epochs; %d window epochs simulated (%.1fx cycle speedup)\n",
			len(rep.Phases), rep.MeasuredEpochs, rep.SimulatedEpochs, rep.Speedup)
		for _, ph := range rep.Phases {
			fmt.Fprintf(w, "  phase rep=%-3d weight=%.2f radius=%.3f throughput=%6.3f topology=%s\n",
				ph.Representative, ph.Weight, ph.Radius, ph.Throughput, ph.Topology)
		}
		fmt.Fprintf(w, "reconstructed: throughput %.4f +/- %.4f", rep.Throughput.Value, rep.Throughput.Err)
		if rep.MPKI.Value > 0 {
			fmt.Fprintf(w, ", MPKI %.3f +/- %.3f", rep.MPKI.Value, rep.MPKI.Err)
		}
		fmt.Fprintln(w)
	}
	if st := r.Hierarchy; stats && st != nil {
		tot := float64(st.Accesses)
		fmt.Fprintf(w, "accesses=%d  L1=%.1f%%  L2loc=%.1f%% L2rem=%.1f%%  L3loc=%.1f%% L3rem=%.1f%%  c2c=%.1f%% mem=%.1f%%\n",
			st.Accesses,
			100*float64(st.L1Hits)/tot,
			100*float64(st.L2Local)/tot, 100*float64(st.L2Remote)/tot,
			100*float64(st.L3Local)/tot, 100*float64(st.L3Remote)/tot,
			100*float64(st.C2C)/tot, 100*float64(st.MemReads)/tot)
		fmt.Fprintf(w, "coherenceInv=%d lazyInv=%d inclusionInv=%d backInv=%d migrations=%d writebacks=%d\n",
			st.CoherenceInv, st.LazyInv, st.InclusionInv, st.BackInv, st.Migrations, st.Writeback)
	}
}
