// Package sampled implements SimPoint-style sampled simulation for the
// epoch engine: instead of simulating every reconfiguration interval of a
// run, it detects the run's phases from cheap per-epoch signatures, groups
// the measured epochs into a handful of phases by deterministic k-means
// clustering, simulates one representative epoch window per phase (with a
// configurable warmup prefix to reconstruct cache and topology state), and
// reconstructs the full-run metrics as the weighted combination of the
// representatives (Bueno et al., "Improving the Representativeness of
// Simulation Intervals for the Cache Memory System").
//
// Three properties of the simulator make this sound here:
//
//   - workload generators reseed per epoch from (seed, asid, thread, epoch),
//     so a window started at epoch r sees exactly the reference stream the
//     full run sees at epoch r (two deliberate approximations: the
//     streaming-region cursor persists across epochs in a full run, but the
//     streaming region is uniform so its position does not matter; and a
//     full run may enter epoch r with one reference still in flight, so the
//     window can issue at most one extra trailing reference per epoch);
//   - sim.Config.StartEpoch resumes the engine at any absolute epoch, with
//     clocks, telemetry, and sources all positioned on the full run's
//     timeline;
//   - every random choice (the k-means++ seeding) derives from the run seed
//     via internal/rng, and every tie in clustering breaks toward the lowest
//     index, so phase assignments and representatives are byte-identical at
//     every worker count and across repeated runs.
//
// What sampling cannot see: state that genuinely accumulates across many
// epochs. A warmup prefix of a few epochs rebuilds cache contents and gives
// the MorphCache controller a few reconfiguration decisions, but a topology
// that the full run reached through a long drift may differ from what the
// window converges to, and fault plans (which damage the machine at specific
// epochs) are rejected outright. The -run sampled validation experiment and
// its CI gate quantify the resulting reconstruction error.
package sampled

import (
	"fmt"

	"morphcache/internal/metrics"
	"morphcache/internal/sim"
	"morphcache/internal/telemetry"
)

// NoWindowWarmup requests a window with no warmup prefix (the zero value of
// Options.WindowWarmup means "use the default" instead, matching the
// package convention that zero-valued options are the defaults).
const NoWindowWarmup = -1

// Options configures sampled simulation. The zero value of every field
// selects the default printed by Defaults; Fast is the preset the batch
// benchmarks use.
type Options struct {
	// MaxPhases is k, the maximum number of phases (clusters) detected; the
	// effective count is min(MaxPhases, measured epochs), and empty clusters
	// are dropped. Default 4.
	MaxPhases int
	// WindowWarmup is the number of unmeasured epochs simulated before each
	// representative epoch to reconstruct cache contents and give the
	// policy's controller reconfiguration decisions to converge on. Windows
	// near epoch 0 are clamped (a representative at absolute epoch 1 can
	// warm up for at most 1 epoch). Default 2; NoWindowWarmup disables.
	WindowWarmup int
	// WindowCycles, when non-zero, truncates every window epoch (warmup and
	// measured) to this many cycles — the SMARTS-style short measurement:
	// IPC is a rate, so a representative slice of an epoch estimates the
	// epoch's rate at a fraction of its cost. 0 simulates full epochs.
	WindowCycles uint64
	// ProfileRefs is the number of references sampled per core per epoch by
	// the profiling pass that builds phase signatures. Default 2048.
	ProfileRefs int
	// SignatureBits is the width of each ACFV-style occupancy vector in the
	// phase signature (a power of two, as the XOR hash requires). Default 256.
	SignatureBits int
	// MaxIters caps the Lloyd refinement iterations. Default 32.
	MaxIters int
}

// Defaults returns the default sampling options.
func Defaults() Options {
	return Options{
		MaxPhases:     4,
		WindowWarmup:  2,
		WindowCycles:  0,
		ProfileRefs:   2048,
		SignatureBits: 256,
		MaxIters:      32,
	}
}

// Fast returns the aggressive preset used by the batch-sweep benchmark:
// fewer phases, one warmup epoch, quarter-length window epochs, and a
// lighter profiling pass. Accuracy is lower than Defaults; the validation
// experiment gates Defaults, not Fast.
func Fast() Options {
	return Options{
		MaxPhases:     2,
		WindowWarmup:  1,
		WindowCycles:  0, // set by the caller relative to its EpochCycles
		ProfileRefs:   1024,
		SignatureBits: 128,
		MaxIters:      16,
	}
}

// withDefaults replaces zero-valued fields with the defaults (and maps
// NoWindowWarmup to an actual zero warmup).
func (o Options) withDefaults() Options {
	d := Defaults()
	if o.MaxPhases == 0 {
		o.MaxPhases = d.MaxPhases
	}
	if o.WindowWarmup == 0 {
		o.WindowWarmup = d.WindowWarmup
	} else if o.WindowWarmup == NoWindowWarmup {
		o.WindowWarmup = 0
	}
	if o.ProfileRefs == 0 {
		o.ProfileRefs = d.ProfileRefs
	}
	if o.SignatureBits == 0 {
		o.SignatureBits = d.SignatureBits
	}
	if o.MaxIters == 0 {
		o.MaxIters = d.MaxIters
	}
	return o
}

// Validate rejects unusable options (after default substitution).
func (o Options) Validate() error {
	v := o.withDefaults()
	if v.MaxPhases < 1 {
		return fmt.Errorf("sampled: MaxPhases must be >= 1, got %d", o.MaxPhases)
	}
	if v.WindowWarmup < 0 {
		return fmt.Errorf("sampled: WindowWarmup must be >= 0 or NoWindowWarmup, got %d", o.WindowWarmup)
	}
	if v.ProfileRefs < 1 {
		return fmt.Errorf("sampled: ProfileRefs must be >= 1, got %d", o.ProfileRefs)
	}
	if v.SignatureBits < 1 || v.SignatureBits&(v.SignatureBits-1) != 0 {
		return fmt.Errorf("sampled: SignatureBits must be a positive power of two, got %d", o.SignatureBits)
	}
	if v.MaxIters < 1 {
		return fmt.Errorf("sampled: MaxIters must be >= 1, got %d", o.MaxIters)
	}
	return nil
}

// Fingerprint renders the effective options compactly for memo keys: two
// configurations with the same fingerprint produce identical sampled
// results on the same run configuration.
func (o Options) Fingerprint() string {
	v := o.withDefaults()
	return fmt.Sprintf("k%d,w%d,c%d,r%d,b%d,i%d",
		v.MaxPhases, v.WindowWarmup, v.WindowCycles, v.ProfileRefs, v.SignatureBits, v.MaxIters)
}

// Factories builds the per-window simulation state. Every representative
// window gets a fresh target and fresh sources (windows share nothing
// mutable, exactly like batch jobs), so the policy controller and cache
// contents always start from the same state the full run starts from.
type Factories struct {
	// NewTarget builds the cache system under its policy.
	NewTarget func() (sim.Target, error)
	// NewSources builds the per-core reference sources.
	NewSources func() ([]sim.Source, error)
}

// Metric is a reconstructed value with its heuristic error bar (see
// errorBar for the math; the CI gate checks actual reconstruction error
// against full runs, not this bar).
type Metric struct {
	Value float64 `json:"value"`
	Err   float64 `json:"err"`
}

// LevelShares is the fraction of accesses served by each level/path.
type LevelShares struct {
	L1  float64 `json:"l1"`
	L2  float64 `json:"l2"`
	L3  float64 `json:"l3"`
	C2C float64 `json:"c2c"`
	Mem float64 `json:"mem"`
}

// PhaseReport describes one detected phase.
type PhaseReport struct {
	// Representative is the absolute epoch index simulated for this phase.
	Representative int `json:"representative"`
	// Epochs lists the absolute measured epochs assigned to the phase.
	Epochs []int `json:"epochs"`
	// Weight is the phase's share of the measured epochs.
	Weight float64 `json:"weight"`
	// Radius is the RMS signature distance of members to the phase
	// centroid, normalized to [0, 1] (0 = all members identical).
	Radius float64 `json:"radius"`
	// Topology is the configuration in force during the representative
	// epoch; Throughput its per-epoch throughput (sum of per-core IPC).
	Topology   string  `json:"topology,omitempty"`
	Throughput float64 `json:"throughput"`
}

// Report is the sampled run's reconstruction summary.
type Report struct {
	// Phases, sorted by representative epoch.
	Phases []PhaseReport `json:"phases"`
	// MeasuredEpochs is the number of full-run measured epochs being
	// reconstructed; SimulatedEpochs the number of window epochs actually
	// simulated (warmup prefixes included).
	MeasuredEpochs  int `json:"measured_epochs"`
	SimulatedEpochs int `json:"simulated_epochs"`
	// WindowCycles is the effective cycles per window epoch.
	WindowCycles uint64 `json:"window_cycles"`
	// Speedup is the ratio of full-run simulated cycles (warmup included)
	// to window cycles — the cost reduction, profiling pass excluded.
	Speedup float64 `json:"speedup"`
	// Throughput is the reconstructed whole-run throughput (sum of per-core
	// IPC); MPKI the reconstructed last-level misses per kilo-instruction
	// (zero for targets without telemetry counters, i.e. PIPP/DSR).
	Throughput Metric `json:"throughput"`
	MPKI       Metric `json:"mpki"`
	// Hits is the reconstructed per-level service breakdown (nil for
	// targets without telemetry counters).
	Hits *LevelShares `json:"hits,omitempty"`
}

// RunResult is a sampled run's full outcome: a reconstructed metrics.Run
// shaped exactly like a full run's (so downstream reporting works
// unchanged), the reconstruction report, and the concatenated telemetry of
// the simulated windows (absolute epoch indices; warmup records flagged).
type RunResult struct {
	Run    *metrics.Run
	Report *Report
	Log    *telemetry.Log
}

// Run executes a sampled simulation. scfg is the full run's engine
// configuration (StartEpoch 0, no faults); profileKey must uniquely
// identify the workload + configuration whose profile is being built (the
// profile cache is keyed on it, so distinct workloads must yield distinct
// keys). The profile is policy-independent — it samples the reference
// streams without simulating a cache — so batches sweeping policies over
// one workload profile it once.
func Run(scfg sim.Config, opts Options, profileKey string, f Factories) (*RunResult, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	o := opts.withDefaults()
	if !scfg.Faults.Empty() {
		return nil, fmt.Errorf("sampled: fault plans are not supported (faults damage specific epochs; a sampled run does not simulate them all)")
	}
	if scfg.StartEpoch != 0 {
		return nil, fmt.Errorf("sampled: StartEpoch must be 0 in the full-run configuration, got %d", scfg.StartEpoch)
	}
	sigs, err := profileFor(profileKey, scfg, o, f.NewSources)
	if err != nil {
		return nil, err
	}
	phases := clusterPhases(sigs, o.MaxPhases, o.MaxIters, scfg.Seed)

	windowCycles := scfg.EpochCycles
	if o.WindowCycles > 0 {
		windowCycles = o.WindowCycles
	}

	// Simulate one window per phase.
	wins := make([]*window, len(phases))
	for i, ph := range phases {
		w, err := runWindow(scfg, o, f, ph)
		if err != nil {
			return nil, err
		}
		wins[i] = w
	}
	return reconstruct(scfg, phases, wins, windowCycles), nil
}

// window is one simulated representative window.
type window struct {
	run *metrics.Run   // one measured epoch
	log *telemetry.Log // warmup + measured records, absolute epochs
	// measured is the measured epoch's aggregate telemetry (nil when the
	// target records no counters).
	measured *telemetry.EpochRecord
	epochs   int // epochs simulated (warmup + 1)
}

// runWindow simulates the representative window of one phase: WindowWarmup
// unmeasured epochs (clamped at the start of the run) followed by the
// representative epoch, on a fresh target with fresh sources.
func runWindow(scfg sim.Config, o Options, f Factories, ph phase) (*window, error) {
	rep := scfg.WarmupEpochs + ph.rep // absolute epoch
	wcfg := scfg
	if o.WindowCycles > 0 {
		wcfg.EpochCycles = o.WindowCycles
	}
	wlog := telemetry.NewLog()
	wcfg.Recorder = wlog

	target, err := f.NewTarget()
	if err != nil {
		return nil, err
	}
	srcs, err := f.NewSources()
	if err != nil {
		return nil, err
	}
	run, err := sim.RunWindow(wcfg, rep, o.WindowWarmup, 1, target, srcs)
	if err != nil {
		return nil, err
	}

	// The log holds one record per simulated epoch, warmup included.
	w := &window{run: run, log: wlog, epochs: len(wlog.Epochs)}
	for i := range wlog.Epochs {
		if r := &wlog.Epochs[i]; r.Epoch == rep && !r.Warmup {
			w.measured = r
			break
		}
	}
	return w, nil
}

// reconstruct assembles the weighted full-run estimate from the windows.
func reconstruct(scfg sim.Config, phases []phase, wins []*window, windowCycles uint64) *RunResult {
	e := scfg.Epochs
	run := &metrics.Run{Policy: wins[0].run.Policy}
	rep := &Report{
		MeasuredEpochs: e,
		WindowCycles:   windowCycles,
	}
	agg := telemetry.NewLog()

	// Per-epoch series: each measured epoch inherits its phase's
	// representative epoch verbatim.
	byEpoch := make([]int, e)
	for pi, ph := range phases {
		for _, m := range ph.members {
			byEpoch[m] = pi
		}
	}
	n := len(wins[0].run.PerCoreIPC)
	perCore := make([]float64, n)
	for i := 0; i < e; i++ {
		w := wins[byEpoch[i]]
		src := w.run.Epochs[0]
		ipc := make([]float64, n)
		copy(ipc, src.PerCoreIPC)
		run.Epochs = append(run.Epochs, metrics.Epoch{Index: i, PerCoreIPC: ipc, Topology: src.Topology})
		for c := 0; c < n; c++ {
			perCore[c] += src.PerCoreIPC[c] / float64(e)
		}
	}
	run.PerCoreIPC = perCore

	// Weighted totals, heuristic dispersion, and the phase table.
	var relDisp float64
	var instr, misses, accesses, l1, l2, l3, c2c, mr float64
	haveCounters := false
	for pi, ph := range phases {
		w := wins[pi]
		members := len(ph.members)
		run.Reconfigurations += members * w.run.Reconfigurations
		run.AsymmetricSteps += members * w.run.AsymmetricSteps
		weight := float64(members) / float64(e)
		relDisp += weight * ph.radius

		abs := make([]int, members)
		for i, m := range ph.members {
			abs[i] = scfg.WarmupEpochs + m
		}
		pr := PhaseReport{
			Representative: scfg.WarmupEpochs + ph.rep,
			Epochs:         abs,
			Weight:         weight,
			Radius:         ph.radius,
			Topology:       w.run.Epochs[0].Topology,
		}
		for _, v := range w.run.Epochs[0].PerCoreIPC {
			pr.Throughput += v
		}
		rep.Phases = append(rep.Phases, pr)
		rep.SimulatedEpochs += w.epochs
		agg.Epochs = append(agg.Epochs, w.log.Epochs...)
		agg.Reconfigs = append(agg.Reconfigs, w.log.Reconfigs...)

		if m := w.measured; m != nil {
			scale := float64(members)
			for _, ce := range m.Cores {
				if ce.Accesses > 0 {
					haveCounters = true
				}
				instr += scale * float64(ce.Instructions)
				misses += scale * float64(ce.C2C+ce.MemReads)
				accesses += scale * float64(ce.Accesses)
				l1 += scale * float64(ce.L1Hits)
				l2 += scale * float64(ce.L2Hits)
				l3 += scale * float64(ce.L3Hits)
				c2c += scale * float64(ce.C2C)
				mr += scale * float64(ce.MemReads)
			}
		}
	}

	rep.Throughput.Value = 0
	for _, v := range perCore {
		rep.Throughput.Value += v
	}
	rep.Throughput.Err = errorBar(rep.Throughput.Value, relDisp)
	if haveCounters {
		if instr > 0 {
			rep.MPKI.Value = misses * 1000 / instr
			rep.MPKI.Err = errorBar(rep.MPKI.Value, relDisp)
		}
		if accesses > 0 {
			rep.Hits = &LevelShares{
				L1:  l1 / accesses,
				L2:  l2 / accesses,
				L3:  l3 / accesses,
				C2C: c2c / accesses,
				Mem: mr / accesses,
			}
		}
	}
	fullCycles := float64(uint64(scfg.WarmupEpochs+e) * scfg.EpochCycles)
	winCycles := float64(uint64(rep.SimulatedEpochs) * windowCycles)
	if winCycles > 0 {
		rep.Speedup = fullCycles / winCycles
	}
	return &RunResult{Run: run, Report: rep, Log: agg}
}

// errorBar is the heuristic per-metric error bar: the metric scaled by the
// weighted mean normalized cluster radius. The assumption — metric
// variation within a phase is proportional to signature dispersion — is a
// proxy, not a bound; the CI validation experiment measures the actual
// reconstruction error against full runs and gates on that.
func errorBar(value, relDisp float64) float64 {
	if value < 0 {
		value = -value
	}
	return value * relDisp
}
