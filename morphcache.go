// Package morphcache is a trace-driven simulator of MorphCache, the
// reconfigurable adaptive multi-level cache hierarchy of Srikantaiah et
// al. (HPCA 2011), together with every baseline the paper evaluates
// against: arbitrary static (x:y:z) topologies, PIPP and DSR extended to
// two cache levels, and the per-epoch ideal offline scheme.
//
// This root package is the high-level entry point: it wires the calibrated
// workload models (synthetic SPEC CPU 2006 / PARSEC stand-ins parameterized
// by the paper's Table 4), the three-level inclusive cache hierarchy, the
// segmented-bus interconnect model, and the MorphCache controller into
// one-call experiment runners. The sub-systems live in internal/ packages:
//
//	internal/cache      set-associative slices (LRU, tree-PLRU)
//	internal/acfv       Active Cache Footprint Vector hardware model (§2.1)
//	internal/topology   (x:y:z) topologies, groupings, buddy operations
//	internal/bus        segmented bus, arbiter tree, physical model (§3)
//	internal/hierarchy  inclusive L1/L2/L3 system with merged groups
//	internal/core       the MorphCache controller (§2)
//	internal/baselines  pipp, dsr, offline
//	internal/workload   Table 4/5 benchmark models and mixes
//	internal/sim        epoch-based engine and metrics
//	internal/zoo        the policy vocabulary: one name, one fresh target
//
// The quickstart example (examples/quickstart) shows typical use:
//
//	cfg := morphcache.LabConfig()
//	res, err := morphcache.RunMorphCache(cfg, morphcache.Mix("MIX 01"))
//	base, err := morphcache.RunStatic(cfg, "(16:1:1)", morphcache.Mix("MIX 01"))
//	fmt.Println(res.Throughput / base.Throughput)
package morphcache

import (
	"context"
	"fmt"
	"time"

	"morphcache/internal/baselines/offline"
	"morphcache/internal/core"
	"morphcache/internal/fault"
	"morphcache/internal/hierarchy"
	"morphcache/internal/metrics"
	"morphcache/internal/obs"
	"morphcache/internal/runner"
	"morphcache/internal/sim"
	"morphcache/internal/telemetry"
	"morphcache/internal/topology"
	"morphcache/internal/workload"
	"morphcache/internal/zoo"
)

// Config sizes one experiment. The zero value is not valid; start from
// LabConfig (the calibrated scaled system all experiments use) or
// PaperConfig (the full Table 3 capacities) and adjust.
type Config struct {
	// Cores is the CMP size (power of two; the paper evaluates 16 and 8).
	Cores int
	// Scale divides every cache capacity (L1 by Scale/4) and the workload
	// footprints by the same factor, preserving capacity-pressure ratios
	// while keeping runs fast. 1 = full Table 3 sizes.
	Scale int
	// Epochs is the number of measured reconfiguration intervals;
	// WarmupEpochs run first, unmeasured.
	Epochs, WarmupEpochs int
	// EpochCycles is the interval length in CPU cycles (the scaled
	// analogue of the paper's 300M-cycle interval).
	EpochCycles uint64
	// Seed drives all workload generation deterministically.
	Seed uint64
	// Morph configures the controller (zero value: DefaultOptions).
	Morph core.Options
	// Telemetry, when true, attaches a per-run telemetry.Log — per-epoch,
	// per-core records plus every reconfiguration event — to each Result.
	// Off by default: nothing is recorded and the hot path pays nothing.
	// Simulation results are identical either way.
	Telemetry bool
	// Faults, when non-nil and non-empty, is a deterministic fault plan
	// (see internal/fault): each event damages the hierarchy at the start
	// of its epoch. Only hierarchy-backed policies (static, morph,
	// morph-nodegrade) accept faults; PIPP/DSR runs reject them. Nil (the
	// default) leaves every run byte-identical to a fault-free build.
	Faults *fault.Plan
	// Sampled, when non-nil, switches the run to sampled simulation: the
	// measured epochs are clustered into phases, one representative window
	// per phase is simulated, and the Result is the weighted reconstruction
	// (with Result.SampledReport attached; DESIGN.md §13). Incompatible
	// with Faults. Nil (the default) simulates every epoch as always.
	Sampled *SampledConfig
	// Bandit, when non-nil, configures the bandit meta-policy used by
	// RunBandit and Policy "bandit" (see internal/baselines/bandit and
	// DESIGN.md §16): arm list, selection strategy, reward mode, and window
	// size. Incompatible with Faults and Sampled. Nil runs the defaults.
	// Non-bandit entry points reject a set Bandit instead of ignoring it.
	Bandit *BanditConfig
	// Observer, when non-nil, attaches live observability hooks to the run:
	// per-level access counters and latency histograms, controller decision
	// counts, phase spans when its tracer is on, and — with Telemetry also
	// set — per-epoch latency quantile summaries in the epoch log. Nil (the
	// default) observes nothing and leaves results and reports
	// byte-identical (DESIGN.md §10). Observation never changes simulation
	// results.
	Observer *obs.Observer
}

// Validate rejects configurations the simulator cannot run meaningfully:
// a non-power-of-two core count, non-positive scale, epoch count, or epoch
// length, a negative warmup, or a fault plan that does not fit the
// machine. Every Run* entry point calls it, so a bad configuration fails
// fast with a descriptive error instead of panicking mid-run.
func (c Config) Validate() error {
	if c.Cores <= 0 || c.Cores&(c.Cores-1) != 0 {
		return fmt.Errorf("morphcache: Cores must be a positive power of two, got %d", c.Cores)
	}
	if c.Scale < 1 {
		return fmt.Errorf("morphcache: Scale must be >= 1, got %d", c.Scale)
	}
	if c.Epochs <= 0 {
		return fmt.Errorf("morphcache: Epochs must be positive, got %d", c.Epochs)
	}
	if c.WarmupEpochs < 0 {
		return fmt.Errorf("morphcache: WarmupEpochs must be >= 0, got %d", c.WarmupEpochs)
	}
	if c.EpochCycles == 0 {
		return fmt.Errorf("morphcache: EpochCycles must be positive")
	}
	if err := c.Faults.Validate(c.Cores); err != nil {
		return fmt.Errorf("morphcache: %w", err)
	}
	if c.Sampled != nil {
		if err := c.Sampled.Validate(); err != nil {
			return fmt.Errorf("morphcache: %w", err)
		}
		if !c.Faults.Empty() {
			return fmt.Errorf("morphcache: Sampled and Faults are incompatible (fault plans damage specific epochs; a sampled run does not simulate them all)")
		}
	}
	if c.Bandit != nil {
		if err := c.Bandit.Validate(); err != nil {
			return fmt.Errorf("morphcache: %w", err)
		}
		if !c.Faults.Empty() {
			return fmt.Errorf("morphcache: Bandit and Faults are incompatible (fault plans damage specific absolute epochs; bandit windows replay epochs on fresh targets and would re-inject the damage per window)")
		}
		if c.Sampled != nil {
			return fmt.Errorf("morphcache: Bandit and Sampled are incompatible (both re-slice the run into windows; the bandit needs the full epoch sequence to learn from)")
		}
	}
	return nil
}

// LabConfig returns the calibrated experiment configuration: a 16-core
// system at 1/16 capacity scale, 20 measured epochs of one million cycles
// (matching the 20-interval structure of the paper's Fig. 2(a)).
func LabConfig() Config {
	return Config{
		Cores:        16,
		Scale:        16,
		Epochs:       20,
		WarmupEpochs: 2,
		EpochCycles:  1_000_000,
		Seed:         1,
		Morph:        core.DefaultOptions(),
	}
}

// PaperConfig returns the full-size Table 3 configuration (slow: one run
// needs hundreds of millions of simulated references to exercise the
// full-size working sets).
func PaperConfig() Config {
	c := LabConfig()
	c.Scale = 1
	c.EpochCycles = 16_000_000
	return c
}

// simConfig converts to the engine configuration.
func (c Config) simConfig() sim.Config {
	return sim.Config{
		EpochCycles:  c.EpochCycles,
		Epochs:       c.Epochs,
		WarmupEpochs: c.WarmupEpochs,
		GapInstr:     8,
		IssueWidth:   4,
		Seed:         c.Seed,
		Faults:       c.Faults,
		Observer:     c.Observer,
	}
}

// instrumented returns the engine configuration plus the telemetry log the
// run will fill (nil when Config.Telemetry is off). Each run gets its own
// log, so batches stay deterministic at any worker count.
func (c Config) instrumented() (sim.Config, *telemetry.Log) {
	sc := c.simConfig()
	if !c.Telemetry {
		return sc, nil
	}
	tl := telemetry.NewLog()
	sc.Recorder = tl
	return sc, tl
}

// Params returns the hierarchy parameters implied by the configuration.
func (c Config) Params() hierarchy.Params {
	if c.Scale <= 1 {
		return hierarchy.Default(c.Cores)
	}
	return hierarchy.ScaledDefault(c.Cores, c.Scale)
}

// genConfig returns the matching workload generator configuration.
func (c Config) genConfig() workload.GenConfig {
	if c.Scale <= 1 {
		return workload.DefaultGenConfig()
	}
	return workload.ScaledGenConfig(c.Scale)
}

// Workload names a workload: a Table 5 multiprogrammed mix or a PARSEC
// application run with one thread per core.
type Workload struct {
	name string
	mix  bool
}

// Mix selects a Table 5 multiprogrammed mix ("MIX 01" .. "MIX 12").
func Mix(name string) Workload { return Workload{name: name, mix: true} }

// Parsec selects a PARSEC benchmark (e.g. "dedup") with Cores threads.
func Parsec(name string) Workload { return Workload{name: name} }

// String returns the workload name.
func (w Workload) String() string { return w.name }

// Generators instantiates the per-core reference generators.
func (w Workload) Generators(c Config) ([]*workload.Generator, error) {
	g := c.genConfig()
	if w.mix {
		mix, err := workload.MixByName(w.name)
		if err != nil {
			return nil, err
		}
		if len(mix.Benchmarks) != c.Cores {
			if c.Cores > len(mix.Benchmarks) {
				return nil, fmt.Errorf("morphcache: mix %q has %d applications, config has %d cores", w.name, len(mix.Benchmarks), c.Cores)
			}
			mix.Benchmarks = mix.Benchmarks[:c.Cores]
		}
		return workload.MixGenerators(mix, g, c.Seed), nil
	}
	p, err := workload.ByName(w.name)
	if err != nil {
		return nil, err
	}
	if p.Suite != workload.PARSEC {
		return nil, fmt.Errorf("morphcache: %q is a SPEC benchmark; use Mix(...) for multiprogrammed workloads", w.name)
	}
	return workload.ParsecGenerators(p, c.Cores, g, c.Seed), nil
}

// Result is the outcome of one run.
type Result struct {
	// Policy labels the management scheme.
	Policy string
	// Throughput is the whole-run sum of per-core IPC (the paper's
	// throughput metric).
	Throughput float64
	// PerCoreIPC is the whole-run IPC per core.
	PerCoreIPC []float64
	// EpochThroughputs is the per-epoch series (Fig. 2(a) style).
	EpochThroughputs []float64
	// EpochTopologies records the configuration in force each epoch.
	EpochTopologies []string
	// Reconfigurations counts merge/split operations over the measured
	// epochs; AsymmetricSteps counts intervals whose reconfiguration left
	// an asymmetric configuration (§2.4).
	Reconfigurations, AsymmetricSteps int
	// Telemetry is the run's epoch log (nil unless Config.Telemetry was
	// set; see DESIGN.md §8 for the schema). For sampled runs it holds the
	// simulated representative windows only (absolute epoch indices, window
	// warmup records flagged).
	Telemetry *telemetry.Log
	// SampledReport describes the phase clustering and metric
	// reconstruction of a sampled run (nil for full runs).
	SampledReport *SampledReport
	// BanditReport describes a bandit run's arm schedule and statistics
	// (nil for non-bandit runs).
	BanditReport *BanditReport
}

func fromRun(r *metrics.Run) *Result {
	res := &Result{
		Policy:           r.Policy,
		Throughput:       r.Throughput(),
		PerCoreIPC:       r.PerCoreIPC,
		EpochThroughputs: r.EpochThroughputs(),
		Reconfigurations: r.Reconfigurations,
		AsymmetricSteps:  r.AsymmetricSteps,
	}
	for _, e := range r.Epochs {
		res.EpochTopologies = append(res.EpochTopologies, e.Topology)
	}
	return res
}

// RunStatic runs the workload on a fixed (x:y:z) topology with the paper's
// idealized static latencies.
func RunStatic(c Config, spec string, w Workload) (*Result, error) {
	if !zoo.Static(spec) {
		return nil, fmt.Errorf("morphcache: RunStatic needs an (x:y:z) topology, got %q", spec)
	}
	return c.runEntry("RunStatic", spec, w)
}

// RunMorphCache runs the workload under the MorphCache controller
// (starting all-private, remote-hit charging on).
func RunMorphCache(c Config, w Workload) (*Result, error) {
	return c.runEntry("RunMorphCache", "morph", w)
}

// RunMorphCacheWithController is RunMorphCache plus the controller for
// post-run inspection (merge/split counts, throttled MSAT bounds). It
// rejects sampled configurations: a sampled run builds a fresh controller
// per representative window, so there is no single controller to return —
// use RunMorphCache and inspect Result.SampledReport instead.
func RunMorphCacheWithController(c Config, w Workload) (*Result, *core.Controller, error) {
	if c.Sampled != nil {
		return nil, nil, fmt.Errorf("morphcache: RunMorphCacheWithController does not support sampled runs (one controller per representative window); use RunMorphCache")
	}
	res, target, err := c.run("RunMorphCacheWithController", "morph", w)
	if err != nil {
		return nil, nil, err
	}
	return res, target.(*sim.HierarchyTarget).Policy.(*core.Controller), nil
}

// RunMorphCacheNoDegrade runs the MorphCache controller with its
// graceful-degradation reactions switched off — the strawman for fault
// experiments: the controller trusts corrupted monitors and merges across
// dead bus links as if the machine were healthy. On a fault-free
// configuration it behaves identically to RunMorphCache.
func RunMorphCacheNoDegrade(c Config, w Workload) (*Result, error) {
	return c.runEntry("RunMorphCacheNoDegrade", "morph-nodegrade", w)
}

// RunPIPP runs the workload under the PIPP baseline (shared L2 and L3,
// promotion/insertion pseudo-partitioning).
func RunPIPP(c Config, w Workload) (*Result, error) {
	return c.runEntry("RunPIPP", "pipp", w)
}

// RunDSR runs the workload under the DSR baseline (private slices with
// dynamic spill-receive at both levels).
func RunDSR(c Config, w Workload) (*Result, error) {
	return c.runEntry("RunDSR", "dsr", w)
}

// runEntry is run for the entry points that return no target.
func (c Config) runEntry(entry, policy string, w Workload) (*Result, error) {
	res, _, err := c.run(entry, policy, w)
	return res, err
}

// run is the facade's one run path: every entry point and RunSpec lands
// here. It validates the configuration, chooses the run mode — the bandit
// meta-policy, sampled windows, or one full run — builds every target
// through the policy zoo, drives the engine, and converts the outcome.
// policy is a zoo name or "bandit"; entry names the caller in errors. A
// full run also returns its target for post-run inspection (nil for the
// windowed modes, which build one target per window).
func (c Config) run(entry, policy string, w Workload) (*Result, sim.Target, error) {
	if err := c.Validate(); err != nil {
		return nil, nil, err
	}
	switch {
	case policy == "bandit":
		res, err := c.runBandit(w)
		return res, nil, err
	case c.Bandit != nil:
		// A Config.Bandit that would be silently ignored is a configuration
		// error, not a no-op.
		return nil, nil, fmt.Errorf("morphcache: %s ignores Bandit configs; use RunBandit (or Policy %q)", entry, "bandit")
	case c.Sampled != nil:
		res, err := c.runSampled(w, policy)
		return res, nil, err
	}
	target, err := c.target(policy)
	if err != nil {
		return nil, nil, err
	}
	srcs, err := c.sources(w)
	if err != nil {
		return nil, nil, err
	}
	sc, tl := c.instrumented()
	eng, err := sim.NewFromSources(sc, target, srcs)
	if err != nil {
		return nil, nil, err
	}
	res := fromRun(eng.Run())
	res.Telemetry = tl
	return res, target, nil
}

// target builds a fresh target for a zoo policy name on the configured
// machine.
func (c Config) target(policy string) (sim.Target, error) {
	return zoo.Target(c.Params(), c.Morph, policy)
}

// sources builds fresh reference sources for the workload.
func (c Config) sources(w Workload) ([]sim.Source, error) {
	gens, err := w.Generators(c)
	if err != nil {
		return nil, err
	}
	return sim.FromGenerators(gens), nil
}

// RunSpec names one independent simulation job for RunBatch: a workload
// under a policy, optionally with its own configuration.
type RunSpec struct {
	// Policy selects the management scheme: any name of the policy zoo
	// (internal/zoo) — a static "(x:y:z)" spec, "morph", "morph-nodegrade"
	// (MorphCache with graceful degradation off — the fault-experiment
	// strawman), the other "morph-*" variants, "pipp", "dsr" — or "bandit"
	// (the meta-policy over Config.Bandit's arm zoo).
	Policy string
	// Workload is the mix or PARSEC application to run.
	Workload Workload
	// Morph, when non-nil, overrides the controller options for the job's
	// MorphCache controllers (QoS, conflict policy, §5.5 extensions, ...).
	Morph *core.Options
	// Config, when non-nil, overrides the batch configuration for this job
	// (sensitivity sweeps vary seeds, epoch lengths, and scales per job).
	Config *Config
}

// Label renders the spec for progress reporting.
func (s RunSpec) Label() string {
	l := s.Policy + " " + s.Workload.String()
	if s.Morph != nil {
		l += " (opts)"
	}
	if s.Config != nil {
		l += fmt.Sprintf(" (seed %d, %d epochs)", s.Config.Seed, s.Config.Epochs)
	}
	return l
}

// run executes one spec. A non-nil observer overrides the configuration's
// (RunBatch mints one per job, so each run lands on its own trace track
// and job row).
func (s RunSpec) run(cfg Config, o *obs.Observer) (*Result, error) {
	c := cfg
	if s.Config != nil {
		c = *s.Config
	}
	if o != nil {
		c.Observer = o
	}
	if s.Morph != nil {
		c.Morph = *s.Morph
	}
	return c.runEntry(fmt.Sprintf("Policy %q", s.Policy), s.Policy, s.Workload)
}

// JobEvent reports one completed batch job to a BatchOptions.Progress
// callback. Events arrive serially, in completion order.
type JobEvent struct {
	// Index is the job's position in the submitted spec slice.
	Index int
	// Label describes the job (policy + workload).
	Label string
	// Elapsed is the job's wall-clock duration.
	Elapsed time.Duration
	// Err is the job's error, if any.
	Err error
	// Done jobs out of Total have completed, this one included.
	Done, Total int
}

// BatchOptions configures RunBatch.
type BatchOptions struct {
	// Workers is the worker-pool size; <= 0 uses GOMAXPROCS, 1 restores
	// strictly sequential execution.
	Workers int
	// Started, when non-nil, receives one JobEvent as each job begins
	// (Elapsed zero, Err nil). Started and Progress callbacks are delivered
	// serially under one lock and never interleave.
	Started func(JobEvent)
	// Progress, when non-nil, receives one JobEvent per completed job.
	Progress func(JobEvent)
	// Observe, when non-nil, mints the observer for each job before it is
	// submitted (obs.Hub.Observer is the intended implementation; nil
	// returns are fine and leave that job unobserved). RunBatch marks the
	// observer's job lifecycle (JobStarted/JobFinished) around the run, so
	// live /jobs views and trace job spans need no further wiring.
	Observe func(index int, label string) *obs.Observer
	// Context, when non-nil, cancels the batch: dispatch stops, in-flight
	// jobs are abandoned, and RunBatch returns the partial results with a
	// descriptive error (errors.Is(err, context.Canceled) holds). Nil means
	// run to completion.
	Context context.Context
	// JobTimeout, when positive, bounds each job's wall-clock time; a job
	// exceeding it fails the batch with a timeout error.
	JobTimeout time.Duration
}

// RunBatch executes the specs concurrently across a worker pool and returns
// their results in submission order. Every job builds its own hierarchy and
// generators from its spec — jobs share nothing mutable — and all
// randomness derives from each job's seed via rng.Derive, so results are
// identical at every worker count (DESIGN.md §6) and identical to calling
// the corresponding Run* functions in a loop.
func RunBatch(cfg Config, specs []RunSpec, opts BatchOptions) ([]*Result, error) {
	jobs := make([]runner.Job[*Result], len(specs))
	observers := make([]*obs.Observer, len(specs))
	for i := range specs {
		i, s := i, specs[i]
		label := s.Label()
		if opts.Observe != nil {
			observers[i] = opts.Observe(i, label)
		}
		jobs[i] = runner.Job[*Result]{
			Label: label,
			Run:   func() (*Result, error) { return s.run(cfg, observers[i]) },
		}
	}
	toJobEvent := func(ev runner.Event) JobEvent {
		return JobEvent{
			Index:   ev.Index,
			Label:   ev.Label,
			Elapsed: ev.Elapsed,
			Err:     ev.Err,
			Done:    ev.Done,
			Total:   ev.Total,
		}
	}
	var started func(runner.Event)
	if opts.Started != nil || opts.Observe != nil {
		started = func(ev runner.Event) {
			observers[ev.Index].JobStarted()
			if opts.Started != nil {
				opts.Started(toJobEvent(ev))
			}
		}
	}
	var progress func(runner.Event)
	if opts.Progress != nil || opts.Observe != nil {
		progress = func(ev runner.Event) {
			observers[ev.Index].JobFinished(ev.Err, ev.Elapsed)
			if opts.Progress != nil {
				opts.Progress(toJobEvent(ev))
			}
		}
	}
	return runner.Run(opts.Context, jobs, runner.Options{
		Workers:    opts.Workers,
		Started:    started,
		Progress:   progress,
		JobTimeout: opts.JobTimeout,
	})
}

// StandardStatics lists the paper's static comparison topologies for the
// configured core count.
func StandardStatics(c Config) []string {
	if c.Cores == 16 {
		return topology.StandardSpecs()
	}
	n := c.Cores
	return []string{
		fmt.Sprintf("(%d:1:1)", n),
		fmt.Sprintf("(1:1:%d)", n),
		fmt.Sprintf("(4:%d:1)", n/4),
		fmt.Sprintf("(1:%d:1)", n),
	}
}

// IdealOffline composes the per-epoch upper envelope over a set of static
// results (the paper's ideal offline scheme, Fig. 15). It returns the
// per-epoch best throughput, which configuration achieved it, and the mean.
func IdealOffline(results []*Result) (series []float64, choice []string, mean float64, err error) {
	runs := make([]*metrics.Run, len(results))
	for i, r := range results {
		run := &metrics.Run{Policy: r.Policy}
		for e, t := range r.EpochThroughputs {
			// Reconstruct a one-core epoch carrying the throughput.
			run.Epochs = append(run.Epochs, metrics.Epoch{Index: e, PerCoreIPC: []float64{t}})
		}
		runs[i] = run
	}
	series, choice, err = offline.Ideal(runs)
	if err != nil {
		return nil, nil, 0, err
	}
	return series, choice, offline.Throughput(series), nil
}

// WeightedSpeedup computes Σ IPC_i/IPCalone_i for a result against
// per-benchmark alone-IPC references.
func WeightedSpeedup(r *Result, alone []float64) float64 {
	return metrics.WeightedSpeedup(r.PerCoreIPC, alone)
}

// FairSpeedup computes the harmonic mean of per-application speedups.
func FairSpeedup(r *Result, alone []float64) float64 {
	return metrics.FairSpeedup(r.PerCoreIPC, alone)
}

// SoloIPCs measures each application of a mix running alone on a
// single-core private hierarchy — the IPCalone references for WS/FS.
func SoloIPCs(c Config, w Workload) ([]float64, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if !w.mix {
		return nil, fmt.Errorf("morphcache: SoloIPCs needs a multiprogrammed mix")
	}
	mix, err := workload.MixByName(w.name)
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(mix.Benchmarks))
	for i, b := range mix.Benchmarks {
		ipc, err := sim.SoloIPC(c.simConfig(), c.Params(), b, c.genConfig())
		if err != nil {
			return nil, err
		}
		out[i] = ipc
	}
	return out, nil
}
