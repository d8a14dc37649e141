// Package sim is the epoch-based simulation engine: it interleaves the
// per-core reference streams in virtual time over a cache system, runs the
// system's reconfiguration/partitioning hook at every epoch boundary, and
// produces the metrics the experiments report.
//
// Time model: each core is an instruction stream punctuated by memory
// references. Between references a core retires GapInstr instructions at
// IssueWidth IPC; each reference then stalls the core for the hierarchy's
// access latency. Cores advance in virtual-time order (always the core with
// the smallest clock issues next), which interleaves the streams the way a
// shared cache would see them. An epoch is a fixed window of cycles — the
// scaled-down analogue of the paper's 300-million-cycle reconfiguration
// interval (§4).
package sim

import (
	"fmt"

	"morphcache/internal/core"
	"morphcache/internal/fault"
	"morphcache/internal/hierarchy"
	"morphcache/internal/mem"
	"morphcache/internal/metrics"
	"morphcache/internal/obs"
	"morphcache/internal/telemetry"
	"morphcache/internal/topology"
	"morphcache/internal/workload"
)

// Source is one core's reference stream: the synthetic workload models
// (workload.Generator) and trace replay cursors (trace.Cursor) both
// satisfy it.
type Source interface {
	// ASID is the address space the stream belongs to.
	ASID() mem.ASID
	// BeginEpoch positions the stream at the start of epoch e.
	BeginEpoch(e int)
	// Next produces the stream's next reference.
	Next() mem.Access
}

// FromGenerators adapts workload generators to Sources.
func FromGenerators(gens []*workload.Generator) []Source {
	out := make([]Source, len(gens))
	for i, g := range gens {
		out[i] = g
	}
	return out
}

// Target is a simulated cache system under some management policy: the
// MorphCache-controlled hierarchy, a static hierarchy, or the PIPP/DSR
// baselines.
type Target interface {
	// Name labels the policy in reports.
	Name() string
	// Cores returns the core count.
	Cores() int
	// SetCoreASID tells the system which address space runs on a core.
	SetCoreASID(core int, asid mem.ASID)
	// Access simulates one reference at CPU cycle now.
	Access(core int, a mem.Access, now uint64) hierarchy.AccessResult
	// EndEpoch runs the policy's per-interval work (reconfiguration,
	// repartitioning, monitor reset) after epoch e. It returns the number
	// of reconfiguration operations and whether the resulting configuration
	// is asymmetric (§2.4 statistics; zero/false for non-topology policies).
	EndEpoch(e int) (reconfigs int, asymmetric bool)
	// Spec describes the current configuration (e.g. "(4:4:1)").
	Spec() string
}

// Policy decides reconfigurations for a hierarchy-backed target. Static
// topologies use NopPolicy; the MorphCache controller implements this. It
// is the shared core.Policy interface, which the serve-mode cache
// (internal/serve) drives too — the simulator passes a *hierarchy.System
// as the core.Machine.
type Policy = core.Policy

// NopPolicy is the no-op policy of a fixed topology.
type NopPolicy struct{ Label string }

// Name returns the label.
func (p NopPolicy) Name() string { return p.Label }

// EndEpoch does nothing.
func (p NopPolicy) EndEpoch(int, core.Machine) (int, bool) { return 0, false }

// HierarchyTarget adapts a hierarchy.System plus a Policy to the Target
// interface.
type HierarchyTarget struct {
	Sys    *hierarchy.System
	Policy Policy
}

// Name implements Target.
func (t *HierarchyTarget) Name() string { return t.Policy.Name() }

// Cores implements Target.
func (t *HierarchyTarget) Cores() int { return t.Sys.Cores() }

// SetCoreASID implements Target.
func (t *HierarchyTarget) SetCoreASID(core int, asid mem.ASID) { t.Sys.SetCoreASID(core, asid) }

// Access implements Target.
func (t *HierarchyTarget) Access(core int, a mem.Access, now uint64) hierarchy.AccessResult {
	return t.Sys.Access(core, a, now)
}

// EndEpoch implements Target: policy first (it reads the interval's ACFVs
// and miss counters), then the per-interval resets (§2.1).
func (t *HierarchyTarget) EndEpoch(e int) (int, bool) {
	r, asym := t.Policy.EndEpoch(e, t.Sys)
	t.Sys.ResetFootprints()
	t.Sys.ResetEpochCounters()
	return r, asym
}

// Spec implements Target.
func (t *HierarchyTarget) Spec() string { return t.Sys.Topology().Spec() }

// ApplyFault implements FaultInjectable by delegating to the hierarchy.
func (t *HierarchyTarget) ApplyFault(ev fault.Event) error { return t.Sys.ApplyFault(ev) }

// AgeFaults implements FaultInjectable.
func (t *HierarchyTarget) AgeFaults() { t.Sys.AgeFaults() }

// TelemetrySnapshot implements telemetry.Snapshotter by delegating to the
// hierarchy's counters.
func (t *HierarchyTarget) TelemetrySnapshot() telemetry.Snapshot {
	return t.Sys.TelemetrySnapshot()
}

// SetRecorder implements telemetry.RecorderSettable: the recorder is
// forwarded to the policy (the MorphCache controller emits its
// reconfiguration decisions through it; other policies ignore it).
func (t *HierarchyTarget) SetRecorder(r telemetry.Recorder) {
	if rs, ok := t.Policy.(telemetry.RecorderSettable); ok {
		rs.SetRecorder(r)
	}
}

// ObserverSettable is implemented by targets (and policies) that accept an
// observability hook set. A nil observer is always valid and must restore
// the unobserved behavior.
type ObserverSettable interface {
	SetObserver(*obs.Observer)
}

// SetObserver implements ObserverSettable: the hierarchy gets the access
// hook and the policy (when it supports it — the MorphCache controller
// does) gets the decision counters.
func (t *HierarchyTarget) SetObserver(o *obs.Observer) {
	t.Sys.SetObserver(o)
	if os, ok := t.Policy.(ObserverSettable); ok {
		os.SetObserver(o)
	}
}

// Config parameterizes a run.
type Config struct {
	// EpochCycles is the reconfiguration interval in CPU cycles.
	EpochCycles uint64
	// Epochs is the number of measured intervals; WarmupEpochs run first
	// and are excluded from metrics (the paper measures a region of
	// interest in a warmed-up cache, §1.2).
	Epochs, WarmupEpochs int
	// StartEpoch is the absolute index of the first epoch the engine runs
	// (warmup included). The default 0 is the ordinary full run. A positive
	// value resumes the workload mid-run: sources are positioned with
	// BeginEpoch(StartEpoch+i), clocks start at StartEpoch*EpochCycles, and
	// telemetry records carry the absolute epoch index — this is how sampled
	// simulation (internal/sampled) replays one representative window
	// without simulating the epochs before it. Generators reseed per epoch
	// from (seed, asid, thread, epoch), so a resumed window sees exactly the
	// reference stream of the full run's same epochs.
	StartEpoch int
	// GapInstr instructions retire between consecutive memory references,
	// at IssueWidth IPC (4-way issue superscalar, Table 3), so each
	// reference charges GapInstr/IssueWidth cycles of compute on top of the
	// access latency. The quotient need not be an integer: the engine
	// accumulates the fractional part per core and charges a whole cycle
	// whenever the carry reaches one, so over a run the average gap charge
	// equals GapInstr/IssueWidth exactly (e.g. GapInstr=10, IssueWidth=4
	// alternates 2- and 3-cycle gaps, averaging 2.5 — not the 2 that plain
	// integer truncation used to charge, which skewed any sensitivity sweep
	// varying issue width). IssueWidth must be positive.
	GapInstr   int
	IssueWidth float64
	// Seed drives all workload randomness.
	Seed uint64
	// Recorder, when non-nil, receives per-epoch telemetry records (warmup
	// epochs included, flagged) and — for targets/policies that support it —
	// reconfiguration events. Nil (the default) records nothing and adds no
	// work to the run. The engine calls the recorder from its own goroutine
	// only, so one recorder per run needs no synchronization.
	Recorder telemetry.Recorder
	// Observer, when non-nil, receives the run's observability stream: one
	// ObserveAccess per reference, reconfiguration decision counts, epoch
	// counts, and — when its tracer is on — phase spans. Requires a target
	// implementing ObserverSettable for the access/decision hooks; the
	// engine-level hooks (spans, epoch counts, latency summaries) work with
	// any target. Nil (the default) observes nothing: the run is
	// byte-identical to a build without the obs package.
	Observer *obs.Observer
	// Faults, when non-nil and non-empty, is the deterministic fault plan:
	// each event is injected into the target at the start of its epoch
	// (absolute index, warmup included). The target must implement
	// FaultInjectable. Nil injects nothing and leaves the run byte-identical
	// to a build without fault support.
	Faults *fault.Plan
}

// FaultInjectable is implemented by targets that can absorb fault events
// and age transient ones at epoch boundaries (the hierarchy-backed
// targets; the PIPP/DSR baselines do not).
type FaultInjectable interface {
	ApplyFault(fault.Event) error
	AgeFaults()
}

// DefaultConfig returns the scaled experiment defaults: 20 measured epochs
// of one million cycles after two warmup epochs.
func DefaultConfig() Config {
	return Config{
		EpochCycles:  1_000_000,
		Epochs:       20,
		WarmupEpochs: 2,
		GapInstr:     8,
		IssueWidth:   4,
		Seed:         1,
	}
}

// Engine drives one simulation.
type Engine struct {
	cfg      Config
	target   Target
	gens     []Source
	clock    []uint64  // per-core cycle counters (persist across epochs)
	gapCarry []float64 // per-core fractional gap cycles not yet charged
	inj      FaultInjectable
}

// New builds an engine over a target. There must be exactly one generator
// per core.
func New(cfg Config, target Target, gens []*workload.Generator) (*Engine, error) {
	return NewFromSources(cfg, target, FromGenerators(gens))
}

// NewFromSources builds an engine over arbitrary reference sources (e.g.
// trace replay cursors).
func NewFromSources(cfg Config, target Target, srcs []Source) (*Engine, error) {
	if len(srcs) != target.Cores() {
		return nil, fmt.Errorf("sim: %d sources for %d cores", len(srcs), target.Cores())
	}
	if cfg.EpochCycles == 0 || cfg.Epochs <= 0 {
		return nil, fmt.Errorf("sim: bad config %+v", cfg)
	}
	if cfg.IssueWidth <= 0 || cfg.GapInstr < 0 {
		return nil, fmt.Errorf("sim: bad gap model (GapInstr=%d, IssueWidth=%v)", cfg.GapInstr, cfg.IssueWidth)
	}
	if cfg.StartEpoch < 0 {
		return nil, fmt.Errorf("sim: StartEpoch must be >= 0, got %d", cfg.StartEpoch)
	}
	var inj FaultInjectable
	if !cfg.Faults.Empty() {
		if err := cfg.Faults.Validate(target.Cores()); err != nil {
			return nil, err
		}
		var ok bool
		if inj, ok = target.(FaultInjectable); !ok {
			return nil, fmt.Errorf("sim: fault plan given but target %q does not support fault injection", target.Name())
		}
	}
	return &Engine{
		cfg:      cfg,
		target:   target,
		gens:     srcs,
		clock:    make([]uint64, target.Cores()),
		gapCarry: make([]float64, target.Cores()),
		inj:      inj,
	}, nil
}

// Run executes warmup plus measured epochs and returns the metrics.
func (e *Engine) Run() *metrics.Run {
	run := &metrics.Run{Policy: e.target.Name()}
	n := e.target.Cores()
	totalInstr := make([]uint64, n)
	gap := float64(e.cfg.GapInstr) / e.cfg.IssueWidth
	gapWhole := uint64(gap)
	gapFrac := gap - float64(gapWhole)

	// Telemetry: inject the recorder into the target (so the policy can
	// emit reconfiguration events) and baseline the cumulative counters.
	var prevSnap telemetry.Snapshot
	snapper, _ := e.target.(telemetry.Snapshotter)
	if e.cfg.Recorder != nil {
		if rs, ok := e.target.(telemetry.RecorderSettable); ok {
			rs.SetRecorder(e.cfg.Recorder)
		}
		if snapper != nil {
			prevSnap = snapper.TelemetrySnapshot()
		}
	}

	// Observability: hand the observer to the target (access hook, decision
	// counters) and start per-run latency collection when telemetry will
	// consume it. A telemetry run without a configured observer gets a bare
	// one (latency summaries only, no hub, no tracer), so epoch records
	// carry latency quantiles whenever they are recorded at all. All hooks
	// below are nil-safe, so the unobserved run takes the exact same path it
	// always did.
	o := e.cfg.Observer
	var prevLat [obs.NumServed]obs.HistSnapshot
	if o == nil && e.cfg.Recorder != nil {
		o = &obs.Observer{}
	}
	if o != nil {
		if os, ok := e.target.(ObserverSettable); ok {
			os.SetObserver(o)
		}
		if e.cfg.Recorder != nil && o.Access == nil {
			o.Access = obs.NewAccessStats()
		}
	}

	// Epoch indices: off counts epochs the engine actually runs; ep is the
	// absolute epoch index of the workload (off + StartEpoch). Warmup/measured
	// status follows off (the engine's own warmup prefix); sources, clocks,
	// fault schedules, and telemetry follow ep (the workload's timeline).
	// With StartEpoch == 0 the two coincide and this loop is exactly the
	// classic full run.
	totalEpochs := e.cfg.WarmupEpochs + e.cfg.Epochs
	sched := newLaggards(e.clock)
	for off := 0; off < totalEpochs; off++ {
		ep := e.cfg.StartEpoch + off
		epochSpan := o.Span("sim", "epoch").Arg("epoch", ep).Arg("warmup", off < e.cfg.WarmupEpochs)
		epochStart := uint64(ep) * e.cfg.EpochCycles
		epochEnd := epochStart + e.cfg.EpochCycles
		instr := make([]uint64, n)
		for c := 0; c < n; c++ {
			e.gens[c].BeginEpoch(ep)
			e.target.SetCoreASID(c, e.gens[c].ASID())
			if e.clock[c] < epochStart {
				e.clock[c] = epochStart
			}
		}
		if e.inj != nil {
			e.inj.AgeFaults()
			for _, ev := range e.cfg.Faults.At(ep) {
				faultSpan := o.Span("sim", "fault").Arg("event", ev.String())
				if err := e.inj.ApplyFault(ev); err != nil {
					// The plan was validated against this target in
					// NewFromSources; a failure here is a bookkeeping bug.
					panic("sim: validated fault event failed to apply: " + err.Error())
				}
				faultSpan.End()
			}
		}
		spec := e.target.Spec()
		sched.reset(epochEnd)
		for {
			// Advance the laggard core still inside the epoch.
			core := sched.next()
			if core < 0 {
				break
			}
			a := e.gens[core].Next()
			res := e.target.Access(core, a, e.clock[core])
			charge := gapWhole
			if gapFrac > 0 {
				e.gapCarry[core] += gapFrac
				if e.gapCarry[core] >= 1 {
					whole := uint64(e.gapCarry[core])
					charge += whole
					e.gapCarry[core] -= float64(whole)
				}
			}
			if charge == 0 && res.Latency <= 0 {
				charge = 1 // guarantee forward progress in virtual time
			}
			e.clock[core] += charge + uint64(res.Latency)
			instr[core] += uint64(e.cfg.GapInstr)
			sched.update(core)
		}

		measured := off >= e.cfg.WarmupEpochs
		if measured {
			ipc := make([]float64, n)
			for c := 0; c < n; c++ {
				ipc[c] = float64(instr[c]) / float64(e.cfg.EpochCycles)
				totalInstr[c] += instr[c]
			}
			run.Epochs = append(run.Epochs, metrics.Epoch{
				Index:      off - e.cfg.WarmupEpochs,
				PerCoreIPC: ipc,
				Topology:   spec,
			})
		}

		// Emit the epoch's telemetry record before EndEpoch: the snapshot
		// reads the interval's ACFV footprints, which EndEpoch resets, and
		// reconfiguration events the policy emits during EndEpoch must
		// follow the record of the epoch they were decided in.
		if e.cfg.Recorder != nil {
			sampleSpan := o.Span("sim", "acfv-sample").Arg("epoch", ep)
			rec := e.epochRecord(ep, !measured, spec, instr, snapper, &prevSnap)
			if o != nil && o.Access != nil {
				rec.Latency = latencySummary(o.Access.Snapshot(), &prevLat)
			}
			sampleSpan.End()
			e.cfg.Recorder.RecordEpoch(rec)
		}

		reconfSpan := o.Span("sim", "reconfigure").Arg("epoch", ep).Arg("topology", spec)
		reconf, asym := e.target.EndEpoch(ep)
		reconfSpan.Arg("reconfigs", reconf).End()
		o.CountEpoch()
		epochSpan.End()
		if measured {
			run.Reconfigurations += reconf
			if reconf > 0 && asym {
				run.AsymmetricSteps++
			}
		}
	}

	measuredCycles := float64(uint64(e.cfg.Epochs) * e.cfg.EpochCycles)
	run.PerCoreIPC = make([]float64, n)
	for c := 0; c < n; c++ {
		run.PerCoreIPC[c] = float64(totalInstr[c]) / measuredCycles
	}
	return run
}

// epochRecord assembles one epoch's telemetry record, diffing the target's
// cumulative counters against prev (updated in place). Targets without
// snapshot support (the PIPP/DSR baselines) yield IPC-and-instruction-only
// records.
func (e *Engine) epochRecord(ep int, warmup bool, spec string, instr []uint64, snapper telemetry.Snapshotter, prev *telemetry.Snapshot) telemetry.EpochRecord {
	n := e.target.Cores()
	rec := telemetry.EpochRecord{
		Epoch:    ep,
		Warmup:   warmup,
		Topology: spec,
		Cores:    make([]telemetry.CoreEpoch, n),
	}
	for c := 0; c < n; c++ {
		rec.Cores[c] = telemetry.CoreEpoch{
			Core:         c,
			IPC:          float64(instr[c]) / float64(e.cfg.EpochCycles),
			Instructions: instr[c],
		}
	}
	if snapper == nil {
		return rec
	}
	snap := snapper.TelemetrySnapshot()
	bus := snap.Bus.Delta(prev.Bus)
	rec.Bus = &bus
	rec.Faults = snap.Faults
	for c := 0; c < n && c < len(snap.Cores); c++ {
		cur, was := snap.Cores[c], telemetry.CoreCounters{}
		if c < len(prev.Cores) {
			was = prev.Cores[c]
		}
		ce := &rec.Cores[c]
		ce.Accesses = cur.Accesses - was.Accesses
		ce.L1Hits = cur.L1Hits - was.L1Hits
		ce.L2Hits = cur.L2Hits - was.L2Hits
		ce.L3Hits = cur.L3Hits - was.L3Hits
		ce.C2C = cur.C2C - was.C2C
		ce.MemReads = cur.MemReads - was.MemReads
		// MPKI counts last-level (L3 group) misses: references served by
		// another group's cache or by memory. Guard the zero-instruction
		// case (an idle epoch) — JSON cannot carry NaN.
		if ce.Instructions > 0 {
			ce.MPKI = float64(ce.C2C+ce.MemReads) * 1000 / float64(ce.Instructions)
		}
		if ce.Accesses > 0 {
			ce.AvgLatency = float64(cur.LatencySum-was.LatencySum) / float64(ce.Accesses)
		}
		if c < len(snap.L2Util) {
			ce.L2Util = snap.L2Util[c]
		}
		if c < len(snap.L3Util) {
			ce.L3Util = snap.L3Util[c]
		}
	}
	*prev = snap
	return rec
}

// latencySummary converts the per-run latency collector's cumulative
// histograms into one epoch's quantile summary, diffing against prev
// (updated in place). Levels with no accesses this epoch are nil; an epoch
// with no accesses at all (e.g. a target that never feeds the collector,
// like the PIPP/DSR baselines) yields nil, keeping those records unchanged.
func latencySummary(cur [obs.NumServed]obs.HistSnapshot, prev *[obs.NumServed]obs.HistSnapshot) *telemetry.LatencySummary {
	sum := &telemetry.LatencySummary{}
	any := false
	slots := [obs.NumServed]**telemetry.LatencyQuantiles{
		obs.ServedL1:  &sum.L1,
		obs.ServedL2:  &sum.L2,
		obs.ServedL3:  &sum.L3,
		obs.ServedC2C: &sum.C2C,
		obs.ServedMem: &sum.Mem,
	}
	for l := range cur {
		d := cur[l].Sub(prev[l])
		if d.Count > 0 {
			*slots[l] = &telemetry.LatencyQuantiles{
				Count: d.Count,
				P50:   d.Quantile(0.50),
				P95:   d.Quantile(0.95),
				P99:   d.Quantile(0.99),
			}
			any = true
		}
	}
	*prev = cur
	if !any {
		return nil
	}
	return sum
}

// RunWindow resumes the workload at absolute epoch start and runs epochs
// measured epochs there, preceded by up to warmup unmeasured ones: the
// warmup is capped at start, so a window near the beginning of the run
// warms up on the epochs that exist. It is the one window runner behind
// sampled simulation and the bandit meta-policy, which call it with a fresh
// target and fresh sources per window; cfg supplies everything else (epoch
// length, recorder, observer).
func RunWindow(cfg Config, start, warmup, epochs int, target Target, srcs []Source) (*metrics.Run, error) {
	if start < 0 || warmup < 0 {
		return nil, fmt.Errorf("sim: window start %d and warmup %d must be >= 0", start, warmup)
	}
	if warmup > start {
		warmup = start
	}
	cfg.StartEpoch = start - warmup
	cfg.WarmupEpochs = warmup
	cfg.Epochs = epochs
	eng, err := NewFromSources(cfg, target, srcs)
	if err != nil {
		return nil, err
	}
	return eng.Run(), nil
}

// SoloIPC runs one benchmark thread alone on a single-core private
// hierarchy (its fair-share slice, as the QoS discussion of §5.3 frames
// it) and returns its whole-run IPC — the IPCalone reference for WS/FS.
func SoloIPC(cfg Config, p hierarchy.Params, prof *workload.Profile, gcfg workload.GenConfig) (float64, error) {
	p.Cores = 1
	// IPCalone is the healthy fair-share reference even on a faulty
	// machine (and the plan targets the full core count anyway).
	cfg.Faults = nil
	sys, err := hierarchy.New(p, topology.AllPrivate(1))
	if err != nil {
		return 0, err
	}
	gen := workload.NewGenerator(prof, gcfg, mem.ASID(1), 0, cfg.Seed)
	eng, err := New(cfg, &HierarchyTarget{Sys: sys, Policy: NopPolicy{Label: "solo"}}, []*workload.Generator{gen})
	if err != nil {
		return 0, err
	}
	run := eng.Run()
	return run.PerCoreIPC[0], nil
}
