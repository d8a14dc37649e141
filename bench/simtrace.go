package main

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	mc "morphcache"
	"morphcache/internal/baselines/bandit"
	"morphcache/internal/core"
	"morphcache/internal/hierarchy"
	"morphcache/internal/mem"
	"morphcache/internal/obs"
	"morphcache/internal/runner"
	"morphcache/internal/sampled"
	"morphcache/internal/sim"
	"morphcache/internal/telemetry"
	"morphcache/internal/topology"
)

// sampleMask times one call in 16 of the sub-microsecond hot-path calls
// (Source.Next, Target.Access) and counts all of them: timing every call
// costs +40–60% of the job and would measure the clock, not the layer.
const sampleMask = 15

// hotStat is a sampled call counter: n calls, of which timed were timed,
// taking timedNs in total.
type hotStat struct {
	n, timed, timedNs int64
}

// tick counts one call and reports whether to time it.
func (h *hotStat) tick() bool {
	h.n++
	return h.n&sampleMask == 0
}

func (h *hotStat) record(d time.Duration) {
	h.timed++
	h.timedNs += int64(d)
}

// add folds another counter in.
func (h *hotStat) add(o hotStat) {
	h.n += o.n
	h.timed += o.timed
	h.timedNs += o.timedNs
}

// perCallNs is the mean timed call less the clock's own cost per timing
// (clockNs, from calibrateClock).
func (h hotStat) perCallNs(clockNs float64) float64 {
	if h.timed == 0 {
		return 0
	}
	return math.Max(float64(h.timedNs)/float64(h.timed)-clockNs, 0)
}

// estNs extrapolates the timed sample to all calls.
func (h hotStat) estNs(clockNs float64) float64 {
	return h.perCallNs(clockNs) * float64(h.n)
}

// calibrateClock measures what timing adds to a timed call: the mean
// duration time.Since reports for an empty region, the minimum over
// several batches.
func calibrateClock() float64 {
	const batch = 100_000
	best := math.Inf(1)
	for r := 0; r < 5; r++ {
		var sum time.Duration
		for i := 0; i < batch; i++ {
			s := time.Now()
			sum += time.Since(s)
		}
		best = math.Min(best, float64(sum)/batch)
	}
	return best
}

// policyStats times core.Policy.EndEpoch and the core.Machine calls the
// policy makes from inside it. One goroutine drives a policy at a time
// (the engine's, or the serve epoch driver's), and the stats are read only
// after that goroutine is done.
type policyStats struct {
	calls, reconfigs      int64
	ns                    int64
	signalCalls, signalNs int64
	topoCalls, topoNs     int64
}

func (p *policyStats) add(o policyStats) {
	p.calls += o.calls
	p.reconfigs += o.reconfigs
	p.ns += o.ns
	p.signalCalls += o.signalCalls
	p.signalNs += o.signalNs
	p.topoCalls += o.topoCalls
	p.topoNs += o.topoNs
}

// tracedPolicy interposes on a core.Policy. It forwards the optional
// recorder and observer hooks so the program behind it runs the same
// paths it runs unwrapped (the serve audit ring, for one, hangs off
// SetRecorder).
type tracedPolicy struct {
	inner core.Policy
	st    *policyStats
	spans *spanSink
}

func (p *tracedPolicy) Name() string { return p.inner.Name() }

func (p *tracedPolicy) EndEpoch(e int, m core.Machine) (int, bool) {
	sp := p.spans.begin("core", "policy")
	start := time.Now()
	r, asym := p.inner.EndEpoch(e, tracedMachine{Machine: m, st: p.st, spans: p.spans})
	p.st.ns += int64(time.Since(start))
	p.st.calls++
	p.st.reconfigs += int64(r)
	sp.Arg("reconfigs", r).End()
	return r, asym
}

func (p *tracedPolicy) SetRecorder(r telemetry.Recorder) {
	if rs, ok := p.inner.(telemetry.RecorderSettable); ok {
		rs.SetRecorder(r)
	}
}

func (p *tracedPolicy) SetObserver(o *obs.Observer) {
	if os, ok := p.inner.(sim.ObserverSettable); ok {
		os.SetObserver(o)
	}
}

// tracedMachine times the footprint signals (the acfv layer) and
// SetTopology (reconfiguration) the policy calls.
type tracedMachine struct {
	core.Machine
	st    *policyStats
	spans *spanSink
}

func (m tracedMachine) CoresUtilization(l hierarchy.Level, cores []int) float64 {
	start := time.Now()
	v := m.Machine.CoresUtilization(l, cores)
	m.st.signalNs += int64(time.Since(start))
	m.st.signalCalls++
	return v
}

func (m tracedMachine) CoresOverlap(l hierarchy.Level, a, b []int) float64 {
	start := time.Now()
	v := m.Machine.CoresOverlap(l, a, b)
	m.st.signalNs += int64(time.Since(start))
	m.st.signalCalls++
	return v
}

func (m tracedMachine) SetTopology(t topology.Topology) error {
	sp := m.spans.begin("core", "SetTopology")
	start := time.Now()
	err := m.Machine.SetTopology(t)
	m.st.topoNs += int64(time.Since(start))
	m.st.topoCalls++
	sp.End()
	return err
}

// simLedger is one traced job's per-layer account. Each job owns its
// ledger (jobs share nothing), and the batch merges them afterwards.
type simLedger struct {
	jobs        int
	jobNs       int64
	targets     int
	targetNewNs int64
	sourceNewNs int64
	next        hotStat // Source.Next inside engine runs
	profileRefs int64   // Source.Next outside engine runs (sampled profiling)
	access      hotStat
	served      [5]int64
	epochNs     int64 // Target.EndEpoch
	engineNs    int64 // engine runs (full runs timed directly, windows by span)
	pol         policyStats

	sampledNs, sampledEngineNs, sampledNewNs int64
	sampledWindows, sampledEpochs            int64
	banditNs, banditEngineNs, banditNewNs    int64
	banditWindows, banditSwitches            int64
}

func (l *simLedger) add(o *simLedger) {
	l.jobs += o.jobs
	l.jobNs += o.jobNs
	l.targets += o.targets
	l.targetNewNs += o.targetNewNs
	l.sourceNewNs += o.sourceNewNs
	l.next.add(o.next)
	l.profileRefs += o.profileRefs
	l.access.add(o.access)
	for i := range l.served {
		l.served[i] += o.served[i]
	}
	l.epochNs += o.epochNs
	l.engineNs += o.engineNs
	l.pol.add(o.pol)
	l.sampledNs += o.sampledNs
	l.sampledEngineNs += o.sampledEngineNs
	l.sampledNewNs += o.sampledNewNs
	l.sampledWindows += o.sampledWindows
	l.sampledEpochs += o.sampledEpochs
	l.banditNs += o.banditNs
	l.banditEngineNs += o.banditEngineNs
	l.banditNewNs += o.banditNewNs
	l.banditWindows += o.banditWindows
	l.banditSwitches += o.banditSwitches
}

// tracedSource interposes on sim.Source.
type tracedSource struct {
	sim.Source
	st hotStat
}

func (s *tracedSource) Next() mem.Access {
	if !s.st.tick() {
		return s.Source.Next()
	}
	start := time.Now()
	a := s.Source.Next()
	s.st.record(time.Since(start))
	return a
}

// tracedTarget interposes on sim.Target. It remembers when the engine
// first touched it and when its last epoch boundary ended, which brackets
// the engine run of a sampled or bandit window.
type tracedTarget struct {
	sim.Target
	l            *simLedger
	spans        *spanSink
	first, last  time.Time
	access       hotStat
	served       [5]int64
	epochNs      int64
	touchedFirst bool
}

func (t *tracedTarget) SetCoreASID(c int, asid mem.ASID) {
	if !t.touchedFirst {
		t.first, t.touchedFirst = time.Now(), true
	}
	t.Target.SetCoreASID(c, asid)
}

func (t *tracedTarget) Access(c int, a mem.Access, now uint64) hierarchy.AccessResult {
	var r hierarchy.AccessResult
	if t.access.tick() {
		start := time.Now()
		r = t.Target.Access(c, a, now)
		t.access.record(time.Since(start))
	} else {
		r = t.Target.Access(c, a, now)
	}
	t.served[r.Served]++
	return r
}

func (t *tracedTarget) EndEpoch(e int) (int, bool) {
	sp := t.spans.begin("sim", "epoch-boundary").Arg("epoch", e)
	start := time.Now()
	r, asym := t.Target.EndEpoch(e)
	t.last = time.Now()
	t.epochNs += int64(t.last.Sub(start))
	sp.End()
	return r, asym
}

// span is the engine interval the target saw.
func (t *tracedTarget) span() time.Duration {
	if !t.touchedFirst {
		return 0
	}
	return t.last.Sub(t.first)
}

// flush folds the target's counters into the job ledger.
func (t *tracedTarget) flush() {
	t.l.access.add(t.access)
	for i, n := range t.served {
		t.l.served[i] += n
	}
	t.l.epochNs += t.epochNs
}

// tracedHierTarget is a tracedTarget over a *sim.HierarchyTarget: it also
// forwards the telemetry and observer hooks the engine looks for, so
// sampled windows (which record telemetry) take the same path traced as
// untraced.
type tracedHierTarget struct {
	*tracedTarget
	ht *sim.HierarchyTarget
}

func (t tracedHierTarget) TelemetrySnapshot() telemetry.Snapshot { return t.ht.TelemetrySnapshot() }
func (t tracedHierTarget) SetRecorder(r telemetry.Recorder)      { t.ht.SetRecorder(r) }
func (t tracedHierTarget) SetObserver(o *obs.Observer)           { t.ht.SetObserver(o) }

// jobTracer builds wrapped targets and sources for one job and keeps them
// until the job ends.
type jobTracer struct {
	c       mc.Config
	l       *simLedger
	spans   *spanSink
	targets []*tracedTarget
	sources []*tracedSource
	// pending is the target built since the last NewSources call: a
	// NewSources call without one is the sampled profiling pass.
	pending     bool
	profileSrcs []*tracedSource
}

// newTarget builds one wrapped target and times the construction.
func (j *jobTracer) newTarget(policy string) (sim.Target, error) {
	start := time.Now()
	t, err := newSimTarget(j.c, policy, func(p core.Policy) core.Policy {
		return &tracedPolicy{inner: p, st: &j.l.pol, spans: j.spans}
	})
	j.l.targetNewNs += int64(time.Since(start))
	if err != nil {
		return nil, err
	}
	j.l.targets++
	tt := &tracedTarget{Target: t, l: j.l, spans: j.spans}
	j.targets = append(j.targets, tt)
	j.pending = true
	if ht, ok := t.(*sim.HierarchyTarget); ok {
		return tracedHierTarget{tracedTarget: tt, ht: ht}, nil
	}
	return tt, nil
}

// newSources builds wrapped generators for the job's workload.
func (j *jobTracer) newSources(w mc.Workload) ([]sim.Source, error) {
	start := time.Now()
	gens, err := w.Generators(j.c)
	j.l.sourceNewNs += int64(time.Since(start))
	if err != nil {
		return nil, err
	}
	out := make([]sim.Source, len(gens))
	for i, g := range gens {
		ts := &tracedSource{Source: g}
		if j.pending {
			j.sources = append(j.sources, ts)
		} else {
			j.profileSrcs = append(j.profileSrcs, ts)
		}
		out[i] = ts
	}
	j.pending = false
	return out, nil
}

// finish folds every wrapper's counters into the ledger and returns the
// summed engine spans of the job's targets.
func (j *jobTracer) finish() time.Duration {
	var eng time.Duration
	for _, t := range j.targets {
		t.flush()
		eng += t.span()
	}
	for _, s := range j.sources {
		j.l.next.add(s.st)
	}
	for _, s := range j.profileSrcs {
		j.l.profileRefs += s.st.n
	}
	return eng
}

// windowed runs a sampled or bandit Run and returns its wall time, its
// windows' engine time and the construction time spent inside it (ns).
func (j *jobTracer) windowed(run func() error) (wall, engine, built int64, err error) {
	start := time.Now()
	before := j.l.targetNewNs + j.l.sourceNewNs
	if err := run(); err != nil {
		return 0, 0, 0, err
	}
	eng := int64(j.finish())
	j.l.engineNs += eng
	return int64(time.Since(start)), eng, j.l.targetNewNs + j.l.sourceNewNs - before, nil
}

// tracedJob runs one spec with every layer wrapped and returns its
// throughput. It mirrors the facade's dispatch: full runs build one
// target and run the engine; sampled and bandit runs go through the
// layers' Run with wrapping Factories.
func tracedJob(c mc.Config, s mc.RunSpec, l *simLedger, spans *spanSink) (*mc.Result, error) {
	j := &jobTracer{c: c, l: l, spans: spans}
	jobStart := time.Now()
	defer func() {
		l.jobs++
		l.jobNs += int64(time.Since(jobStart))
	}()
	newSources := func() ([]sim.Source, error) { return j.newSources(s.Workload) }
	switch {
	case s.Policy == "bandit":
		f := bandit.Factories{NewTarget: j.newTarget, NewSources: newSources}
		var rr *bandit.RunResult
		wall, eng, built, err := j.windowed(func() (err error) {
			rr, err = bandit.Run(simConfig(c), *c.Bandit, f)
			return err
		})
		if err != nil {
			return nil, err
		}
		l.banditNs, l.banditEngineNs, l.banditNewNs = l.banditNs+wall, l.banditEngineNs+eng, l.banditNewNs+built
		l.banditWindows += int64(len(rr.Report.Windows))
		l.banditSwitches += int64(rr.Report.Switches)
		return &mc.Result{Policy: rr.Run.Policy, Throughput: rr.Run.Throughput(), BanditReport: rr.Report}, nil
	case c.Sampled != nil:
		f := sampled.Factories{
			NewTarget:  func() (sim.Target, error) { return j.newTarget(s.Policy) },
			NewSources: newSources,
		}
		// A key of its own keeps the traced run from reusing the profile
		// the untraced iteration cached, so it profiles like a fresh run.
		key := fmt.Sprintf("%s|c%d|x%d|cy%d|traced", s.Workload, c.Cores, c.Scale, c.EpochCycles)
		var rr *sampled.RunResult
		wall, eng, built, err := j.windowed(func() (err error) {
			rr, err = sampled.Run(simConfig(c), *c.Sampled, key, f)
			return err
		})
		if err != nil {
			return nil, err
		}
		l.sampledNs, l.sampledEngineNs, l.sampledNewNs = l.sampledNs+wall, l.sampledEngineNs+eng, l.sampledNewNs+built
		l.sampledWindows += int64(len(j.targets))
		l.sampledEpochs += int64(rr.Report.SimulatedEpochs)
		return &mc.Result{Policy: rr.Run.Policy, Throughput: rr.Run.Throughput()}, nil
	default:
		t, err := j.newTarget(s.Policy)
		if err != nil {
			return nil, err
		}
		srcs, err := newSources()
		if err != nil {
			return nil, err
		}
		eng, err := sim.NewFromSources(simConfig(c), t, srcs)
		if err != nil {
			return nil, err
		}
		sp := spans.begin("sim", "engine")
		start := time.Now()
		run := eng.Run()
		l.engineNs += int64(time.Since(start))
		sp.End()
		j.finish()
		return &mc.Result{Policy: run.Policy, Throughput: run.Throughput()}, nil
	}
}

// tracedBatch runs the plan's jobs with every layer wrapped, on the same
// worker pool RunBatch uses, and returns the results, the merged ledger
// and the batch wall time.
func tracedBatch(p simPlan, tr *obs.Tracer) ([]*mc.Result, *simLedger, time.Duration, error) {
	ledgers := make([]*simLedger, len(p.specs))
	tracks := &trackPool{}
	jobs := make([]runner.Job[*mc.Result], len(p.specs))
	for i, s := range p.specs {
		i, s := i, s
		jobs[i] = runner.Job[*mc.Result]{
			Label: s.Label(),
			Run: func() (*mc.Result, error) {
				tid := tracks.get()
				defer tracks.put(tid)
				spans := &spanSink{tr: tr, tid: tid}
				sp := spans.begin("runner", "job").Arg("job", s.Label())
				defer sp.End()
				ledgers[i] = &simLedger{}
				return tracedJob(p.jobConfig(s), s, ledgers[i], spans)
			},
		}
	}
	start := time.Now()
	res, err := runner.Run(context.Background(), jobs, runner.Options{Workers: simWorkers})
	wall := time.Since(start)
	total := &simLedger{}
	for _, l := range ledgers {
		if l != nil {
			total.add(l)
		}
	}
	return res, total, wall, err
}

// trackPool hands out the lowest free trace track, so concurrent jobs
// land on one row per worker in the trace viewer.
type trackPool struct {
	mu   sync.Mutex
	busy []bool
}

func (t *trackPool) get() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i, b := range t.busy {
		if !b {
			t.busy[i] = true
			return int64(i + 1)
		}
	}
	t.busy = append(t.busy, true)
	return int64(len(t.busy))
}

func (t *trackPool) put(tid int64) {
	t.mu.Lock()
	t.busy[tid-1] = false
	t.mu.Unlock()
}

// spanSink records spans on one trace track; a nil sink or tracer records
// nothing.
type spanSink struct {
	tr  *obs.Tracer
	tid int64
}

func (s *spanSink) begin(cat, name string) *obs.Span {
	if s == nil {
		return nil
	}
	return s.tr.Begin(s.tid, cat, name)
}

// traceSim runs the traced iteration and fills the per-layer metrics.
func traceSim(env *runEnv, p simPlan, out *outcome, untraced simIter) error {
	clockNs := calibrateClock()
	res, l, wall, err := tracedBatch(p, env.tracer)
	if err != nil {
		return fmt.Errorf("traced batch: %w", err)
	}
	fmt.Fprintf(env.log, "morphbench: %s traced iteration: %d jobs in %.2fs\n", env.name, len(p.specs), wall.Seconds())
	out.check("traced-identical", sameBits(throughputs(untraced.results), throughputs(res)),
		"traced throughputs bit-identical to the untraced iteration's")
	simLayers(out, l, wall, untraced.wall, clockNs)
	return nil
}

// simLayers turns a merged ledger into the per-layer metrics. The time
// base is worker time (workers × batch wall); the layers partition it:
// runner idle, target and source construction, the engine's Next /
// Access / epoch-boundary / own loop time, and the sampled and bandit
// layers' own work. What no layer claims is reported as unattributed.
func simLayers(out *outcome, l *simLedger, wall, untracedWall time.Duration, clockNs float64) {
	base := float64(simWorkers) * float64(wall)
	pct := func(ns float64) float64 { return 100 * ns / base }
	m := out.metrics

	nextNs := l.next.estNs(clockNs)
	accessNs := l.access.estNs(clockNs)
	polNs := float64(l.pol.ns)
	selfNs := float64(l.engineNs) - nextNs - accessNs - float64(l.epochNs)
	sampledOver := float64(l.sampledNs - l.sampledEngineNs - l.sampledNewNs)
	banditOver := float64(l.banditNs - l.banditEngineNs - l.banditNewNs)
	fullNew := float64(l.targetNewNs+l.sourceNewNs) - float64(l.sampledNewNs+l.banditNewNs)
	fullEngine := float64(l.engineNs - l.sampledEngineNs - l.banditEngineNs)
	// A job's wall is construction + engine for full runs, and the sampled
	// or bandit Run for windowed ones; anything else is unattributed.
	unattributed := float64(l.jobNs) - fullNew - fullEngine - float64(l.sampledNs) - float64(l.banditNs)
	idle := base - float64(l.jobNs)

	m["runner.jobs"] = float64(l.jobs)
	m["runner.idle_share"] = pct(idle)
	m["workload.refs"] = float64(l.next.n + l.profileRefs)
	m["workload.share"] = pct(nextNs + float64(l.sourceNewNs))
	m["hierarchy.accesses"] = float64(l.access.n)
	m["hierarchy.share"] = pct(accessNs)
	for i, name := range []string{"l1", "l2", "l3", "c2c", "mem"} {
		share := 0.0
		if l.access.n > 0 {
			share = 100 * float64(l.served[i]) / float64(l.access.n)
		}
		m["hierarchy."+name+"_share"] = share
	}
	m["hierarchy.targets_built"] = float64(l.targets)
	m["hierarchy.new_share"] = pct(float64(l.targetNewNs))
	m["hierarchy.epoch_reset_share"] = pct(float64(l.epochNs) - polNs)
	m["core.decide_us"] = perCallUs(l.pol.ns, l.pol.calls)
	m["core.reconfigs"] = float64(l.pol.reconfigs)
	m["reconfig.calls"] = float64(l.pol.topoCalls)
	m["reconfig.share"] = pct(float64(l.pol.topoNs))
	m["acfv.signal_calls"] = float64(l.pol.signalCalls)
	m["acfv.signal_us"] = perCallUs(l.pol.signalNs, l.pol.signalCalls)
	m["sim.self_share"] = pct(selfNs)
	m["sampled.windows"] = float64(l.sampledWindows)
	m["sampled.simulated_epochs"] = float64(l.sampledEpochs)
	m["sampled.overhead_share"] = pct(sampledOver)
	m["bandit.windows"] = float64(l.banditWindows)
	m["bandit.switches"] = float64(l.banditSwitches)
	m["bandit.overhead_share"] = pct(banditOver)
	m["trace.overhead_ratio"] = float64(wall) / float64(untracedWall)
	m["trace.unattributed_share"] = pct(unattributed)

	d := out.diag
	d["traced_wall_s"] = wall.Seconds()
	d["workload.next_ns"] = l.next.perCallNs(clockNs)
	d["hierarchy.access_ns"] = l.access.perCallNs(clockNs)
	d["trace.clock_ns"] = clockNs
	d["trace.hot_sample_every"] = sampleMask + 1
	d["hierarchy.new_ms"] = perCallUs(l.targetNewNs, int64(l.targets)) / 1e3
	d["reconfig.set_topology_us"] = perCallUs(l.pol.topoNs, l.pol.topoCalls)
	d["runner.job_s_mean"] = float64(l.jobNs) / 1e9 / float64(max(l.jobs, 1))
	d["sampled.overhead_s"] = sampledOver / 1e9
	d["bandit.overhead_s"] = banditOver / 1e9
	d["core.share"] = pct(polNs - float64(l.pol.signalNs+l.pol.topoNs))
	d["acfv.share"] = pct(float64(l.pol.signalNs))
}

// perCallUs is a mean call time in microseconds (0 with no calls).
func perCallUs(ns, calls int64) float64 {
	if calls == 0 {
		return 0
	}
	return float64(ns) / float64(calls) / 1e3
}
