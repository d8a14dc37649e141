package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	mc "morphcache"
	"morphcache/internal/baselines/dsr"
	"morphcache/internal/baselines/pipp"
	"morphcache/internal/core"
	"morphcache/internal/hierarchy"
	"morphcache/internal/sim"
	"morphcache/internal/topology"
	"morphcache/internal/workload"
)

// simWorkers is the simulator's worker-pool size: the two CPUs the
// benchmark is sized for, and the -jobs a user of such a machine would pick.
const simWorkers = 2

// goldenPath is the committed fig13 -quick report the sweep is checked
// against at seed 1.
const goldenPath = "cmd/experiments/testdata/golden/fig13-quick.json"

// fig13Policies and sweepMixes are the fig13 -quick job list the
// simulator workloads run: two of its four mixes under every policy.
var (
	fig13Policies = []string{"(16:1:1)", "(1:1:16)", "(4:4:1)", "(8:2:1)", "(1:16:1)", "morph"}
	sweepMixes    = []string{"MIX 01", "MIX 05"}
	// banditArms are the -run bandit experiment's arms.
	banditArms = []string{"morph", "pipp", "dsr", "(16:1:1)"}
)

// simPlan is one simulator workload's batch: the configuration and the
// job list a sweep iteration runs through morphcache.RunBatch.
type simPlan struct {
	cfg   mc.Config
	specs []mc.RunSpec
	// nominal is one iteration's wall time on the two-CPU machine the
	// benchmark is sized for; a run of d seconds measures about d/nominal
	// iterations.
	nominal time.Duration
	// golden marks the full-simulation sweep whose seed-1 throughputs must
	// equal the committed golden report; sampled marks the windowed plan
	// whose seed-1 reconstruction error is checked against the same file.
	golden, sampled bool
}

// fig13Config is the fig13 -quick engine configuration (or the tiny one
// the smoke test uses).
func fig13Config(seed uint64, tiny bool) mc.Config {
	c := mc.LabConfig()
	c.Seed = seed
	c.Epochs, c.WarmupEpochs = 8, 2
	if tiny {
		c.Epochs, c.WarmupEpochs, c.EpochCycles = 2, 1, 20_000
	}
	return c
}

// sweepSpecs is the mixes × policies job list.
func sweepSpecs(tiny bool) []mc.RunSpec {
	mixes, policies := sweepMixes, fig13Policies
	if tiny {
		mixes, policies = mixes[:1], []string{"(16:1:1)", "morph"}
	}
	var specs []mc.RunSpec
	for _, m := range mixes {
		for _, p := range policies {
			specs = append(specs, mc.RunSpec{Policy: p, Workload: mc.Mix(m)})
		}
	}
	return specs
}

// sweepPlan is sim-sweep: full simulation of the fig13 -quick job list.
func sweepPlan(seed uint64, tiny bool) simPlan {
	return simPlan{cfg: fig13Config(seed, tiny), specs: sweepSpecs(tiny), nominal: 15 * time.Second, golden: !tiny}
}

// windowedPlan is sim-windowed: the same jobs under the default sampled
// preset, plus one bandit run on PHASE SHIFT with the -run bandit -quick
// settings. The bandit job goes first so the long job does not finish
// alone at the end of the batch.
func windowedPlan(seed uint64, tiny bool) simPlan {
	c := fig13Config(seed, tiny)
	so := mc.DefaultSampledConfig()
	c.Sampled = &so

	bc := fig13Config(seed, tiny)
	bc.Epochs = 22
	if tiny {
		bc.Epochs = 3
	}
	bo := mc.DefaultBanditConfig()
	bo.Arms = append([]string(nil), banditArms...)
	bo.WindowEpochs, bo.WindowWarmup, bo.Exploration = 1, 3, 0.02
	if tiny {
		bo.WindowWarmup = 1
	}
	bc.Bandit = &bo

	specs := []mc.RunSpec{{Policy: "bandit", Workload: mc.Mix(workload.PhaseShiftMixName), Config: &bc}}
	specs = append(specs, sweepSpecs(tiny)...)
	return simPlan{cfg: c, specs: specs, nominal: 25 * time.Second, sampled: !tiny}
}

// iterations is how many sweep iterations a run of d measures: d over the
// nominal iteration time, rounded, at least one. It depends on d alone,
// never on how fast this run happens to go, so every run of a workload
// measures the same work.
func (p simPlan) iterations(d time.Duration) int {
	return max(int(math.Round(d.Seconds()/p.nominal.Seconds())), 1)
}

// jobConfig is the configuration a spec runs under (its override, if any).
func (p simPlan) jobConfig(s mc.RunSpec) mc.Config {
	if s.Config != nil {
		return *s.Config
	}
	return p.cfg
}

// simConfig is the engine configuration the facade derives from a
// Config; the traced path must reproduce it exactly (the bit-identity
// check proves it does).
func simConfig(c mc.Config) sim.Config {
	return sim.Config{
		EpochCycles:  c.EpochCycles,
		Epochs:       c.Epochs,
		WarmupEpochs: c.WarmupEpochs,
		GapInstr:     8,
		IssueWidth:   4,
		Seed:         c.Seed,
	}
}

// newSimTarget builds a fresh target for a policy in the RunSpec
// vocabulary with the exported constructors the facade's sampled and
// bandit paths use. A non-nil wrap gets the MorphCache controller before
// it is installed, so the traced run can interpose on core.Policy.
func newSimTarget(c mc.Config, policy string, wrap func(core.Policy) core.Policy) (sim.Target, error) {
	p := c.Params()
	switch policy {
	case "morph":
		p.ChargeRemote = true
		sys, err := hierarchy.New(p, topology.AllPrivate(p.Cores))
		if err != nil {
			return nil, err
		}
		var pol core.Policy = core.New(c.Morph)
		if wrap != nil {
			pol = wrap(pol)
		}
		return &sim.HierarchyTarget{Sys: sys, Policy: pol}, nil
	case "pipp":
		return pipp.New(p, pipp.DefaultOptions()), nil
	case "dsr":
		return dsr.New(p, dsr.DefaultOptions()), nil
	default:
		topo, err := topology.FromSpec(policy, p.Cores)
		if err != nil {
			return nil, err
		}
		p.ChargeRemote = false
		sys, err := hierarchy.New(p, topo)
		if err != nil {
			return nil, err
		}
		return &sim.HierarchyTarget{Sys: sys, Policy: sim.NopPolicy{Label: policy}}, nil
	}
}

// specTargets lists the policies whose targets a spec builds: the bandit
// builds one per arm, every other spec one.
func specTargets(s mc.RunSpec, c mc.Config) []string {
	if s.Policy == "bandit" {
		return c.Bandit.Arms
	}
	return []string{s.Policy}
}

// golden maps "policy|workload" to the committed throughput.
type golden map[string]float64

// loadGolden parses the fig13 -quick golden report.
func loadGolden(root string) (golden, error) {
	b, err := os.ReadFile(filepath.Join(root, goldenPath))
	if err != nil {
		return nil, err
	}
	var doc struct {
		Runs []struct {
			Policy     string  `json:"policy"`
			Workload   string  `json:"workload"`
			Throughput float64 `json:"throughput"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", goldenPath, err)
	}
	g := make(golden, len(doc.Runs))
	for _, r := range doc.Runs {
		g[r.Policy+"|"+r.Workload] = r.Throughput
	}
	return g, nil
}

// simSetup is the work before the first timed job: load the golden report
// and build every job's targets and generators once.
func simSetup(p simPlan, root string) (golden, error) {
	g, err := loadGolden(root)
	if err != nil {
		return nil, err
	}
	for _, s := range p.specs {
		c := p.jobConfig(s)
		for _, pol := range specTargets(s, c) {
			if _, err := newSimTarget(c, pol, nil); err != nil {
				return nil, err
			}
		}
		if _, err := s.Workload.Generators(c); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// simIter is one timed sweep iteration.
type simIter struct {
	wall    time.Duration
	jobs    []time.Duration // per spec index
	results []*mc.Result
	failed  int
}

// runSweep runs one iteration of the plan through morphcache.RunBatch.
func runSweep(p simPlan) simIter {
	it := simIter{jobs: make([]time.Duration, len(p.specs))}
	start := time.Now()
	res, _ := mc.RunBatch(p.cfg, p.specs, mc.BatchOptions{
		Workers:  simWorkers,
		Progress: func(ev mc.JobEvent) { it.jobs[ev.Index] = ev.Elapsed },
	})
	it.wall = time.Since(start)
	it.results = res
	for _, r := range res {
		if r == nil {
			it.failed++
		}
	}
	return it
}

// throughputs extracts the per-spec throughputs (NaN for failed jobs).
func throughputs(rs []*mc.Result) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = math.NaN()
		if r != nil {
			out[i] = r.Throughput
		}
	}
	return out
}

// sameBits reports whether two throughput lists are bit-for-bit equal.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func runSimSweep(env *runEnv) (*outcome, error) {
	return runSim(env, sweepPlan(env.seed, env.tiny))
}

func runSimWindowed(env *runEnv) (*outcome, error) {
	return runSim(env, windowedPlan(env.seed, env.tiny))
}

// setupRepeats is how many times each workload sets up per run; setup_s
// is the median.
const setupRepeats = 5

// runSim runs a simulator workload: set-up (repeated, median reported),
// then the run's sweep iterations through RunBatch. A traced run follows
// one untraced iteration with one traced iteration of the same jobs.
func runSim(env *runEnv, p simPlan) (*outcome, error) {
	if env.addr != "" {
		return nil, fmt.Errorf("-addr drives serve workloads only")
	}
	out := newOutcome()
	var setups []float64
	var gold golden
	for i := 0; i < setupRepeats; i++ {
		start := time.Now()
		g, err := simSetup(p, env.root)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		gold = g
	}

	n := p.iterations(env.dur)
	if env.trace {
		n = 1
	}
	var iters []simIter
	for len(iters) < n {
		it := runSweep(p)
		iters = append(iters, it)
		fmt.Fprintf(env.log, "morphbench: %s iteration %d/%d: %d jobs in %.2fs\n",
			env.name, len(iters), n, len(p.specs), it.wall.Seconds())
	}
	first := throughputs(iters[0].results)
	for _, it := range iters {
		out.attempted += int64(len(p.specs))
		out.failed += int64(it.failed)
	}
	out.check("jobs-succeeded", out.failed == 0, "%d of %d jobs failed", out.failed, out.attempted)
	same := true
	for _, it := range iters[1:] {
		same = same && sameBits(first, throughputs(it.results))
	}
	out.check("iterations-identical", same, "%d iteration(s), throughputs bit-identical across them", len(iters))
	if env.seed == 1 {
		checkGolden(out, p, iters[0].results, gold)
	}
	for i, s := range p.specs {
		if s.Policy == "bandit" {
			c := p.jobConfig(s)
			want := c.Epochs / c.Bandit.WindowEpochs
			r := iters[0].results[i]
			out.check("bandit-schedule", r != nil && r.BanditReport != nil && len(r.BanditReport.Windows) == want,
				"bandit chose an arm for each of its %d windows", want)
		}
	}

	if env.trace {
		return out, traceSim(env, p, out, iters[0])
	}

	var jobMs []float64
	bySpec := make([][]float64, len(p.specs))
	var wall time.Duration
	for _, it := range iters {
		wall += it.wall
		for i, d := range it.jobs {
			ms := float64(d) / 1e6
			jobMs = append(jobMs, ms)
			bySpec[i] = append(bySpec[i], ms)
		}
	}
	var slowest float64
	for _, xs := range bySpec {
		slowest = math.Max(slowest, median(xs))
	}
	out.metrics["setup_s"] = median(setups)
	out.metrics["ops_per_s"] = float64(len(jobMs)) / wall.Seconds()
	out.metrics["p50_ms"] = median(jobMs)
	out.metrics["tail_ms"] = slowest
	out.diag["iterations"] = float64(len(iters))
	out.diag["sweep_s"] = wall.Seconds() / float64(len(iters))
	return out, nil
}

// goldenTolerance is half a unit in the golden report's sixth decimal.
const goldenTolerance = 5e-7

// sampledErrLimit bounds the windowed plan's seed-1 reconstruction error
// against the full runs: the sampled preset's validation gate.
const sampledErrLimit = 0.03

// checkGolden compares seed-1 results with the committed fig13 -quick
// throughputs: exactly (to 6 decimals) for full simulation, within the
// sampled preset's error gate for the windowed plan.
func checkGolden(out *outcome, p simPlan, rs []*mc.Result, g golden) {
	if !p.golden && !p.sampled {
		return
	}
	var worst float64
	matched, total := 0, 0
	for i, s := range p.specs {
		if s.Policy == "bandit" {
			continue
		}
		total++
		r := rs[i]
		want, ok := g[policyLabel(s.Policy)+"|"+s.Workload.String()]
		if r == nil || !ok {
			continue
		}
		err := math.Abs(r.Throughput - want)
		if p.sampled {
			err /= want
		}
		worst = math.Max(worst, err)
		if (p.golden && err <= goldenTolerance) || (p.sampled && err <= sampledErrLimit) {
			matched++
		}
	}
	if p.golden {
		out.check("golden-fig13", matched == total,
			"%d/%d throughputs equal %s to 6 decimals", matched, total, goldenPath)
		return
	}
	out.diag["sampled_err_pct"] = 100 * worst
	out.check("sampled-error", matched == total,
		"max |sampled-full|/full %.2f%% over %d specs (limit %.0f%%)", 100*worst, total, 100*sampledErrLimit)
}

// policyLabel maps a RunSpec policy to the Result.Policy label the golden
// report records.
func policyLabel(policy string) string {
	if policy == "morph" {
		return core.New(core.DefaultOptions()).Name()
	}
	return policy
}
