// Package bandit implements an online meta-policy over the baseline zoo:
// a multi-armed bandit that, at every window of epochs, picks one policy
// (MorphCache, PIPP, DSR, or a fixed static topology), runs it for the
// window, observes a reward, and updates its estimates. The paper measures
// MorphCache against an unrealizable offline oracle (§5.1, Fig. 15); the
// bandit is the realizable counterpart — it learns online which arm wins
// the current phase, so on adversarial phase-shift mixes where every fixed
// policy loses at least one phase it can approach the oracle's envelope.
//
// Soundness of switching rides the same resume machinery sampled
// simulation uses (sim.Config.StartEpoch): workload generators reseed per
// epoch from (seed, asid, thread, epoch), so a window started at absolute
// epoch r sees exactly the reference stream a full run sees at epoch r.
// Each window gets a fresh target with a warmup prefix (cache contents and
// controller state rebuilt, never measured), which makes the stitched
// per-epoch series directly comparable with full fixed-policy runs and
// with offline.Ideal's envelope over them.
//
// Non-stationarity is handled three ways: reward statistics decay by a
// per-window discount; a change-point detector wipes every arm's
// statistics when the played arm's reward deviates sharply from its own
// mean (Options.ChangeThreshold) — discounting alone never re-explores
// after a phase shift that raises every reward, because the incumbent's
// own reward jumps with it; and arms unplayed past a sliding-window
// horizon are forcibly replayed (Options.Refresh) as a backstop.
//
// Determinism: every random choice (the epsilon-greedy coin and arm draw)
// derives from the run seed via rng.Derive(seed, salt, window); UCB1 is
// deterministic outright. Arms are canonicalized by sorting on name before
// selection, and all argmax ties break toward the lowest canonical index,
// so the arm schedule is byte-identical across reruns, worker counts, and
// permutations of the caller's arm order.
package bandit

import (
	"fmt"
	"math"
	"sort"

	"morphcache/internal/energy"
	"morphcache/internal/hierarchy"
	"morphcache/internal/metrics"
	"morphcache/internal/rng"
	"morphcache/internal/sim"
	"morphcache/internal/telemetry"
)

// banditSalt separates the bandit's random stream from every other
// consumer of the run seed (workload generation, k-means seeding, ...).
const banditSalt = 0xBA4D17

// NoWindowWarmup requests windows with no warmup prefix (the zero value of
// Options.WindowWarmup means "use the default", matching the sampled
// package convention).
const NoWindowWarmup = -1

// NoRefresh disables the sliding-window refresh (the zero value of
// Options.Refresh means "use the default", same convention).
const NoRefresh = -1

// NoChangeDetection disables the change-point reset (the zero value of
// Options.ChangeThreshold means "use the default", same convention).
const NoChangeDetection = -1

// Strategies.
const (
	StrategyUCB1    = "ucb1"
	StrategyEpsilon = "epsilon"
)

// Reward modes.
const (
	RewardThroughput = "throughput" // mean per-epoch throughput (higher is better)
	RewardMPKI       = "mpki"       // negated last-level MPKI (lower MPKI is better)
	RewardEnergy     = "energy"     // negated nJ/access via internal/energy
)

// Options configures the meta-policy. The zero value of every field
// selects the default printed by Defaults.
type Options struct {
	// Arms lists the candidate policies by name in the policy zoo's
	// vocabulary (internal/zoo): "morph" and its variants, "pipp", "dsr",
	// or a static topology spec like "(4:4:1)". Empty means "the caller's default zoo" (the facade
	// substitutes it before calling Run); Run itself requires at least one
	// arm. Order does not matter — arms are canonicalized by sorting.
	Arms []string
	// Strategy is the selection rule: StrategyUCB1 (default) or
	// StrategyEpsilon.
	Strategy string
	// Reward is the per-window reward signal: RewardThroughput (default),
	// RewardMPKI, or RewardEnergy. Modes needing telemetry counters degrade
	// to throughput (with a Report warning) when any arm lacks them.
	Reward string
	// WindowEpochs is the number of measured epochs each arm evaluation
	// covers before the bandit may switch. Default 2.
	WindowEpochs int
	// WindowWarmup is the number of unmeasured epochs simulated before each
	// window to rebuild cache and controller state on the fresh target
	// (clamped near epoch 0). Default 1; NoWindowWarmup disables.
	WindowWarmup int
	// Epsilon is the exploration probability of StrategyEpsilon. Default 0.1.
	Epsilon float64
	// Exploration is the UCB1 confidence width multiplier (applied to
	// rewards normalized onto [0, 1] by the running min/max). Default 0.7.
	Exploration float64
	// Discount is the per-window decay of past reward statistics (discounted
	// UCB for non-stationary workloads: 1 means never forget, smaller values
	// re-explore sooner after a phase shift). Default 0.8.
	Discount float64
	// Refresh is the sliding-window horizon: an arm unplayed for more than
	// Refresh windows has its reward statistics expired and is forcibly
	// replayed (lowest canonical index first, rule "refresh"). Discounting
	// alone cannot recover from a phase shift that raises every reward —
	// the incumbent's own reward jumps, so it keeps winning the argmax
	// against rivals whose means are frozen at the old phase's level; the
	// refresh bounds that blindness to Refresh windows. Default 10;
	// NoRefresh disables.
	Refresh int
	// ChangeThreshold is the change-point sensitivity: when the played
	// arm's observed reward deviates from its own live mean by more than
	// this fraction of the larger magnitude, a phase shift is declared and
	// every arm's statistics — and the reward normalization range — are
	// reset, forcing a fresh seeding sweep against the new phase. This is
	// the fast path the sliding-window refresh backstops: a flip is
	// detected on the very next window instead of up to Refresh windows
	// later. Default 0.25; NoChangeDetection disables.
	ChangeThreshold float64
}

// Defaults returns the default bandit options.
func Defaults() Options {
	return Options{
		Strategy:        StrategyUCB1,
		Reward:          RewardThroughput,
		WindowEpochs:    2,
		WindowWarmup:    1,
		Epsilon:         0.1,
		Exploration:     0.7,
		Discount:        0.8,
		Refresh:         10,
		ChangeThreshold: 0.25,
	}
}

// withDefaults replaces zero-valued fields with the defaults (and maps
// NoWindowWarmup to an actual zero warmup).
func (o Options) withDefaults() Options {
	d := Defaults()
	if o.Strategy == "" {
		o.Strategy = d.Strategy
	}
	if o.Reward == "" {
		o.Reward = d.Reward
	}
	if o.WindowEpochs == 0 {
		o.WindowEpochs = d.WindowEpochs
	}
	if o.WindowWarmup == 0 {
		o.WindowWarmup = d.WindowWarmup
	} else if o.WindowWarmup == NoWindowWarmup {
		o.WindowWarmup = 0
	}
	if o.Epsilon == 0 {
		o.Epsilon = d.Epsilon
	}
	if o.Exploration == 0 {
		o.Exploration = d.Exploration
	}
	if o.Discount == 0 {
		o.Discount = d.Discount
	}
	if o.Refresh == 0 {
		o.Refresh = d.Refresh
	} else if o.Refresh == NoRefresh {
		o.Refresh = 0 // internal convention: 0 = disabled after defaulting
	}
	if o.ChangeThreshold == 0 {
		o.ChangeThreshold = d.ChangeThreshold
	} else if o.ChangeThreshold == NoChangeDetection {
		o.ChangeThreshold = 0 // internal convention: 0 = disabled
	}
	return o
}

// Validate rejects unusable options (after default substitution). An empty
// arm list is accepted here — it means "default zoo" to the facade — but
// Run requires at least one arm.
func (o Options) Validate() error {
	v := o.withDefaults()
	switch v.Strategy {
	case StrategyUCB1, StrategyEpsilon:
	default:
		return fmt.Errorf("bandit: unknown strategy %q (want %q or %q)", o.Strategy, StrategyUCB1, StrategyEpsilon)
	}
	switch v.Reward {
	case RewardThroughput, RewardMPKI, RewardEnergy:
	default:
		return fmt.Errorf("bandit: unknown reward %q (want %q, %q, or %q)", o.Reward, RewardThroughput, RewardMPKI, RewardEnergy)
	}
	if v.WindowEpochs < 1 {
		return fmt.Errorf("bandit: WindowEpochs must be >= 1, got %d", o.WindowEpochs)
	}
	if v.WindowWarmup < 0 {
		return fmt.Errorf("bandit: WindowWarmup must be >= 0 or NoWindowWarmup, got %d", o.WindowWarmup)
	}
	if v.Epsilon < 0 || v.Epsilon > 1 {
		return fmt.Errorf("bandit: Epsilon must be in [0, 1], got %v", o.Epsilon)
	}
	if v.Exploration < 0 {
		return fmt.Errorf("bandit: Exploration must be >= 0, got %v", o.Exploration)
	}
	if v.Discount <= 0 || v.Discount > 1 {
		return fmt.Errorf("bandit: Discount must be in (0, 1], got %v", o.Discount)
	}
	if v.Refresh < 0 {
		return fmt.Errorf("bandit: Refresh must be >= 1 or NoRefresh, got %d", o.Refresh)
	}
	if v.ChangeThreshold < 0 || v.ChangeThreshold >= 1 {
		return fmt.Errorf("bandit: ChangeThreshold must be in (0, 1) or NoChangeDetection, got %v", o.ChangeThreshold)
	}
	seen := make(map[string]bool, len(o.Arms))
	for _, a := range o.Arms {
		if a == "" {
			return fmt.Errorf("bandit: empty arm name")
		}
		if seen[a] {
			return fmt.Errorf("bandit: duplicate arm %q", a)
		}
		seen[a] = true
	}
	return nil
}

// Fingerprint renders the effective options compactly for memo keys: two
// configurations with the same fingerprint produce identical bandit results
// on the same run configuration.
func (o Options) Fingerprint() string {
	v := o.withDefaults()
	arms := append([]string(nil), v.Arms...)
	sort.Strings(arms)
	return fmt.Sprintf("s=%s,r=%s,w=%d,u=%d,e=%g,c=%g,g=%g,t=%d,d=%g,a=%v",
		v.Strategy, v.Reward, v.WindowEpochs, v.WindowWarmup, v.Epsilon, v.Exploration, v.Discount, v.Refresh, v.ChangeThreshold, arms)
}

// Factories builds the per-window simulation state. Every window gets a
// fresh target and fresh sources (windows share nothing mutable, exactly
// like sampled representative windows), so each arm evaluation starts from
// the state a full run of that arm would start from.
type Factories struct {
	// NewTarget builds the cache system for the named arm.
	NewTarget func(arm string) (sim.Target, error)
	// NewSources builds the per-core reference sources.
	NewSources func() ([]sim.Source, error)
}

// WindowChoice records one arm evaluation.
type WindowChoice struct {
	// Window is the window's ordinal; StartEpoch the absolute index of its
	// first measured epoch; Epochs how many measured epochs it covers.
	Window     int `json:"window"`
	StartEpoch int `json:"start_epoch"`
	Epochs     int `json:"epochs"`
	// Arm is the chosen arm; Rule why it was chosen ("init" round-robin
	// seeding, "refresh" sliding-window replay of an expired arm, "ucb"
	// confidence bound, "exploit" greedy mean, "explore" epsilon draw).
	Arm  string `json:"arm"`
	Rule string `json:"rule"`
	// Reward is the observed reward in the effective reward mode;
	// Throughput the window's mean per-epoch throughput (always recorded,
	// whatever the reward mode).
	Reward     float64 `json:"reward"`
	Throughput float64 `json:"throughput"`
}

// ArmStats summarizes one arm at the end of the run.
type ArmStats struct {
	Name  string `json:"name"`
	Plays int    `json:"plays"`
	// MeanReward is the discounted mean reward estimate the final selection
	// saw; MeanThroughput the undiscounted mean window throughput.
	MeanReward     float64 `json:"mean_reward"`
	MeanThroughput float64 `json:"mean_throughput"`
}

// Report is the bandit run's decision summary.
type Report struct {
	// Strategy and Reward are the effective (post-degradation) modes;
	// RewardRequested is the caller's reward mode when degradation kicked in.
	Strategy        string `json:"strategy"`
	Reward          string `json:"reward"`
	RewardRequested string `json:"reward_requested,omitempty"`
	WindowEpochs    int    `json:"window_epochs"`
	// Windows is the arm schedule; Switches counts windows whose arm
	// differs from the previous window's.
	Windows  []WindowChoice `json:"windows"`
	Arms     []ArmStats     `json:"arms"`
	Switches int            `json:"switches"`
	// Resets counts change-point detections: windows whose reward deviated
	// from the played arm's mean past ChangeThreshold, wiping every arm's
	// statistics for a fresh seeding sweep.
	Resets int `json:"resets"`
	// Warnings records degradations (e.g. counter-less arms forcing
	// throughput rewards); CLIs surface them on stderr.
	Warnings []string `json:"warnings,omitempty"`
	// Regret is filled by callers that also ran every arm in full (the
	// -run bandit experiment): realized series vs offline.Ideal's envelope.
	Regret *RegretReport `json:"regret,omitempty"`
}

// RunResult is a bandit run's full outcome: a stitched metrics.Run shaped
// exactly like a full run's (so downstream reporting works unchanged) and
// the decision report.
type RunResult struct {
	Run    *metrics.Run
	Report *Report
}

// armState is one arm's discounted statistics.
type armState struct {
	name       string
	nGamma     float64 // discounted play count
	sumGamma   float64 // discounted reward sum
	plays      int
	lastPlayed int     // window index of the most recent play (-1 = never)
	sumThr     float64 // undiscounted throughput sum (reporting only)
}

func (a *armState) mean() float64 {
	if a.nGamma <= 0 {
		return 0
	}
	return a.sumGamma / a.nGamma
}

// Run executes the bandit meta-policy over the full run described by scfg
// (StartEpoch 0, no faults): it splits the measured region into windows of
// WindowEpochs, picks one arm per window, simulates the window with the
// resume machinery, and stitches the per-epoch results into one run.
func Run(scfg sim.Config, opts Options, f Factories) (*RunResult, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	o := opts.withDefaults()
	if len(o.Arms) == 0 {
		return nil, fmt.Errorf("bandit: no arms")
	}
	if !scfg.Faults.Empty() {
		return nil, fmt.Errorf("bandit: fault plans are not supported (window replays would re-inject damage out of order)")
	}
	if scfg.StartEpoch != 0 {
		return nil, fmt.Errorf("bandit: StartEpoch must be 0 in the full-run configuration, got %d", scfg.StartEpoch)
	}

	// Canonical arm order: sorted by name, so the schedule is invariant
	// under permutations of the caller's arm list.
	names := append([]string(nil), o.Arms...)
	sort.Strings(names)
	arms := make([]*armState, len(names))
	for i, n := range names {
		arms[i] = &armState{name: n, lastPlayed: -1}
	}

	rep := &Report{
		Strategy:     o.Strategy,
		Reward:       o.Reward,
		WindowEpochs: o.WindowEpochs,
	}
	if err := degradeReward(o.Reward, names, f, rep); err != nil {
		return nil, err
	}

	M := scfg.Epochs
	W := o.WindowEpochs
	windows := (M + W - 1) / W

	run := &metrics.Run{Policy: "bandit"}
	var perCore []float64
	rMin, rMax := math.Inf(1), math.Inf(-1)
	prevArm := -1

	for w := 0; w < windows; w++ {
		// Sliding-window refresh: expire the statistics of arms unplayed
		// past the horizon, so selectArm's seeding branch replays them
		// against the current phase instead of trusting frozen means.
		if o.Refresh > 0 {
			for _, a := range arms {
				if a.plays > 0 && w-a.lastPlayed > o.Refresh {
					a.nGamma, a.sumGamma = 0, 0
				}
			}
		}
		idx, rule := selectArm(arms, o, scfg.Seed, w, rMin, rMax)
		mStart := w * W
		mLen := W
		if mStart+mLen > M {
			mLen = M - mStart
		}
		absStart := scfg.WarmupEpochs + mStart

		wrun, reward, thr, err := runWindow(scfg, o, f, rep.Reward, names[idx], absStart, mLen)
		if err != nil {
			return nil, err
		}

		// Stitch the window's measured epochs onto the full-run timeline.
		if perCore == nil {
			perCore = make([]float64, len(wrun.PerCoreIPC))
		}
		for i, ep := range wrun.Epochs {
			ep.Index = mStart + i
			run.Epochs = append(run.Epochs, ep)
			for c, v := range ep.PerCoreIPC {
				perCore[c] += v / float64(M)
			}
		}
		run.Reconfigurations += wrun.Reconfigurations
		run.AsymmetricSteps += wrun.AsymmetricSteps

		// Telemetry: one arm-choice event per window, reusing the
		// reconfiguration event taxonomy (Level "meta", Op "arm") so the
		// schedule lands next to the merge/split decisions it supersedes.
		if scfg.Recorder != nil {
			scfg.Recorder.RecordReconfig(telemetry.ReconfigEvent{
				Epoch:  absStart,
				Level:  "meta",
				Op:     "arm",
				Rule:   rule,
				Groups: names[idx],
				UtilA:  reward,
				UtilB:  arms[idx].mean(),
			})
		}
		rep.Windows = append(rep.Windows, WindowChoice{
			Window:     w,
			StartEpoch: absStart,
			Epochs:     mLen,
			Arm:        names[idx],
			Rule:       rule,
			Reward:     reward,
			Throughput: thr,
		})
		if prevArm >= 0 && prevArm != idx {
			rep.Switches++
		}
		prevArm = idx

		// Change-point detection: a reward far off the played arm's own
		// live mean means the workload flipped phase under us. Every arm's
		// statistics describe the old phase, so wipe them all — and the
		// normalization range, so the next phase's reward spread uses the
		// full [0, 1] scale — and let the seeding sweep re-measure. The
		// fresh observation credited below seeds the new phase.
		if o.ChangeThreshold > 0 && arms[idx].nGamma > 0 {
			m := arms[idx].mean()
			if math.Abs(reward-m) > o.ChangeThreshold*math.Max(math.Abs(m), math.Abs(reward)) {
				for _, a := range arms {
					a.nGamma, a.sumGamma = 0, 0
				}
				rMin, rMax = math.Inf(1), math.Inf(-1)
				rep.Resets++
				if scfg.Recorder != nil {
					scfg.Recorder.RecordReconfig(telemetry.ReconfigEvent{
						Epoch:  absStart,
						Level:  "meta",
						Op:     "reset",
						Rule:   "change",
						Groups: names[idx],
						UtilA:  reward,
						UtilB:  m,
					})
				}
			}
		}

		// Discounted update: decay everyone, credit the played arm.
		for _, a := range arms {
			a.nGamma *= o.Discount
			a.sumGamma *= o.Discount
		}
		arms[idx].nGamma++
		arms[idx].sumGamma += reward
		arms[idx].plays++
		arms[idx].lastPlayed = w
		arms[idx].sumThr += thr
		if reward < rMin {
			rMin = reward
		}
		if reward > rMax {
			rMax = reward
		}
	}

	run.PerCoreIPC = perCore
	for _, a := range arms {
		st := ArmStats{Name: a.name, Plays: a.plays, MeanReward: a.mean()}
		if a.plays > 0 {
			st.MeanThroughput = a.sumThr / float64(a.plays)
		}
		rep.Arms = append(rep.Arms, st)
	}
	return &RunResult{Run: run, Report: rep}, nil
}

// degradeReward downgrades counter-dependent reward modes to throughput
// when any arm cannot supply them, recording a warning: rewarding those
// arms 0 instead would starve them forever, and mixing reward units across
// arms would make the estimates incomparable. It probes by building one
// throwaway target per arm and checking the same capability the engine
// checks (telemetry.Snapshotter for MPKI; a hierarchy-backed target for the
// energy meter's stats and topology).
func degradeReward(reward string, names []string, f Factories, rep *Report) error {
	if reward == RewardThroughput {
		return nil
	}
	var lacking []string
	for _, n := range names {
		t, err := f.NewTarget(n)
		if err != nil {
			return fmt.Errorf("bandit: building arm %q: %w", n, err)
		}
		ok := false
		switch reward {
		case RewardMPKI:
			_, ok = t.(telemetry.Snapshotter)
		case RewardEnergy:
			_, ok = t.(*sim.HierarchyTarget)
		}
		if !ok {
			lacking = append(lacking, n)
		}
	}
	if len(lacking) > 0 {
		rep.RewardRequested = reward
		rep.Reward = RewardThroughput
		rep.Warnings = append(rep.Warnings, fmt.Sprintf(
			"reward %q degraded to %q: arm(s) %v expose no telemetry counters", reward, RewardThroughput, lacking))
	}
	return nil
}

// selectArm picks the window's arm. Ties break toward the lowest canonical
// index everywhere (strict > comparisons), and the only random draw — the
// epsilon-greedy coin — comes from rng.Derive(seed, salt, window), so the
// choice is a pure function of (seed, window, past rewards).
func selectArm(arms []*armState, o Options, seed uint64, w int, rMin, rMax float64) (int, string) {
	// Seeding round: play each arm with no live statistics, in canonical
	// order — never-played arms at the start of the run ("init"), expired
	// arms after a refresh ("refresh").
	for i, a := range arms {
		if a.plays == 0 {
			return i, "init"
		}
		if a.nGamma == 0 {
			return i, "refresh"
		}
	}
	norm := func(x float64) float64 {
		if rMax > rMin {
			return (x - rMin) / (rMax - rMin)
		}
		return 0.5
	}
	switch o.Strategy {
	case StrategyEpsilon:
		s := rng.Derive(seed, banditSalt, uint64(w))
		if s.Float64() < o.Epsilon {
			return s.Intn(len(arms)), "explore"
		}
		best, bestM := 0, math.Inf(-1)
		for i, a := range arms {
			if m := a.mean(); m > bestM {
				best, bestM = i, m
			}
		}
		return best, "exploit"
	default: // StrategyUCB1
		var total float64
		for _, a := range arms {
			total += a.nGamma
		}
		best, bestU := 0, math.Inf(-1)
		for i, a := range arms {
			u := norm(a.mean()) + o.Exploration*math.Sqrt(2*math.Log(math.Max(total, 1))/a.nGamma)
			if u > bestU {
				best, bestU = i, u
			}
		}
		return best, "ucb"
	}
}

// runWindow evaluates one arm over [absStart, absStart+mLen) with a warmup
// prefix on a fresh target and fresh sources, returning the window's run,
// its reward in the given mode, and its mean per-epoch throughput.
func runWindow(scfg sim.Config, o Options, f Factories, reward, arm string, absStart, mLen int) (*metrics.Run, float64, float64, error) {
	// MPKI rewards read per-epoch counter records: attach a window log,
	// teeing into the caller's recorder when one is set.
	wcfg := scfg
	var wlog *telemetry.Log
	if reward == RewardMPKI {
		wlog = telemetry.NewLog()
		if scfg.Recorder != nil {
			wcfg.Recorder = tee{scfg.Recorder, wlog}
		} else {
			wcfg.Recorder = wlog
		}
	}

	target, err := f.NewTarget(arm)
	if err != nil {
		return nil, 0, 0, err
	}
	srcs, err := f.NewSources()
	if err != nil {
		return nil, 0, 0, err
	}
	wrun, err := sim.RunWindow(wcfg, absStart, o.WindowWarmup, mLen, target, srcs)
	if err != nil {
		return nil, 0, 0, err
	}

	var thr float64
	for _, t := range wrun.EpochThroughputs() {
		thr += t
	}
	thr /= float64(mLen)

	r := thr
	switch reward {
	case RewardMPKI:
		var misses, instr float64
		for _, rec := range wlog.Epochs {
			if rec.Warmup {
				continue
			}
			for _, ce := range rec.Cores {
				misses += float64(ce.C2C + ce.MemReads)
				instr += float64(ce.Instructions)
			}
		}
		if instr > 0 {
			r = -misses * 1000 / instr
		} else {
			r = 0
		}
	case RewardEnergy:
		// Whole-window energy per access (warmup included — the ratio is a
		// rate, and the prefix is short).
		ht := target.(*sim.HierarchyTarget)
		stats := *ht.Sys.Stats()
		m := energy.NewMeter(energy.Default())
		m.Charge(hierarchy.Stats{}, stats, ht.Sys.Topology())
		r = -m.PerAccessNJ(stats.Accesses)
	}
	return wrun, r, thr, nil
}

// tee forwards telemetry to two recorders.
type tee struct{ a, b telemetry.Recorder }

func (t tee) RecordEpoch(r telemetry.EpochRecord) {
	t.a.RecordEpoch(r)
	t.b.RecordEpoch(r)
}

func (t tee) RecordReconfig(e telemetry.ReconfigEvent) {
	t.a.RecordReconfig(e)
	t.b.RecordReconfig(e)
}
