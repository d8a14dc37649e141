// Command morphsim runs one workload under one cache-management policy and
// prints per-epoch and aggregate statistics.
//
// Usage examples:
//
//	morphsim -workload "MIX 01" -policy morph
//	morphsim -workload "MIX 03" -policy "(4:4:1)" -epochs 10
//	morphsim -workload dedup -policy morph -verbose -stats
//	morphsim -workload "MIX 05" -policy morph -trace-out mix05.mctr
//	morphsim -trace-in mix05.mctr -policy "(16:1:1)"
//	morphsim -workload "MIX 01" -policy morph -epochs 60 -sampled
//
// Policies: any static "(x:y:z)" spec, "morph", "morph-nodegrade",
// "morph-qos", "morph-split-aggressive", "morph-arbitrary",
// "morph-nonneighbor", "pipp", or "dsr".
//
// -faults N injects a deterministic N-event hardware-fault plan (drawn from
// -fault-seed) into the measured region; "morph-nodegrade" runs the same
// controller with graceful degradation disabled, as the strawman to compare
// against (DESIGN.md §9).
//
// -sampled switches to sampled simulation (DESIGN.md §13): the run's epochs
// are clustered into phases from cheap profiling signatures, one
// representative window is simulated per phase, and the full-run metrics
// are reconstructed as their weighted combination. The -sampled-* flags
// override individual sampling parameters.
//
// -bandit replaces -policy with the bandit meta-policy (DESIGN.md §16): at
// every window of epochs a multi-armed bandit picks one policy from the arm
// zoo (-bandit-arms, default: morph, pipp, dsr, and the standard statics),
// runs it for the window via the resume machinery, and learns from the
// observed reward. The -bandit-* flags override individual parameters:
//
//	morphsim -workload "PHASE SHIFT" -epochs 22 -bandit
//	morphsim -workload "MIX 01" -bandit -bandit-arms "morph,dsr" -bandit-strategy epsilon
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"time"

	mc "morphcache"

	"morphcache/internal/baselines/bandit"
	"morphcache/internal/core"
	"morphcache/internal/fault"
	"morphcache/internal/hierarchy"
	"morphcache/internal/metrics"
	"morphcache/internal/sampled"
	"morphcache/internal/sim"
	"morphcache/internal/telemetry"
	"morphcache/internal/workload"
	"morphcache/internal/zoo"
)

func main() {
	var (
		wl          = flag.String("workload", "MIX 01", "Table 5 mix name or PARSEC benchmark name")
		policy      = flag.String("policy", "morph", `policy: "(x:y:z)", morph, morph-nodegrade, morph-qos, morph-split-aggressive, morph-arbitrary, morph-nonneighbor, pipp, dsr`)
		epochs      = flag.Int("epochs", 20, "measured epochs")
		warmup      = flag.Int("warmup", 2, "warmup epochs (unmeasured)")
		epochCycles = flag.Uint64("epoch-cycles", 1_000_000, "cycles per reconfiguration interval")
		cores       = flag.Int("cores", 16, "number of cores (power of two)")
		seed        = flag.Uint64("seed", 1, "workload seed")
		scale       = flag.Int("scale", 16, "capacity scale divisor (1 = full Table 3 sizes)")
		verbose     = flag.Bool("verbose", false, "print per-epoch topology and throughput")
		stats       = flag.Bool("stats", false, "print hierarchy event counters after the run")
		traceOut    = flag.String("trace-out", "", "record the reference streams to this file")
		traceIn     = flag.String("trace-in", "", "replay reference streams from this file instead of the synthetic workload")
		jsonOut     = flag.Bool("json", false, "emit the run report as JSON on stdout (alias for -out json)")
		outFmt      = flag.String("out", "", "emit the run report on stdout: json (report + telemetry) or csv (per-epoch, per-core telemetry rows)")
		epochLog    = flag.String("epochlog", "", "write the run's epoch telemetry (JSON) to this file")
		faults      = flag.Int("faults", 0, "inject this many deterministic hardware-fault events into the measured region (0 = none)")
		faultSeed   = flag.Uint64("fault-seed", 1, "seed of the generated fault plan (with -faults)")
		adminAddr   = flag.String("admin", "", "serve the admin endpoint (/metrics, /jobs, /healthz, /debug/pprof) on this address, e.g. :9190 or 127.0.0.1:0")
		spanTrace   = flag.String("trace", "", "write a Chrome trace-event JSON of simulator phases to this file (open in chrome://tracing)")
		sampledRun  = flag.Bool("sampled", false, "sampled simulation: cluster epochs into phases, simulate one representative window per phase, reconstruct full-run metrics (DESIGN.md §13)")
		sampledK    = flag.Int("sampled-phases", 0, "with -sampled: maximum number of phases (0 = default 4)")
		sampledWarm = flag.Int("sampled-warmup", -1, "with -sampled: unmeasured warmup epochs per window (-1 = default 2, 0 = none)")
		sampledWin  = flag.Uint64("sampled-window", 0, "with -sampled: truncate window epochs to this many cycles (0 = full epochs)")
		sampledRefs = flag.Int("sampled-refs", 0, "with -sampled: profiled references per core per epoch (0 = default 2048)")
		banditRun   = flag.Bool("bandit", false, "bandit meta-policy: pick one policy per window of epochs from the arm zoo, learn from observed rewards, stitch the measured epochs (DESIGN.md §16; replaces -policy)")
		banditArms  = flag.String("bandit-arms", "", `with -bandit: comma-separated arm list in the -policy vocabulary, e.g. "morph,pipp,dsr,(4:4:1)" (empty = morph, pipp, dsr, and the standard statics)`)
		banditStrat = flag.String("bandit-strategy", "", "with -bandit: ucb1 or epsilon (empty = default ucb1)")
		banditWin   = flag.Int("bandit-window", 0, "with -bandit: measured epochs per window (0 = default 2)")
		banditWarm  = flag.Int("bandit-warmup", -1, "with -bandit: unmeasured warmup epochs per window (-1 = default 1, 0 = none)")
		banditRew   = flag.String("bandit-reward", "", "with -bandit: reward signal: throughput, mpki, or energy (empty = default throughput)")
		banditEps   = flag.Float64("bandit-epsilon", 0, "with -bandit: exploration probability of the epsilon strategy (0 = default 0.1)")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		// A stray positional argument is a mistyped flag, not a request for
		// the default run; succeeding silently would hide it.
		fatal(fmt.Errorf("unexpected arguments: %v (all options are flags)", flag.Args()))
	}
	if *jsonOut && *outFmt == "" {
		*outFmt = "json"
	}
	if *outFmt != "" && *outFmt != "json" && *outFmt != "csv" {
		fatal(fmt.Errorf("-out must be json or csv (got %q)", *outFmt))
	}

	var sopts sampled.Options
	if *sampledRun {
		switch {
		case *traceIn != "":
			fatal(fmt.Errorf("-sampled needs re-runnable synthetic sources; -trace-in replay is full-run only"))
		case *traceOut != "":
			fatal(fmt.Errorf("-sampled simulates only representative windows; record traces with a full run (drop -sampled)"))
		case *faults > 0:
			fatal(fmt.Errorf("-sampled cannot honor a fault plan: faults damage specific epochs, and a sampled run does not simulate them all"))
		case *stats:
			fatal(fmt.Errorf("-stats reports one run's hierarchy; a sampled run simulates several independent windows (drop -stats)"))
		}
		sopts = sampledOptions(*sampledK, *sampledWarm, *sampledWin, *sampledRefs)
	}

	var bopts mc.BanditConfig
	if *banditRun {
		switch {
		case *sampledRun:
			fatal(fmt.Errorf("-bandit and -sampled both re-slice the run into windows; pick one"))
		case *traceIn != "":
			fatal(fmt.Errorf("-bandit needs re-runnable synthetic sources; -trace-in replay is full-run only"))
		case *traceOut != "":
			fatal(fmt.Errorf("-bandit simulates overlapping per-window streams; record traces with a full run (drop -bandit)"))
		case *faults > 0:
			fatal(fmt.Errorf("-bandit cannot honor a fault plan: windows run on fresh targets, and faults damage specific epochs of one persistent hierarchy"))
		case *stats:
			fatal(fmt.Errorf("-stats reports one run's hierarchy; a bandit run builds a fresh target per window (drop -stats)"))
		}
		bopts = banditOptions(*banditArms, *banditStrat, *banditWin, *banditWarm, *banditRew, *banditEps)
	}

	// Build the fault plan first so validation below covers it too.
	var plan *fault.Plan
	if *faults > 0 {
		p, err := fault.NewPlan(*faultSeed, fault.Spec{
			Cores:      *cores,
			FirstEpoch: *warmup,
			Epochs:     *epochs,
			Events:     *faults,
		})
		if err != nil {
			fatal(err)
		}
		plan = p
		for _, e := range plan.Events {
			fmt.Fprintln(os.Stderr, "morphsim: fault:", e)
		}
	}

	// Validate the flag-assembled configuration through the facade's rules
	// (power-of-two cores, positive epochs, in-range fault events, ...).
	vcfg := mc.Config{
		Cores:        *cores,
		Scale:        *scale,
		Epochs:       *epochs,
		WarmupEpochs: *warmup,
		EpochCycles:  *epochCycles,
		Seed:         *seed,
		Morph:        core.DefaultOptions(),
		Faults:       plan,
	}
	if *sampledRun {
		vcfg.Sampled = &sopts
	}
	if *banditRun {
		if len(bopts.Arms) == 0 {
			bopts.Arms = mc.DefaultBanditArms(vcfg)
		}
		vcfg.Bandit = &bopts
	}
	if err := vcfg.Validate(); err != nil {
		fatal(err)
	}

	cfg := sim.DefaultConfig()
	cfg.Epochs = *epochs
	cfg.WarmupEpochs = *warmup
	cfg.EpochCycles = *epochCycles
	cfg.Seed = *seed
	cfg.Faults = plan
	// Structured output wants the epoch log; the default text path keeps
	// telemetry off (results are identical either way).
	var tl *telemetry.Log
	if *outFmt != "" || *epochLog != "" {
		tl = telemetry.NewLog()
		cfg.Recorder = tl
	}

	// Every target comes from the policy zoo, so -policy and -bandit-arms
	// share one vocabulary with the facade. Windowed runs build a fresh
	// target and fresh sources per window; a full run builds one of each,
	// target first.
	w := mc.Parsec(*wl)
	if _, err := workload.MixByName(*wl); err == nil {
		w = mc.Mix(*wl)
	}
	newTarget := func(name string) (sim.Target, error) {
		return zoo.Target(vcfg.Params(), vcfg.Morph, name)
	}
	newSources := func() ([]sim.Source, error) {
		gens, err := w.Generators(vcfg)
		if err != nil {
			return nil, err
		}
		return sim.FromGenerators(gens), nil
	}
	var target sim.Target
	var sys *hierarchy.System
	var srcs []sim.Source
	var finish func() error
	if !*sampledRun && !*banditRun {
		t, err := newTarget(*policy)
		if err != nil {
			fatal(err)
		}
		target = t
		if ht, ok := t.(*sim.HierarchyTarget); ok {
			sys = ht.Sys
		} else if *stats {
			fatal(fmt.Errorf("-stats reports hierarchy counters; %q manages its own caches (drop -stats)", *policy))
		}
		switch {
		case *traceIn != "":
			srcs, err = replaySources(*traceIn, *cores)
			if err != nil {
				fatal(err)
			}
		case *traceOut != "":
			gens, err := w.Generators(vcfg)
			if err != nil {
				fatal(err)
			}
			srcs, finish, err = wrapRecording(gens, *traceOut)
			if err != nil {
				fatal(err)
			}
		default:
			srcs, err = newSources()
			if err != nil {
				fatal(err)
			}
		}
	}

	// ^C while the engine runs exits 1 with a clear message instead of the
	// default silent kill; a second ^C (after stopSignals) force-kills.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stopSignals()

	label := *policy + " " + *wl
	if *banditRun {
		label = "bandit " + *wl
	}
	obsDone, observer, err := obsSetup(ctx, *adminAddr, *spanTrace, label)
	if err != nil {
		fatal(err)
	}
	defer obsDone()
	cfg.Observer = observer

	type runOutcome struct {
		run  *metrics.Run
		rep  *sampled.Report
		brep *bandit.Report
		slog *telemetry.Log
		err  error
	}
	ch := make(chan runOutcome, 1)
	go func() {
		observer.JobStarted()
		start := time.Now()
		var o runOutcome
		switch {
		case *banditRun:
			rr, err := bandit.Run(cfg, bopts, bandit.Factories{NewTarget: newTarget, NewSources: newSources})
			if err != nil {
				o.err = err
			} else {
				o = runOutcome{run: rr.Run, brep: rr.Report}
			}
		case *sampledRun:
			f := sampled.Factories{
				NewTarget:  func() (sim.Target, error) { return newTarget(*policy) },
				NewSources: newSources,
			}
			key := fmt.Sprintf("%s|c%d|x%d|cy%d", *wl, *cores, *scale, cfg.EpochCycles)
			rr, err := sampled.Run(cfg, sopts, key, f)
			if err != nil {
				o.err = err
			} else {
				o = runOutcome{run: rr.Run, rep: rr.Report, slog: rr.Log}
			}
		default:
			eng, err := sim.NewFromSources(cfg, target, srcs)
			if err != nil {
				o.err = err
			} else {
				o.run = eng.Run()
			}
		}
		observer.JobFinished(o.err, time.Since(start))
		ch <- o
	}()
	var run *metrics.Run
	var srep *sampled.Report
	var brep *bandit.Report
	select {
	case o := <-ch:
		if o.err != nil {
			fatal(o.err)
		}
		run, srep, brep = o.run, o.rep, o.brep
		if tl != nil && o.slog != nil {
			// Sampled runs record their windows into their own log (absolute
			// epoch indices, warmup records flagged); that log is the one
			// structured output should carry.
			tl = o.slog
		}
	case <-ctx.Done():
		stopSignals()
		fatal(fmt.Errorf("interrupted (%v); partial results discarded", ctx.Err()))
	}
	if finish != nil {
		if err := finish(); err != nil {
			fatal(err)
		}
	}

	source := *wl
	if *traceIn != "" {
		source = "trace:" + *traceIn
	}
	if *epochLog != "" {
		if err := writeEpochLog(*epochLog, tl); err != nil {
			fatal(err)
		}
	}
	switch *outFmt {
	case "json":
		if err := emitJSON(os.Stdout, source, cfg, run, sys, tl, srep, brep); err != nil {
			fatal(err)
		}
		return
	case "csv":
		if err := tl.WriteCSV(os.Stdout); err != nil {
			fatal(err)
		}
		return
	}
	fmt.Printf("workload=%q policy=%q epochs=%d epoch-cycles=%d\n", source, run.Policy, len(run.Epochs), cfg.EpochCycles)
	if *verbose {
		for _, e := range run.Epochs {
			fmt.Printf("  epoch %2d  throughput=%6.3f  topology=%s\n", e.Index, e.Throughput(), e.Topology)
		}
	}
	fmt.Printf("throughput (sum IPC): %.4f\n", run.Throughput())
	if run.Reconfigurations > 0 {
		fmt.Printf("reconfigurations: %d (asymmetric outcome in %d/%d intervals)\n",
			run.Reconfigurations, run.AsymmetricSteps, len(run.Epochs))
	}
	if brep != nil {
		printBanditSummary(brep)
	}
	if srep != nil {
		fmt.Printf("sampled: %d phases over %d measured epochs; %d window epochs simulated (%.1fx cycle speedup)\n",
			len(srep.Phases), srep.MeasuredEpochs, srep.SimulatedEpochs, srep.Speedup)
		for _, ph := range srep.Phases {
			fmt.Printf("  phase rep=%-3d weight=%.2f radius=%.3f throughput=%6.3f topology=%s\n",
				ph.Representative, ph.Weight, ph.Radius, ph.Throughput, ph.Topology)
		}
		fmt.Printf("reconstructed: throughput %.4f +/- %.4f", srep.Throughput.Value, srep.Throughput.Err)
		if srep.MPKI.Value > 0 {
			fmt.Printf(", MPKI %.3f +/- %.3f", srep.MPKI.Value, srep.MPKI.Err)
		}
		fmt.Println()
	}
	if *stats && sys != nil {
		dumpStats(sys)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "morphsim:", err)
	os.Exit(1)
}
