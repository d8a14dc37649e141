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
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"

	mc "morphcache"

	"morphcache/internal/core"
	"morphcache/internal/fault"
	"morphcache/internal/trace"
	"morphcache/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point; it returns the process exit code
// (0 = success, 1 = rejected configuration or failed run, 2 = usage error).
// It turns the flags into one facade run spec, runs it through
// morphcache.RunBatch, and prints the Result.
func run(args []string, stdout, stderr io.Writer) (code int) {
	fail := func(err error) int {
		fmt.Fprintln(stderr, "morphsim:", err)
		return 1
	}
	fs := flag.NewFlagSet("morphsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		wl          = fs.String("workload", "MIX 01", "Table 5 mix name or PARSEC benchmark name")
		policy      = fs.String("policy", "morph", `policy: "(x:y:z)", morph, morph-nodegrade, morph-qos, morph-split-aggressive, morph-arbitrary, morph-nonneighbor, pipp, dsr`)
		epochs      = fs.Int("epochs", 20, "measured epochs")
		warmup      = fs.Int("warmup", 2, "warmup epochs (unmeasured)")
		epochCycles = fs.Uint64("epoch-cycles", 1_000_000, "cycles per reconfiguration interval")
		cores       = fs.Int("cores", 16, "number of cores (power of two)")
		seed        = fs.Uint64("seed", 1, "workload seed")
		scale       = fs.Int("scale", 16, "capacity scale divisor (1 = full Table 3 sizes)")
		verbose     = fs.Bool("verbose", false, "print per-epoch topology and throughput")
		stats       = fs.Bool("stats", false, "print hierarchy event counters after the run")
		traceOut    = fs.String("trace-out", "", "record the reference streams to this file")
		traceIn     = fs.String("trace-in", "", "replay reference streams from this file instead of the synthetic workload")
		jsonOut     = fs.Bool("json", false, "emit the run report as JSON on stdout (alias for -out json)")
		outFmt      = fs.String("out", "", "emit the run report on stdout: json (report + telemetry) or csv (per-epoch, per-core telemetry rows)")
		epochLog    = fs.String("epochlog", "", "write the run's epoch telemetry (JSON) to this file")
		faults      = fs.Int("faults", 0, "inject this many deterministic hardware-fault events into the measured region (0 = none)")
		faultSeed   = fs.Uint64("fault-seed", 1, "seed of the generated fault plan (with -faults)")
		adminAddr   = fs.String("admin", "", "serve the admin endpoint (/metrics, /jobs, /healthz, /debug/pprof) on this address, e.g. :9190 or 127.0.0.1:0")
		spanTrace   = fs.String("trace", "", "write a Chrome trace-event JSON of simulator phases to this file (open in chrome://tracing)")
		sampledRun  = fs.Bool("sampled", false, "sampled simulation: cluster epochs into phases, simulate one representative window per phase, reconstruct full-run metrics (DESIGN.md §13)")
		sampledK    = fs.Int("sampled-phases", 0, "with -sampled: maximum number of phases (0 = default 4)")
		sampledWarm = fs.Int("sampled-warmup", -1, "with -sampled: unmeasured warmup epochs per window (-1 = default 2, 0 = none)")
		sampledWin  = fs.Uint64("sampled-window", 0, "with -sampled: truncate window epochs to this many cycles (0 = full epochs)")
		sampledRefs = fs.Int("sampled-refs", 0, "with -sampled: profiled references per core per epoch (0 = default 2048)")
		banditRun   = fs.Bool("bandit", false, "bandit meta-policy: pick one policy per window of epochs from the arm zoo, learn from observed rewards, stitch the measured epochs (DESIGN.md §16; replaces -policy)")
		banditArms  = fs.String("bandit-arms", "", `with -bandit: comma-separated arm list in the -policy vocabulary, e.g. "morph,pipp,dsr,(4:4:1)" (empty = morph, pipp, dsr, and the standard statics)`)
		banditStrat = fs.String("bandit-strategy", "", "with -bandit: ucb1 or epsilon (empty = default ucb1)")
		banditWin   = fs.Int("bandit-window", 0, "with -bandit: measured epochs per window (0 = default 2)")
		banditWarm  = fs.Int("bandit-warmup", -1, "with -bandit: unmeasured warmup epochs per window (-1 = default 1, 0 = none)")
		banditRew   = fs.String("bandit-reward", "", "with -bandit: reward signal: throughput, mpki, or energy (empty = default throughput)")
		banditEps   = fs.Float64("bandit-epsilon", 0, "with -bandit: exploration probability of the epsilon strategy (0 = default 0.1)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if fs.NArg() > 0 {
		// A stray positional argument is a mistyped flag, not a request for
		// the default run; succeeding silently would hide it.
		return fail(fmt.Errorf("unexpected arguments: %v (all options are flags)", fs.Args()))
	}
	if *jsonOut && *outFmt == "" {
		*outFmt = "json"
	}
	if *outFmt != "" && *outFmt != "json" && *outFmt != "csv" {
		return fail(fmt.Errorf("-out must be json or csv (got %q)", *outFmt))
	}

	var plan *fault.Plan
	if *faults > 0 {
		var err error
		plan, err = fault.NewPlan(*faultSeed, fault.Spec{Cores: *cores, FirstEpoch: *warmup, Epochs: *epochs, Events: *faults})
		if err != nil {
			return fail(err)
		}
		for _, e := range plan.Events {
			fmt.Fprintln(stderr, "morphsim: fault:", e)
		}
	}

	// The facade checks the configuration and the mode conflicts (sampled,
	// bandit, faults, trace replay and recording) before it simulates.
	cfg := mc.Config{
		Cores:        *cores,
		Scale:        *scale,
		Epochs:       *epochs,
		WarmupEpochs: *warmup,
		EpochCycles:  *epochCycles,
		Seed:         *seed,
		Morph:        core.DefaultOptions(),
		// Structured output wants the epoch log; the default text path
		// keeps telemetry off (results are identical either way).
		Telemetry: *outFmt != "" || *epochLog != "",
		Faults:    plan,
	}
	spec := mc.RunSpec{Policy: *policy, Workload: mc.Parsec(*wl)}
	if _, err := workload.MixByName(*wl); err == nil {
		spec.Workload = mc.Mix(*wl)
	}
	if *sampledRun {
		o := mc.DefaultSampledConfig()
		if *sampledK > 0 {
			o.MaxPhases = *sampledK
		}
		o.WindowWarmup = windowWarmup(*sampledWarm, o.WindowWarmup)
		if *sampledWin > 0 {
			o.WindowCycles = *sampledWin
		}
		if *sampledRefs > 0 {
			o.ProfileRefs = *sampledRefs
		}
		cfg.Sampled = &o
	}
	if *banditRun {
		// Empty arms select the facade's default zoo.
		o := mc.DefaultBanditConfig()
		if *banditArms != "" {
			for _, a := range strings.Split(*banditArms, ",") {
				o.Arms = append(o.Arms, strings.TrimSpace(a))
			}
		}
		if *banditStrat != "" {
			o.Strategy = *banditStrat
		}
		if *banditWin > 0 {
			o.WindowEpochs = *banditWin
		}
		o.WindowWarmup = windowWarmup(*banditWarm, o.WindowWarmup)
		if *banditRew != "" {
			o.Reward = *banditRew
		}
		if *banditEps > 0 {
			o.Epsilon = *banditEps
		}
		cfg.Bandit = &o
		spec.Policy = "bandit"
	}
	if *traceIn != "" {
		w, err := mc.Replay(*traceIn)
		if err != nil {
			return fail(err)
		}
		spec.Workload = w
	}
	var traceFile *os.File
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			return fail(err)
		}
		// A failed or rejected run leaves no partial trace behind.
		defer func() {
			if code != 0 {
				f.Close()
				os.Remove(*traceOut)
			}
		}()
		if spec.Record, err = trace.NewWriter(f, *cores); err != nil {
			return fail(err)
		}
		traceFile = f
	}

	// ^C while the engine runs exits 1 with a clear message instead of the
	// default silent kill.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	observe, obsDone, err := obsSetup(ctx, stderr, *adminAddr, *spanTrace)
	if err != nil {
		return fail(err)
	}
	res, err := mc.RunBatch(cfg, []mc.RunSpec{spec}, mc.BatchOptions{Workers: 1, Context: ctx, Observe: observe})
	oerr := obsDone()
	switch {
	case err != nil && ctx.Err() != nil:
		return fail(fmt.Errorf("interrupted (%v); partial results discarded", ctx.Err()))
	case err != nil:
		// The batch prefixes the job's error with its index and label; a
		// one-job batch needs neither.
		if inner := errors.Unwrap(err); inner != nil {
			err = inner
		}
		return fail(err)
	case oerr != nil:
		return fail(oerr)
	}
	r := res[0]
	if *stats && r.Hierarchy == nil {
		return fail(fmt.Errorf("-stats reports the counters of one hierarchy and %q has none: PIPP and DSR manage their own caches, sampled and bandit runs build one per window (drop -stats)", spec.Label()))
	}
	if traceFile != nil {
		if err := traceFile.Close(); err != nil {
			return fail(err)
		}
		// Structured output owns stdout.
		note := stdout
		if *outFmt != "" {
			note = stderr
		}
		fmt.Fprintf(note, "recorded %d references to %s\n", spec.Record.Records(), *traceOut)
	}
	if *epochLog != "" {
		if err := writeEpochLog(*epochLog, r.Telemetry); err != nil {
			return fail(err)
		}
	}
	source := spec.Workload.String()
	switch *outFmt {
	case "json":
		err = emitJSON(stdout, source, cfg.EpochCycles, r)
	case "csv":
		err = r.Telemetry.WriteCSV(stdout)
	default:
		printText(stdout, source, cfg.EpochCycles, r, *verbose, *stats)
	}
	if err != nil {
		return fail(err)
	}
	return 0
}

// windowWarmup maps a -sampled-warmup or -bandit-warmup flag onto the
// runners' WindowWarmup option: -1 keeps the default def, and 0 asks for
// no warmup, which the options spell -1 (their NoWindowWarmup).
func windowWarmup(flag, def int) int {
	switch {
	case flag > 0:
		return flag
	case flag == 0:
		return -1
	}
	return def
}
