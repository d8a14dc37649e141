package main

import (
	"fmt"

	mc "morphcache"

	"morphcache/internal/bus"
	"morphcache/internal/hierarchy"
	"morphcache/internal/runner"
	"morphcache/internal/sim"
	"morphcache/internal/stats"
	"morphcache/internal/zoo"
)

// xbar quantifies the §3.1 interconnect trade-off the paper argues
// qualitatively: a crossbar gives every slice its own port (higher
// bandwidth — wide sharing stops paying the one-channel-per-group queueing
// of a bus), but costs quadratic area. The experiment reruns the all-shared
// static and MorphCache under both interconnects and prints the area bill.
func xbar(cfg mc.Config, quick bool) error {
	names := mixNames(quick)
	if len(names) > 4 {
		names = names[:4]
	}
	// Flatten the sweep into 4 labeled jobs per mix (shared/morph × bus/xbar)
	// so every run can execute concurrently; results come back in submission
	// order, so the table below is identical at any worker count.
	run := func(mn string, kind hierarchy.InterconnectKind, morph bool) (float64, error) {
		p := cfg.Params()
		p.Interconnect = kind
		policy := fmt.Sprintf("(%d:1:1)", p.Cores)
		if morph {
			policy = "morph"
		}
		target, err := zoo.Target(p, cfg.Morph, policy)
		if err != nil {
			return 0, err
		}
		gens, err := mc.Mix(mn).Generators(cfg)
		if err != nil {
			return 0, err
		}
		eng, err := sim.New(simConfigOf(cfg), target, gens)
		if err != nil {
			return 0, err
		}
		return eng.Run().Throughput(), nil
	}
	cases := []struct {
		name  string
		kind  hierarchy.InterconnectKind
		morph bool
	}{
		{"shared-bus", hierarchy.Bus, false},
		{"shared-xbar", hierarchy.Crossbar, false},
		{"morph-bus", hierarchy.Bus, true},
		{"morph-xbar", hierarchy.Crossbar, true},
	}
	var jobs []runner.Job[float64]
	for _, mn := range names {
		mn := mn
		for _, cse := range cases {
			cse := cse
			jobs = append(jobs, runner.Job[float64]{
				Label: mn + " " + cse.name,
				Run:   func() (float64, error) { return run(mn, cse.kind, cse.morph) },
			})
		}
	}
	vals, err := runner.Run(runCtx, jobs, runner.Options{Workers: jobCount(), Progress: runnerProgress})
	if err != nil {
		return err
	}
	header("mix", []string{"shared-bus", "shared-xbar", "morph-bus", "morph-xbar"})
	var sharedGain, morphGain []float64
	for i, mn := range names {
		sb, sx, mb, mx := vals[4*i], vals[4*i+1], vals[4*i+2], vals[4*i+3]
		row(mn, []float64{sb, sx, mb, mx}, sb)
		sharedGain = append(sharedGain, sx/sb)
		morphGain = append(morphGain, mx/mb)
	}
	tech := bus.DefaultTech()
	rep := bus.Characterize(tech, bus.DefaultFloorplan())
	treeArea := 2*rep.L2.TotalAreaUM2 + rep.L3.TotalAreaUM2
	xbarArea := bus.CrossbarAreaUM2(tech, 16) * 2 // one fabric per level
	fmt.Fprintf(outw, "\ncrossbar lifts the all-shared static by %+.1f%% and MorphCache by %+.1f%% on average\n",
		100*(stats.Mean(sharedGain)-1), 100*(stats.Mean(morphGain)-1))
	fmt.Fprintf(outw, "arbitration area: segmented-bus trees %.0f um^2 vs crossbars %.0f um^2 (%.0fx)\n",
		treeArea, xbarArea, xbarArea/treeArea)
	fmt.Fprintln(outw, "(the paper's §3.1 trade-off, quantified: the crossbar buys back the")
	fmt.Fprintln(outw, "bandwidth that penalizes wide sharing, at an order-of-magnitude area cost —")
	fmt.Fprintln(outw, "reconfigurable segmentation gets most of the benefit for a fraction of it)")
	return nil
}
