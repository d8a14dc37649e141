package main

import (
	"fmt"
	"strings"

	"morphcache/internal/baselines/bandit"
)

// banditOptions assembles the meta-policy parameters from the -bandit-* flag
// values: the defaults of DESIGN.md §16, with any explicitly set flag
// overriding its field. A warmup flag of -1 keeps the default; 0 disables
// window warmup (mirroring -sampled-warmup).
func banditOptions(arms, strategy string, window, warmup int, reward string, epsilon float64) bandit.Options {
	o := bandit.Defaults()
	if arms != "" {
		o.Arms = nil
		for _, a := range strings.Split(arms, ",") {
			o.Arms = append(o.Arms, strings.TrimSpace(a))
		}
	} else {
		o.Arms = nil // filled from the facade's default zoo by the caller
	}
	if strategy != "" {
		o.Strategy = strategy
	}
	if window > 0 {
		o.WindowEpochs = window
	}
	switch {
	case warmup > 0:
		o.WindowWarmup = warmup
	case warmup == 0:
		o.WindowWarmup = bandit.NoWindowWarmup
	}
	if reward != "" {
		o.Reward = reward
	}
	if epsilon > 0 {
		o.Epsilon = epsilon
	}
	return o
}

// printBanditSummary renders the decision report after the standard run
// lines: the arm schedule as a run-length string, the per-arm play counts,
// and any reward-degradation warnings.
func printBanditSummary(rep *bandit.Report) {
	var parts []string
	for i := 0; i < len(rep.Windows); {
		j := i
		for j < len(rep.Windows) && rep.Windows[j].Arm == rep.Windows[i].Arm {
			j++
		}
		parts = append(parts, fmt.Sprintf("%s x%d", rep.Windows[i].Arm, j-i))
		i = j
	}
	fmt.Printf("bandit: %s/%s, %d-epoch windows, %d switches, %d resets\n",
		rep.Strategy, rep.Reward, rep.WindowEpochs, rep.Switches, rep.Resets)
	fmt.Printf("  schedule: %s\n", strings.Join(parts, " -> "))
	for _, a := range rep.Arms {
		fmt.Printf("  arm %-18s plays=%2d  mean reward=%8.4f\n", a.Name, a.Plays, a.MeanReward)
	}
	for _, warn := range rep.Warnings {
		fmt.Printf("  note: %s\n", warn)
	}
}
