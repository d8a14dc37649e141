package morphcache

import (
	"fmt"

	"morphcache/internal/baselines/bandit"
	"morphcache/internal/sim"
)

// BanditConfig configures the bandit meta-policy (see internal/baselines/
// bandit and DESIGN.md §16): a multi-armed bandit that, at every window of
// epochs, picks one policy from the zoo — MorphCache, PIPP, DSR, or a
// static topology — runs it for the window via the resume machinery, and
// learns from the observed reward. Attach one to Config.Bandit (or leave
// it nil for the defaults) and run with RunBandit or Policy "bandit". The
// zero value of every field selects the defaults.
type BanditConfig = bandit.Options

// BanditReport is a bandit run's decision summary (arm schedule, per-arm
// statistics, degradation warnings, and — when the caller computed it —
// the regret against the offline oracle); Result.BanditReport carries it.
type BanditReport = bandit.Report

// BanditRegret compares a realized per-epoch throughput series against the
// offline oracle envelope (see IdealOffline); the -run bandit experiment
// embeds it in BanditReport.Regret.
type BanditRegret = bandit.RegretReport

// DefaultBanditConfig returns the default bandit options: discounted UCB1
// over throughput rewards with two-epoch windows.
func DefaultBanditConfig() BanditConfig { return bandit.Defaults() }

// DefaultBanditArms returns the default zoo for the configured machine:
// the MorphCache controller, both baselines, and the paper's standard
// static topologies.
func DefaultBanditArms(c Config) []string {
	return append([]string{"morph", "pipp", "dsr"}, StandardStatics(c)...)
}

// ComputeBanditRegret computes the regret report of a realized per-epoch
// throughput series against an oracle envelope (both non-empty, equal
// length).
func ComputeBanditRegret(realized, oracle []float64) (*BanditRegret, error) {
	return bandit.Regret(realized, oracle)
}

// RunBandit runs the workload under the bandit meta-policy: Config.Bandit
// (or the defaults when nil) selects strategy, reward, window size, and the
// arm list (empty = DefaultBanditArms). The Result is the stitched
// per-epoch run with Result.BanditReport attached.
func RunBandit(c Config, w Workload) (*Result, error) {
	return c.runEntry("RunBandit", "bandit", w)
}

// runBandit executes one bandit run: every window builds a fresh target of
// its arm through the policy zoo and fresh sources.
func (c Config) runBandit(w Workload) (*Result, error) {
	bo := DefaultBanditConfig()
	if c.Bandit != nil {
		bo = *c.Bandit
	}
	if len(bo.Arms) == 0 {
		bo.Arms = DefaultBanditArms(c)
	}
	f := bandit.Factories{
		NewTarget:  c.target,
		NewSources: func() ([]sim.Source, error) { return c.sources(w) },
	}
	sc, tl := c.instrumented()
	rr, err := bandit.Run(sc, bo, f)
	if err != nil {
		return nil, fmt.Errorf("morphcache: %w", err)
	}
	res := fromRun(rr.Run)
	res.BanditReport = rr.Report
	res.Telemetry = tl
	return res, nil
}
