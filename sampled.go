package morphcache

import (
	"fmt"

	"morphcache/internal/sampled"
	"morphcache/internal/sim"
)

// SampledConfig configures sampled simulation (see internal/sampled and
// DESIGN.md §13): phase detection over cheap per-epoch signatures,
// deterministic k-means clustering of the measured epochs into phases, one
// simulated representative window per phase, and weighted reconstruction of
// the full-run metrics. Attach one to Config.Sampled to switch a run to
// sampled mode. The zero value of every field selects the defaults.
type SampledConfig = sampled.Options

// SampledReport summarizes a sampled run's phases and reconstruction (with
// heuristic per-metric error bars); Result.SampledReport carries it.
type SampledReport = sampled.Report

// DefaultSampledConfig returns the default sampling parameters — the
// configuration the -run sampled validation experiment gates at ≤ 3%
// reconstruction error in CI.
func DefaultSampledConfig() SampledConfig { return sampled.Defaults() }

// FastSampledConfig returns the aggressive benchmark preset: fewer phases,
// a single warmup epoch per window, and window epochs truncated to the
// given cycle count (0 keeps full epochs). Lower accuracy than
// DefaultSampledConfig; used by BenchmarkBatchSweepSampled.
func FastSampledConfig(windowCycles uint64) SampledConfig {
	o := sampled.Fast()
	o.WindowCycles = windowCycles
	return o
}

// runSampled executes one sampled run: it profiles the workload (cached
// across the batch — profiles are policy-independent), clusters the
// measured epochs, and simulates one representative window per phase on a
// fresh target of the named zoo policy.
func (c Config) runSampled(w Workload, policy string) (*Result, error) {
	f := sampled.Factories{
		NewTarget:  func() (sim.Target, error) { return c.target(policy) },
		NewSources: func() ([]sim.Source, error) { return c.sources(w) },
	}
	key := fmt.Sprintf("%s|c%d|x%d|cy%d", w.String(), c.Cores, c.Scale, c.EpochCycles)
	rr, err := sampled.Run(c.simConfig(), *c.Sampled, key, f)
	if err != nil {
		return nil, err
	}
	res := fromRun(rr.Run)
	res.SampledReport = rr.Report
	if c.Telemetry {
		res.Telemetry = rr.Log
	}
	return res, nil
}
