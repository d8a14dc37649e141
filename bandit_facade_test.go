package morphcache

import (
	"strings"
	"testing"

	"morphcache/internal/fault"
)

// banditTestConfig is a small fast configuration for facade-level bandit
// tests: 4 cores so mixes truncate, short epochs.
func banditTestConfig() Config {
	c := LabConfig()
	c.Cores = 4
	c.Epochs = 6
	c.WarmupEpochs = 1
	c.EpochCycles = 40_000
	return c
}

func TestRunBanditFacade(t *testing.T) {
	c := banditTestConfig()
	bo := DefaultBanditConfig()
	bo.Arms = []string{"(4:1:1)", "(1:1:4)"}
	bo.WindowEpochs = 2
	c.Bandit = &bo
	res, err := RunBandit(c, Mix("MIX 01"))
	if err != nil {
		t.Fatal(err)
	}
	if res.BanditReport == nil {
		t.Fatal("bandit run must attach a BanditReport")
	}
	if len(res.EpochThroughputs) != c.Epochs {
		t.Fatalf("stitched run has %d epochs, want %d", len(res.EpochThroughputs), c.Epochs)
	}
	if got := len(res.BanditReport.Windows); got != 3 {
		t.Fatalf("%d windows for 6 epochs at W=2, want 3", got)
	}
	if res.Throughput <= 0 {
		t.Fatal("bandit run produced no throughput")
	}
	for _, w := range res.BanditReport.Windows {
		if w.Arm != "(4:1:1)" && w.Arm != "(1:1:4)" {
			t.Fatalf("window chose unknown arm %q", w.Arm)
		}
	}
}

func TestRunBanditDefaultArms(t *testing.T) {
	c := banditTestConfig()
	c.Epochs = 2
	arms := DefaultBanditArms(c)
	if len(arms) < 5 {
		t.Fatalf("default zoo too small: %v", arms)
	}
	for _, want := range []string{"morph", "pipp", "dsr"} {
		found := false
		for _, a := range arms {
			found = found || a == want
		}
		if !found {
			t.Fatalf("default zoo %v lacks %q", arms, want)
		}
	}
}

func TestValidateBanditRejections(t *testing.T) {
	base := banditTestConfig()
	bo := DefaultBanditConfig()

	c := base
	c.Bandit = &bo
	c.Faults = &fault.Plan{Events: []fault.Event{{Kind: fault.WayDisable, Level: 3, Slice: 0, Ways: 1}}}
	if err := c.Validate(); err == nil || !strings.Contains(err.Error(), "Faults") {
		t.Fatalf("Bandit+Faults must be rejected, got %v", err)
	}

	c = base
	c.Bandit = &bo
	sc := DefaultSampledConfig()
	c.Sampled = &sc
	if err := c.Validate(); err == nil || !strings.Contains(err.Error(), "Sampled") {
		t.Fatalf("Bandit+Sampled must be rejected, got %v", err)
	}

	c = base
	bad := DefaultBanditConfig()
	bad.Strategy = "oracle"
	c.Bandit = &bad
	if err := c.Validate(); err == nil || !strings.Contains(err.Error(), "strategy") {
		t.Fatalf("bad bandit options must fail Validate, got %v", err)
	}

	c = base
	c.Bandit = &bo
	if _, _, err := RunMorphCacheWithController(c, Mix("MIX 01")); err == nil || !strings.Contains(err.Error(), "bandit") {
		t.Fatalf("RunMorphCacheWithController must reject Bandit, got %v", err)
	}
}

// Every non-bandit entry point rejects a set Config.Bandit under its own
// name, batch specs under their policy.
func TestNonBanditEntryPointsRejectBandit(t *testing.T) {
	c := banditTestConfig()
	bo := DefaultBanditConfig()
	c.Bandit = &bo
	w := Mix("MIX 01")
	for _, tc := range []struct {
		entry string
		run   func() (*Result, error)
	}{
		{"RunStatic", func() (*Result, error) { return RunStatic(c, "(4:1:1)", w) }},
		{"RunMorphCache", func() (*Result, error) { return RunMorphCache(c, w) }},
		{"RunMorphCacheNoDegrade", func() (*Result, error) { return RunMorphCacheNoDegrade(c, w) }},
		{"RunMorphCacheWithController", func() (*Result, error) {
			res, _, err := RunMorphCacheWithController(c, w)
			return res, err
		}},
		{"RunPIPP", func() (*Result, error) { return RunPIPP(c, w) }},
		{"RunDSR", func() (*Result, error) { return RunDSR(c, w) }},
		{`Policy "dsr"`, func() (*Result, error) {
			_, err := RunBatch(c, []RunSpec{{Policy: "dsr", Workload: w}}, BatchOptions{Workers: 1})
			return nil, err
		}},
	} {
		_, err := tc.run()
		if err == nil || !strings.Contains(err.Error(), "Bandit") {
			t.Fatalf("%s must reject Bandit, got %v", tc.entry, err)
		}
		if !strings.Contains(err.Error(), tc.entry+" ignores") {
			t.Fatalf("%s error must name its own entry point, got %v", tc.entry, err)
		}
	}
}

// A zoo containing a counter-less arm degrades MPKI/energy rewards to
// throughput with a warning instead of starving those arms with zero
// rewards.
func TestBanditRewardDegradesWithCounterlessArm(t *testing.T) {
	c := banditTestConfig()
	c.Epochs = 4
	bo := DefaultBanditConfig()
	bo.Arms = []string{"pipp", "(4:1:1)"}
	bo.Reward = "mpki"
	bo.WindowEpochs = 2
	c.Bandit = &bo
	res, err := RunBandit(c, Mix("MIX 01"))
	if err != nil {
		t.Fatal(err)
	}
	rep := res.BanditReport
	if rep.Reward != "throughput" || rep.RewardRequested != "mpki" {
		t.Fatalf("expected degradation to throughput, got reward %q (requested %q)", rep.Reward, rep.RewardRequested)
	}
	if len(rep.Warnings) == 0 || !strings.Contains(rep.Warnings[0], "pipp") {
		t.Fatalf("warning must name the counter-less arm, got %v", rep.Warnings)
	}

	// An all-hierarchy zoo keeps the requested reward.
	bo2 := DefaultBanditConfig()
	bo2.Arms = []string{"(4:1:1)", "(1:1:4)"}
	bo2.Reward = "mpki"
	bo2.WindowEpochs = 2
	c.Bandit = &bo2
	res2, err := RunBandit(c, Mix("MIX 01"))
	if err != nil {
		t.Fatal(err)
	}
	if res2.BanditReport.Reward != "mpki" || len(res2.BanditReport.Warnings) != 0 {
		t.Fatalf("all-hierarchy zoo must keep mpki rewards, got %q warnings %v",
			res2.BanditReport.Reward, res2.BanditReport.Warnings)
	}
}

func TestBanditSpecDispatch(t *testing.T) {
	c := banditTestConfig()
	c.Epochs = 4
	bo := DefaultBanditConfig()
	bo.Arms = []string{"(4:1:1)", "(1:1:4)"}
	c.Bandit = &bo
	results, err := RunBatch(c, []RunSpec{{Policy: "bandit", Workload: Mix("MIX 01")}}, BatchOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if results[0].BanditReport == nil {
		t.Fatal("RunSpec policy \"bandit\" must route to RunBandit")
	}
	if results[0].Policy != "bandit" {
		t.Fatalf("policy label %q, want bandit", results[0].Policy)
	}
}

// The facade-level determinism check: the same bandit config over a real
// workload yields byte-identical schedules at different worker counts (the
// run is a single job, but its sub-windows must not depend on timing).
func TestBanditFacadeDeterminism(t *testing.T) {
	c := banditTestConfig()
	c.Epochs = 4
	bo := DefaultBanditConfig()
	bo.Arms = []string{"(4:1:1)", "(1:1:4)", "dsr"}
	bo.WindowEpochs = 1
	c.Bandit = &bo
	var ref *Result
	for i := 0; i < 3; i++ {
		res, err := RunBandit(c, Mix("MIX 01"))
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			ref = res
			continue
		}
		for w := range ref.BanditReport.Windows {
			if res.BanditReport.Windows[w] != ref.BanditReport.Windows[w] {
				t.Fatalf("rerun %d window %d differs: %+v vs %+v", i, w,
					res.BanditReport.Windows[w], ref.BanditReport.Windows[w])
			}
		}
		for e := range ref.EpochThroughputs {
			if res.EpochThroughputs[e] != ref.EpochThroughputs[e] {
				t.Fatalf("rerun %d epoch %d throughput differs", i, e)
			}
		}
	}
}
