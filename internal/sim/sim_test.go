package sim

import (
	"bytes"
	"testing"

	"morphcache/internal/core"
	"morphcache/internal/hierarchy"
	"morphcache/internal/mem"
	"morphcache/internal/metrics"
	"morphcache/internal/topology"
	"morphcache/internal/trace"
	"morphcache/internal/workload"
)

func testConfig() Config {
	c := DefaultConfig()
	c.Epochs = 4
	c.WarmupEpochs = 1
	c.EpochCycles = 100_000
	return c
}

func testGens(t *testing.T, mixName string, cores int) []*workload.Generator {
	t.Helper()
	mix, err := workload.MixByName(mixName)
	if err != nil {
		t.Fatal(err)
	}
	mix.Benchmarks = mix.Benchmarks[:cores]
	return workload.MixGenerators(mix, workload.ScaledGenConfig(16), 1)
}

// runOn builds a 4-core hierarchy in the given topology under the policy
// and runs the generators on it.
func runOn(t *testing.T, topo topology.Topology, policy Policy, gens []*workload.Generator) *metrics.Run {
	t.Helper()
	sys, err := hierarchy.New(hierarchy.ScaledDefault(4, 16), topo)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(testConfig(), &HierarchyTarget{Sys: sys, Policy: policy}, gens)
	if err != nil {
		t.Fatal(err)
	}
	return eng.Run()
}

// runStatic runs the generators on a fixed (x:y:z) topology.
func runStatic(t *testing.T, spec string, gens []*workload.Generator) *metrics.Run {
	t.Helper()
	topo, err := topology.FromSpec(spec, 4)
	if err != nil {
		t.Fatal(err)
	}
	return runOn(t, topo, NopPolicy{Label: spec}, gens)
}

func TestRunStaticBasics(t *testing.T) {
	run := runStatic(t, "(4:1:1)", testGens(t, "MIX 01", 4))
	if len(run.Epochs) != 4 {
		t.Fatalf("%d measured epochs, want 4", len(run.Epochs))
	}
	if run.Throughput() <= 0 {
		t.Fatal("throughput must be positive")
	}
	if run.Policy != "(4:1:1)" {
		t.Fatalf("policy label %q", run.Policy)
	}
	if run.Reconfigurations != 0 {
		t.Fatal("static topology must not reconfigure")
	}
	for _, e := range run.Epochs {
		if e.Topology != "(4:1:1)" {
			t.Fatalf("epoch topology %q", e.Topology)
		}
		if len(e.PerCoreIPC) != 4 {
			t.Fatalf("per-core IPCs %d", len(e.PerCoreIPC))
		}
	}
}

func TestDeterministicRuns(t *testing.T) {
	a := runStatic(t, "(1:1:4)", testGens(t, "MIX 02", 4))
	b := runStatic(t, "(1:1:4)", testGens(t, "MIX 02", 4))
	for c := range a.PerCoreIPC {
		if a.PerCoreIPC[c] != b.PerCoreIPC[c] {
			t.Fatalf("non-deterministic IPC for core %d: %v vs %v", c, a.PerCoreIPC[c], b.PerCoreIPC[c])
		}
	}
}

func TestGeneratorCountValidation(t *testing.T) {
	p := hierarchy.ScaledDefault(4, 16)
	sys, err := hierarchy.New(p, topology.AllPrivate(4))
	if err != nil {
		t.Fatal(err)
	}
	_, err = New(testConfig(), &HierarchyTarget{Sys: sys, Policy: NopPolicy{}}, testGens(t, "MIX 01", 2))
	if err == nil {
		t.Fatal("mismatched generator count must be rejected")
	}
	bad := testConfig()
	bad.Epochs = 0
	_, err = New(bad, &HierarchyTarget{Sys: sys, Policy: NopPolicy{}}, testGens(t, "MIX 01", 4))
	if err == nil {
		t.Fatal("zero epochs must be rejected")
	}
}

// countingPolicy verifies the engine's policy/epoch contract.
type countingPolicy struct {
	calls  int
	epochs []int
}

func (p *countingPolicy) Name() string { return "counting" }
func (p *countingPolicy) EndEpoch(e int, _ core.Machine) (int, bool) {
	p.calls++
	p.epochs = append(p.epochs, e)
	return 1, true // pretend every interval reconfigured asymmetrically
}

func TestPolicyContract(t *testing.T) {
	p := hierarchy.ScaledDefault(4, 16)
	sys, err := hierarchy.New(p, topology.AllPrivate(4))
	if err != nil {
		t.Fatal(err)
	}
	cp := &countingPolicy{}
	eng, err := New(testConfig(), &HierarchyTarget{Sys: sys, Policy: cp}, testGens(t, "MIX 01", 4))
	if err != nil {
		t.Fatal(err)
	}
	run := eng.Run()
	// EndEpoch fires after every epoch, warmup included.
	if cp.calls != 5 {
		t.Fatalf("policy called %d times, want 5 (1 warmup + 4 measured)", cp.calls)
	}
	// Only measured intervals count toward the statistics.
	if run.Reconfigurations != 4 || run.AsymmetricSteps != 4 {
		t.Fatalf("reconfig stats %d/%d, want 4/4", run.Reconfigurations, run.AsymmetricSteps)
	}
}

// An all-private hierarchy (MorphCache's starting point, §2.2) reports
// itself as (1:1:n) every epoch while its policy leaves it alone.
func TestRunPolicyStartsPrivate(t *testing.T) {
	run := runOn(t, topology.AllPrivate(4), NopPolicy{Label: "nop"}, testGens(t, "MIX 03", 4))
	for _, e := range run.Epochs {
		if e.Topology != "(1:1:4)" {
			t.Fatalf("policy runs start all-private (§2.2), got %q", e.Topology)
		}
	}
}

func TestSoloIPC(t *testing.T) {
	prof, err := workload.ByName("namd")
	if err != nil {
		t.Fatal(err)
	}
	ipc, err := SoloIPC(testConfig(), hierarchy.ScaledDefault(16, 16), prof, workload.ScaledGenConfig(16))
	if err != nil {
		t.Fatal(err)
	}
	if ipc <= 0 || ipc > 4 {
		t.Fatalf("solo IPC %v outside (0, issue width]", ipc)
	}
}

func TestVirtualTimeInterleaving(t *testing.T) {
	// A target that records access order must see cores interleaved, not
	// one core running an epoch alone.
	p := hierarchy.ScaledDefault(4, 16)
	sys, err := hierarchy.New(p, topology.AllPrivate(4))
	if err != nil {
		t.Fatal(err)
	}
	rec := &recordingTarget{inner: &HierarchyTarget{Sys: sys, Policy: NopPolicy{}}}
	cfg := testConfig()
	cfg.Epochs, cfg.WarmupEpochs = 1, 0
	eng, err := New(cfg, rec, testGens(t, "MIX 01", 4))
	if err != nil {
		t.Fatal(err)
	}
	eng.Run()
	switches := 0
	for i := 1; i < len(rec.order); i++ {
		if rec.order[i] != rec.order[i-1] {
			switches++
		}
	}
	if switches < len(rec.order)/8 {
		t.Fatalf("cores barely interleave: %d switches over %d accesses", switches, len(rec.order))
	}
}

type recordingTarget struct {
	inner *HierarchyTarget
	order []int
}

func (r *recordingTarget) Name() string { return "recording" }
func (r *recordingTarget) Cores() int   { return r.inner.Cores() }
func (r *recordingTarget) SetCoreASID(c int, a mem.ASID) {
	r.inner.SetCoreASID(c, a)
}
func (r *recordingTarget) Access(c int, a mem.Access, now uint64) hierarchy.AccessResult {
	r.order = append(r.order, c)
	return r.inner.Access(c, a, now)
}
func (r *recordingTarget) EndEpoch(e int) (int, bool) { return r.inner.EndEpoch(e) }
func (r *recordingTarget) Spec() string               { return r.inner.Spec() }

// flatTarget is a 1-core target with a fixed access latency, for exact
// cycle-accounting tests.
type flatTarget struct {
	latency  int
	accesses int
}

func (f *flatTarget) Name() string              { return "flat" }
func (f *flatTarget) Cores() int                { return 1 }
func (f *flatTarget) SetCoreASID(int, mem.ASID) {}
func (f *flatTarget) EndEpoch(int) (int, bool)  { return 0, false }
func (f *flatTarget) Spec() string              { return "(1:1:1)" }
func (f *flatTarget) Access(int, mem.Access, uint64) hierarchy.AccessResult {
	f.accesses++
	return hierarchy.AccessResult{Latency: f.latency}
}

// flatSource emits the same line forever.
type flatSource struct{}

func (flatSource) ASID() mem.ASID   { return 1 }
func (flatSource) BeginEpoch(int)   {}
func (flatSource) Next() mem.Access { return mem.Access{Line: 1, ASID: 1} }

// TestFractionalGapCycles checks the engine charges the exact average
// GapInstr/IssueWidth compute gap instead of truncating it: GapInstr=10 at
// IssueWidth=4 must cost 2.5 cycles per reference on average (alternating
// 2 and 3), so 1000 zero-latency cycles fit exactly 400 references — not
// the 500 that integer truncation to 2 cycles used to admit.
func TestFractionalGapCycles(t *testing.T) {
	cfg := Config{EpochCycles: 1000, Epochs: 1, GapInstr: 10, IssueWidth: 4, Seed: 1}
	ft := &flatTarget{latency: 0}
	eng, err := NewFromSources(cfg, ft, []Source{flatSource{}})
	if err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if ft.accesses != 400 {
		t.Fatalf("%d accesses in 1000 cycles at 2.5 cycles/gap, want 400", ft.accesses)
	}

	// The exactly-divisible default (8/4 = 2.0) must be unchanged: 500
	// references in the same window (paper-metric parity with the seed).
	cfg.GapInstr, cfg.IssueWidth = 8, 4
	ft = &flatTarget{latency: 0}
	eng, err = NewFromSources(cfg, ft, []Source{flatSource{}})
	if err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if ft.accesses != 500 {
		t.Fatalf("%d accesses at 2.0 cycles/gap, want 500", ft.accesses)
	}

	// Sub-cycle gaps (GapInstr < IssueWidth) now charge their true average
	// too: 2/4 = 0.5 cycles per reference with 1-cycle latency = 1.5
	// cycles/reference, so 1000 cycles fit 667 references (the old
	// clamp-to-1 model admitted only 500).
	cfg.GapInstr, cfg.IssueWidth = 2, 4
	ft = &flatTarget{latency: 1}
	eng, err = NewFromSources(cfg, ft, []Source{flatSource{}})
	if err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if ft.accesses != 667 {
		t.Fatalf("%d accesses at 1.5 cycles/reference, want 667", ft.accesses)
	}
}

// TestGapModelValidation checks degenerate gap parameters are rejected.
func TestGapModelValidation(t *testing.T) {
	for _, cfg := range []Config{
		{EpochCycles: 1000, Epochs: 1, GapInstr: 8, IssueWidth: 0},
		{EpochCycles: 1000, Epochs: 1, GapInstr: -1, IssueWidth: 4},
	} {
		if _, err := NewFromSources(cfg, &flatTarget{}, []Source{flatSource{}}); err == nil {
			t.Fatalf("config %+v must be rejected", cfg)
		}
	}
}

// recordingSource mirrors a source's output into a trace writer (the same
// interposition cmd/morphsim uses for -trace-out).
type recordingSource struct {
	inner Source
	core  int
	w     *trace.Writer
	t     *testing.T
}

func (r *recordingSource) ASID() mem.ASID { return r.inner.ASID() }
func (r *recordingSource) BeginEpoch(e int) {
	if e > 0 && r.core == 0 {
		if err := r.w.EpochBoundary(); err != nil {
			r.t.Fatal(err)
		}
	}
	r.inner.BeginEpoch(e)
}
func (r *recordingSource) Next() mem.Access {
	a := r.inner.Next()
	if err := r.w.Record(r.core, a); err != nil {
		r.t.Fatal(err)
	}
	return a
}

func TestEngineWithTraceSources(t *testing.T) {
	// Record the references an actual run consumes, then drive a second run
	// from the trace: the replay must reproduce the throughput exactly.
	cfg := testConfig()
	run := func(srcs []Source) float64 {
		p := hierarchy.ScaledDefault(4, 16)
		sys, err := hierarchy.New(p, topology.AllPrivate(4))
		if err != nil {
			t.Fatal(err)
		}
		eng, err := NewFromSources(cfg, &HierarchyTarget{Sys: sys, Policy: NopPolicy{Label: "replay"}}, srcs)
		if err != nil {
			t.Fatal(err)
		}
		return eng.Run().Throughput()
	}

	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf, 4)
	if err != nil {
		t.Fatal(err)
	}
	recorded := make([]Source, 4)
	for c, g := range testGens(t, "MIX 01", 4) {
		recorded[c] = &recordingSource{inner: g, core: c, w: w, t: t}
	}
	want := run(recorded)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	tr, err := trace.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	srcs := make([]Source, 4)
	for c := 0; c < 4; c++ {
		cur, err := tr.Cursor(c)
		if err != nil {
			t.Fatal(err)
		}
		srcs[c] = cur
	}
	got := run(srcs)
	if got != want {
		t.Fatalf("trace replay throughput %v != live %v", got, want)
	}
}
