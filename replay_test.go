package morphcache

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"morphcache/internal/trace"
)

// recordRun runs one spec with its streams recorded into a fresh trace
// file and returns the result and the file's path.
func recordRun(t *testing.T, cfg Config, spec RunSpec) (*Result, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "run.mctr")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if spec.Record, err = trace.NewWriter(f, cfg.Cores); err != nil {
		t.Fatal(err)
	}
	res, err := RunBatch(cfg, []RunSpec{spec}, BatchOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	return res[0], path
}

// TestRecordReplayRoundTrip checks that replaying a recorded run under the
// same policy reproduces it exactly, and that recording changes nothing.
func TestRecordReplayRoundTrip(t *testing.T) {
	cfg := batchTestConfig()
	spec := RunSpec{Policy: "morph", Workload: Mix("MIX 05")}
	recorded, path := recordRun(t, cfg, spec)
	plain, err := RunMorphCache(cfg, Mix("MIX 05"))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(recorded, plain) {
		t.Fatal("recording changed the run's result")
	}
	w, err := Replay(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := w.String(); got != "trace:"+path {
		t.Errorf("String() = %q, want %q", got, "trace:"+path)
	}
	if got := (RunSpec{Policy: "dsr", Workload: w}).Label(); got != "dsr trace:"+path {
		t.Errorf("Label() = %q", got)
	}
	replayed, err := RunMorphCache(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(replayed, plain) {
		t.Fatalf("replay diverged: throughput %.4f, recorded %.4f", replayed.Throughput, plain.Throughput)
	}
	if _, err := w.Generators(cfg); err == nil {
		t.Error("a replay workload returned generators")
	}
	small := cfg
	small.Cores = 8
	if _, err := RunStatic(small, "(8:1:1)", w); err == nil || !strings.Contains(err.Error(), "trace has 16 cores") {
		t.Errorf("core-count mismatch: err = %v", err)
	}
}

// TestRecordWriteErrorFailsRun checks that a recording that cannot be
// written fails the run instead of stopping the process.
func TestRecordWriteErrorFailsRun(t *testing.T) {
	cfg := batchTestConfig()
	path := filepath.Join(t.TempDir(), "run.mctr")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := trace.NewWriter(f, cfg.Cores)
	if err != nil {
		t.Fatal(err)
	}
	f.Close() // every buffered write now fails
	_, err = RunBatch(cfg, []RunSpec{{Policy: "(16:1:1)", Workload: Mix("MIX 01"), Record: rec}}, BatchOptions{Workers: 1})
	if err == nil || !strings.Contains(err.Error(), "record trace") {
		t.Fatalf("err = %v, want a record trace error", err)
	}
}

// TestReplayAndRecordNeedFullRuns checks the one windowed-mode rejection.
func TestReplayAndRecordNeedFullRuns(t *testing.T) {
	cfg := batchTestConfig()
	_, path := recordRun(t, cfg, RunSpec{Policy: "(16:1:1)", Workload: Mix("MIX 01")})
	w, err := Replay(path)
	if err != nil {
		t.Fatal(err)
	}
	sampled := cfg
	sc := DefaultSampledConfig()
	sampled.Sampled = &sc
	rec, _ := trace.NewWriter(new(strings.Builder), cfg.Cores)
	cases := map[string]struct {
		cfg  Config
		spec RunSpec
	}{
		"sampled replay": {sampled, RunSpec{Policy: "morph", Workload: w}},
		"sampled record": {sampled, RunSpec{Policy: "morph", Workload: Mix("MIX 01"), Record: rec}},
		"bandit replay":  {cfg, RunSpec{Policy: "bandit", Workload: w}},
		"bandit record":  {cfg, RunSpec{Policy: "bandit", Workload: Mix("MIX 01"), Record: rec}},
	}
	for name, tc := range cases {
		_, err := RunBatch(tc.cfg, []RunSpec{tc.spec}, BatchOptions{Workers: 1})
		if err == nil || !strings.Contains(err.Error(), "need one full run") {
			t.Errorf("%s: err = %v", name, err)
		}
	}
	if rec.Records() != 0 {
		t.Errorf("a rejected run recorded %d references", rec.Records())
	}
}

// TestResultHierarchyCounters checks that full runs on one hierarchy
// carry its final counters and every other run carries none.
func TestResultHierarchyCounters(t *testing.T) {
	cfg := batchTestConfig()
	for _, policy := range []string{"(4:4:1)", "morph"} {
		res, err := RunBatch(cfg, []RunSpec{{Policy: policy, Workload: Mix("MIX 01")}}, BatchOptions{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		r := res[0]
		if r.Hierarchy == nil || r.Hierarchy.Accesses == 0 || len(r.PerCore) != cfg.Cores {
			t.Fatalf("%s: hierarchy counters missing (%v, %d cores)", policy, r.Hierarchy, len(r.PerCore))
		}
		var sum uint64
		for _, c := range r.PerCore {
			sum += c.Accesses
		}
		if sum != r.Hierarchy.Accesses {
			t.Errorf("%s: per-core accesses sum to %d, hierarchy counted %d", policy, sum, r.Hierarchy.Accesses)
		}
	}
	sampled := cfg
	sc := DefaultSampledConfig()
	sampled.Sampled = &sc
	sampled.Epochs = 8
	for name, run := range map[string]func() (*Result, error){
		"pipp":    func() (*Result, error) { return RunPIPP(cfg, Mix("MIX 01")) },
		"dsr":     func() (*Result, error) { return RunDSR(cfg, Mix("MIX 01")) },
		"sampled": func() (*Result, error) { return RunMorphCache(sampled, Mix("MIX 01")) },
		"bandit":  func() (*Result, error) { return RunBandit(cfg, Mix("MIX 01")) },
	} {
		r, err := run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if r.Hierarchy != nil || r.PerCore != nil {
			t.Errorf("%s: carries hierarchy counters", name)
		}
	}
}
