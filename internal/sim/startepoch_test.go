package sim

import (
	"reflect"
	"testing"

	"morphcache/internal/hierarchy"
	"morphcache/internal/mem"
	"morphcache/internal/metrics"
)

// streamCapture records the access sequence each epoch feeds the target, so
// a resumed run's stream can be compared against the full run's at the same
// absolute epoch.
type streamCapture struct {
	cur     []mem.Access
	byEpoch map[int][]mem.Access
}

func newStreamCapture() *streamCapture {
	return &streamCapture{byEpoch: map[int][]mem.Access{}}
}

func (s *streamCapture) Name() string              { return "capture" }
func (s *streamCapture) Cores() int                { return 1 }
func (s *streamCapture) SetCoreASID(int, mem.ASID) {}
func (s *streamCapture) Spec() string              { return "(1:1:1)" }
func (s *streamCapture) Access(_ int, a mem.Access, _ uint64) hierarchy.AccessResult {
	s.cur = append(s.cur, a)
	return hierarchy.AccessResult{Latency: 1}
}
func (s *streamCapture) EndEpoch(e int) (int, bool) {
	s.byEpoch[e] = s.cur
	s.cur = nil
	return 0, false
}

// workloadStreamLen mirrors internal/workload's streaming-region size (2 Mi
// lines): the one generator state that persists across epochs is the
// streaming cursor, so resumed streaming accesses are the full run's shifted
// by a constant offset modulo this length.
const workloadStreamLen = 0x0020_0000

// TestStartEpochResumesStream is the soundness check behind sampled
// simulation: an engine resumed at absolute epoch r must drive the target
// with the reference stream the full run produced at epoch r — identical in
// length, access kinds, and every non-streaming line, with streaming lines
// offset by one constant cursor shift (the documented approximation).
func TestStartEpochResumesStream(t *testing.T) {
	cfg := Config{EpochCycles: 20_000, Epochs: 4, GapInstr: 8, IssueWidth: 4, Seed: 7}
	gens := func() []Source { return FromGenerators(testGens(t, "MIX 03", 1)) }

	full := newStreamCapture()
	eng, err := NewFromSources(cfg, full, gens())
	if err != nil {
		t.Fatal(err)
	}
	eng.Run()

	rcfg := cfg
	rcfg.StartEpoch = 2
	rcfg.Epochs = 2
	resumed := newStreamCapture()
	eng, err = NewFromSources(rcfg, resumed, gens())
	if err != nil {
		t.Fatal(err)
	}
	run := eng.Run()

	f2, r2 := full.byEpoch[2], resumed.byEpoch[2]
	// The full run may enter epoch 2 with a reference still in flight from
	// epoch 1 (cycle debt), costing it at most one trailing reference versus
	// the cleanly started window; both sources reseed at BeginEpoch(2), so
	// the streams align position by position regardless.
	n := len(f2)
	if len(r2) < n {
		n = len(r2)
	}
	if n == 0 || len(f2)-len(r2) > 1 || len(r2)-len(f2) > 1 {
		t.Fatalf("epoch-2 stream lengths: full %d, resumed %d", len(f2), len(r2))
	}
	shift, haveShift := uint64(0), false
	for i := 0; i < n; i++ {
		if f2[i].Kind != r2[i].Kind || f2[i].ASID != r2[i].ASID {
			t.Fatalf("ref %d: kind/ASID diverged (%+v vs %+v)", i, f2[i], r2[i])
		}
		if f2[i].Line == r2[i].Line {
			continue
		}
		d := (uint64(f2[i].Line) + workloadStreamLen - uint64(r2[i].Line)) % workloadStreamLen
		if !haveShift {
			shift, haveShift = d, true
		} else if d != shift {
			t.Fatalf("ref %d: line delta %d is not the constant streaming shift %d", i, d, shift)
		}
	}
	if reflect.DeepEqual(full.byEpoch[0], f2) {
		t.Fatal("epochs 0 and 2 produced identical streams; the resume check is vacuous")
	}
	// Measured-epoch indexing stays window-relative: the resumed run's two
	// epochs report as indices 0 and 1.
	if len(run.Epochs) != 2 || run.Epochs[0].Index != 0 || run.Epochs[1].Index != 1 {
		t.Fatalf("resumed run epochs %+v", run.Epochs)
	}
}

// TestStartEpochWithWarmup runs resumed windows both through the raw
// engine configuration and through RunWindow, whose warmup is capped at the
// window start: a window at epoch 1 warms up on epoch 0 only, and one at
// epoch 0 has no warmup at all.
func TestStartEpochWithWarmup(t *testing.T) {
	cfg := Config{EpochCycles: 10_000, Epochs: 1, GapInstr: 8, IssueWidth: 4, Seed: 7}
	cases := []struct {
		name          string
		run           func(Target, []Source) (*metrics.Run, error)
		simulated     []int // absolute epochs the window must simulate
		measuredEpoch int
	}{
		{"engine start 3 warmup 2", func(tg Target, srcs []Source) (*metrics.Run, error) {
			c := cfg
			c.StartEpoch, c.WarmupEpochs = 3, 2
			eng, err := NewFromSources(c, tg, srcs)
			if err != nil {
				return nil, err
			}
			return eng.Run(), nil
		}, []int{3, 4, 5}, 5},
		{"window 5 warmup 2", func(tg Target, srcs []Source) (*metrics.Run, error) {
			return RunWindow(cfg, 5, 2, 1, tg, srcs)
		}, []int{3, 4, 5}, 5},
		{"window 1 warmup 2 (capped)", func(tg Target, srcs []Source) (*metrics.Run, error) {
			return RunWindow(cfg, 1, 2, 1, tg, srcs)
		}, []int{0, 1}, 1},
		{"window 0 warmup 2 (capped)", func(tg Target, srcs []Source) (*metrics.Run, error) {
			return RunWindow(cfg, 0, 2, 1, tg, srcs)
		}, []int{0}, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cap := newStreamCapture()
			run, err := tc.run(cap, FromGenerators(testGens(t, "MIX 01", 1)))
			if err != nil {
				t.Fatal(err)
			}
			if len(cap.byEpoch) != len(tc.simulated) {
				t.Fatalf("simulated %d epochs, want %v", len(cap.byEpoch), tc.simulated)
			}
			for _, e := range tc.simulated {
				if len(cap.byEpoch[e]) == 0 {
					t.Fatalf("absolute epoch %d not simulated (have %d epochs)", e, len(cap.byEpoch))
				}
			}
			if len(run.Epochs) != 1 || run.Epochs[0].Index != 0 {
				t.Fatalf("measured epochs %+v", run.Epochs)
			}
			// The measured epoch is the window's last: its stream is the
			// full run's epoch measuredEpoch, not a warmup epoch's.
			last := tc.simulated[len(tc.simulated)-1]
			if last != tc.measuredEpoch {
				t.Fatalf("last simulated epoch %d, want measured epoch %d", last, tc.measuredEpoch)
			}
		})
	}
}

func TestStartEpochValidation(t *testing.T) {
	cfg := testConfig()
	cfg.StartEpoch = -1
	if _, err := NewFromSources(cfg, newStreamCapture(), FromGenerators(testGens(t, "MIX 01", 1))); err == nil {
		t.Fatal("negative StartEpoch accepted")
	}
	for _, tc := range []struct{ start, warmup, epochs int }{
		{-1, 0, 1}, // window before the run
		{2, -1, 1}, // negative warmup
		{2, 1, 0},  // no measured epochs
	} {
		if _, err := RunWindow(testConfig(), tc.start, tc.warmup, tc.epochs, newStreamCapture(), FromGenerators(testGens(t, "MIX 01", 1))); err == nil {
			t.Fatalf("RunWindow(start %d, warmup %d, epochs %d) accepted", tc.start, tc.warmup, tc.epochs)
		}
	}
}
