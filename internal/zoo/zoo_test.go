package zoo

import (
	"strings"
	"testing"

	"morphcache/internal/core"
	"morphcache/internal/hierarchy"
	"morphcache/internal/sim"
	"morphcache/internal/telemetry"
)

// TestTargetVocabulary pins the whole policy vocabulary: which names build
// which kind of target, the label each reports, the controller options each
// morph variant runs with, and the remote-hit charging of the hierarchy.
// The capability columns decide which bandit reward modes an arm can feed:
// hierarchy-backed targets expose telemetry counters (MPKI) and hierarchy
// stats (energy); the counter-less PIPP/DSR baselines expose neither, so
// those reward modes must degrade.
func TestTargetVocabulary(t *testing.T) {
	p := hierarchy.ScaledDefault(16, 16)
	base := core.DefaultOptions()
	with := func(f func(*core.Options)) core.Options {
		o := base
		f(&o)
		return o
	}
	cases := []struct {
		name     string
		label    string
		counters bool          // telemetry.Snapshotter: usable for MPKI rewards
		hier     bool          // *sim.HierarchyTarget: usable for energy rewards
		remote   bool          // hierarchy charges remote hits
		opts     *core.Options // controller options (nil: no controller)
	}{
		{"(16:1:1)", "(16:1:1)", true, true, false, nil},
		{"(1:1:16)", "(1:1:16)", true, true, false, nil},
		{"4:4:1", "4:4:1", true, true, false, nil},
		{"morph", "MorphCache", true, true, true, &base},
		{"morph-nodegrade", "MorphCache-nodegrade", true, true, true, &base},
		{"morph-qos", "MorphCache", true, true, true,
			ptr(with(func(o *core.Options) { o.QoS = true }))},
		{"morph-split-aggressive", "MorphCache", true, true, true,
			ptr(with(func(o *core.Options) { o.Conflict = core.SplitAggressive }))},
		{"morph-arbitrary", "MorphCache", true, true, true,
			ptr(with(func(o *core.Options) { o.AllowArbitrarySizes = true }))},
		{"morph-nonneighbor", "MorphCache", true, true, true,
			ptr(with(func(o *core.Options) { o.AllowNonNeighbors, o.AllowArbitrarySizes = true, true }))},
		{"pipp", "PIPP", false, false, false, nil},
		{"dsr", "DSR", false, false, false, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			target, err := Target(p, base, tc.name)
			if err != nil {
				t.Fatal(err)
			}
			if got := target.Name(); got != tc.label {
				t.Fatalf("Name() = %q, want %q", got, tc.label)
			}
			if target.Cores() != p.Cores {
				t.Fatalf("Cores() = %d, want %d", target.Cores(), p.Cores)
			}
			if _, ok := target.(telemetry.Snapshotter); ok != tc.counters {
				t.Fatalf("Snapshotter=%v, want %v", ok, tc.counters)
			}
			ht, ok := target.(*sim.HierarchyTarget)
			if ok != tc.hier {
				t.Fatalf("HierarchyTarget=%v, want %v", ok, tc.hier)
			}
			if !ok {
				return
			}
			if got := ht.Sys.Params().ChargeRemote; got != tc.remote {
				t.Fatalf("ChargeRemote=%v, want %v", got, tc.remote)
			}
			ctrl, isCtrl := ht.Policy.(*core.Controller)
			if isCtrl != (tc.opts != nil) {
				t.Fatalf("controller policy=%v, want %v", isCtrl, tc.opts != nil)
			}
			if isCtrl && ctrl.Options() != *tc.opts {
				t.Fatalf("controller options %+v, want %+v", ctrl.Options(), *tc.opts)
			}
		})
	}
}

// Every call builds a fresh target: two builds of one name share no state.
func TestTargetFresh(t *testing.T) {
	p := hierarchy.ScaledDefault(4, 16)
	a, err := Target(p, core.DefaultOptions(), "morph")
	if err != nil {
		t.Fatal(err)
	}
	b, err := Target(p, core.DefaultOptions(), "morph")
	if err != nil {
		t.Fatal(err)
	}
	ha, hb := a.(*sim.HierarchyTarget), b.(*sim.HierarchyTarget)
	if ha.Sys == hb.Sys || ha.Policy == hb.Policy {
		t.Fatal("two builds share a hierarchy or controller")
	}
}

func TestTargetRejects(t *testing.T) {
	p := hierarchy.ScaledDefault(4, 16)
	for _, tc := range []struct{ name, want string }{
		{"bandit", `unknown policy "bandit"`},
		{"morph-turbo", `unknown policy "morph-turbo"`},
		{"", `unknown policy ""`},
		{"(3:3:3)", "implies 27 cores"},
		{"(16:1:1)", "implies 16 cores"},
		{"4:x:1", "bad component"},
	} {
		_, err := Target(p, core.DefaultOptions(), tc.name)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("Target(%q) error %v, want it to contain %q", tc.name, err, tc.want)
		}
	}
}

func ptr(o core.Options) *core.Options { return &o }
