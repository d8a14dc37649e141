// Package core implements the MorphCache controller — the paper's primary
// contribution (§2): an ACFV-driven policy that merges and splits L2/L3
// cache slice groups at every reconfiguration interval.
//
// Decision rules (§2.2–2.4):
//
//   - Merge two neighboring groups when (i) one is highly utilized and the
//     other under-utilized (capacity sharing), or (ii) both are highly
//     utilized, their cores share one address space, and their ACFVs overlap
//     significantly (data sharing). "High" and "low" are the MSAT bounds
//     (default 60%/30% of capacity).
//
//   - Split a merged group when its halves are both highly utilized without
//     sharing (destructive interference), or both under-utilized (the merge
//     is no longer justified and remote-hit latency is pure loss).
//
//   - Correctness coupling: an L2 merge requires the covering L3 groups to
//     be merged (done eagerly — merging L3 is always safe); an L3 split
//     requires every L2 group beneath it to fit in one half (spanning L2
//     groups are split first if they qualify, otherwise the L3 split is
//     abandoned). This preserves inclusion (§2.2–2.3).
//
//   - Conflicts (Fig. 6) resolve per the configured aggressiveness: the
//     default merge-aggressive policy runs merges before splits and exempts
//     freshly merged groups from splitting within the interval;
//     split-aggressive does the reverse.
//
// QoS (§5.3): when enabled, the controller tracks per-core miss counts
// across intervals; a miss increase after a merge throttles the MSAT up
// (toward private), otherwise it relaxes back toward the configured bounds.
//
// Extensions (§5.5): AllowArbitrarySizes admits contiguous non-power-of-two
// groups; AllowNonNeighbors admits any group pair, with the hierarchy
// charging span-scaled bus latency for the physical fabric that must cover
// the gap.
package core

import (
	"fmt"
	"io"
	"sort"

	"morphcache/internal/hierarchy"
	"morphcache/internal/obs"
	"morphcache/internal/telemetry"
	"morphcache/internal/topology"
)

// MSAT is the Merge/Split Aggressiveness Threshold pair (h, l) of §2.2.
type MSAT struct {
	High, Low float64
}

// DefaultMSAT returns the default aggressiveness bounds. The paper's
// empirically chosen value is (60, 30) in units of ACFV bit-fraction, which
// saturates near full occupancy — 60% of ACFV bits set corresponds to an
// active working set at or beyond slice capacity. This simulator's
// utilization signal is an exact capacity fraction (hierarchy/footprint.go),
// so the equivalent operating point is (1.05, 0.45): a thread whose active
// set exceeds its group's capacity is starved ("highly utilized"), one
// below 45% has slack worth donating.
func DefaultMSAT() MSAT { return MSAT{High: 1.05, Low: 0.45} }

// ConflictPolicy arbitrates split/merge conflicts (§2.4).
type ConflictPolicy uint8

const (
	// MergeAggressive favors merges on conflict (the paper's default).
	MergeAggressive ConflictPolicy = iota
	// SplitAggressive favors splits on conflict.
	SplitAggressive
)

func (p ConflictPolicy) String() string {
	if p == SplitAggressive {
		return "split-aggressive"
	}
	return "merge-aggressive"
}

// Options configures a Controller.
type Options struct {
	// MSAT is the starting threshold pair.
	MSAT MSAT
	// Conflict selects the §2.4 arbitration policy.
	Conflict ConflictPolicy
	// OverlapThreshold is the "significant common 1s" bound of merge rule
	// (ii), as the fraction of the smaller footprint that is shared.
	OverlapThreshold float64
	// ShareHigh is the utilization bound of merge rule (ii): sharing-driven
	// merges pay off (replication and coherence savings) well before a
	// thread overflows its slice, so this sits below MSAT.High, which
	// governs the capacity rule (i).
	ShareHigh float64
	// MaxGroup caps the sharing degree (16 = up to all-shared).
	MaxGroup int
	// MaxPasses bounds cascading merge/split rounds per interval.
	MaxPasses int
	// QoS enables MSAT throttling (§5.3).
	QoS bool
	// QoSStep is the per-adjustment threshold delta.
	QoSStep float64
	// AllowArbitrarySizes admits contiguous groups of any size (§5.5).
	AllowArbitrarySizes bool
	// AllowNonNeighbors admits merging non-adjacent groups (§5.5); implies
	// arbitrary sizes.
	AllowNonNeighbors bool
	// Hysteresis widens the thresholds when judging whether an existing
	// merge is still justified, so phase noise at a threshold boundary does
	// not thrash the configuration.
	Hysteresis float64
	// Trace, when non-nil, receives a line per reconfiguration decision
	// (diagnostics).
	Trace io.Writer
}

// DefaultOptions returns the paper's configuration.
func DefaultOptions() Options {
	return Options{
		MSAT:             DefaultMSAT(),
		Conflict:         MergeAggressive,
		OverlapThreshold: 0.15,
		ShareHigh:        0.60,
		MaxGroup:         16,
		MaxPasses:        4,
		QoSStep:          0.05,
		Hysteresis:       0.10,
	}
}

// Decision records one applied reconfiguration operation. It is the
// controller's in-process decision surface: the serve-mode audit plane
// and the telemetry recorder both derive their event streams from the
// same emit/record points that append here.
type Decision struct {
	// Interval is the reconfiguration interval the decision was made in.
	Interval int
	// Level is the cache level reconfigured.
	Level hierarchy.Level
	// Merge is true for a merge, false for a split.
	Merge bool
	// Rule names the decision rule that fired, using the telemetry
	// taxonomy: "capacity", "sharing", "interference", "stale", or
	// "fault" (a forced degradation split).
	Rule string
	// Groups describes the slice groups involved (before the operation).
	Groups string
}

// maxHistory bounds the retained decision log.
const maxHistory = 4096

// Controller is the MorphCache reconfiguration policy; it implements
// Policy over any Machine (the simulated hierarchy or the serve-mode
// cache).
type Controller struct {
	opts Options
	msat MSAT

	// QoS state.
	prevMisses  []uint64
	mergedLast  bool
	throttleUps int

	// Cumulative statistics (§2.4 reporting).
	merges, splits   int
	asymmetricConfig int
	intervals        int

	// lockedL2/L3 mark groups (by canonical first-member key) touched by
	// the favored operation this interval, exempt from the opposing one.
	locked map[lockKey]bool

	// degrade enables the graceful-degradation reactions to injected
	// faults (on by default); quarantined tracks which cores' corrupted
	// monitors have already been announced, so quarantine events fire on
	// transitions only.
	degrade     bool
	quarantined map[int]bool

	history []Decision

	// recorder, when non-nil, receives one telemetry.ReconfigEvent per
	// applied operation (primary and coupled); epoch is the absolute epoch
	// index of the interval being decided, stamped onto events.
	recorder telemetry.Recorder
	epoch    int

	// obs, when non-nil, counts applied merges/splits and fault vetoes in
	// the live metrics registry (DESIGN.md §10). Counting only: observation
	// never alters a decision.
	obs *obs.Observer
}

type lockKey struct {
	level hierarchy.Level
	first int
}

// New returns a controller with the given options.
func New(opts Options) *Controller {
	if opts.MaxGroup <= 0 {
		opts.MaxGroup = 16
	}
	if opts.MaxPasses <= 0 {
		opts.MaxPasses = 4
	}
	return &Controller{opts: opts, msat: opts.MSAT, degrade: true}
}

// Options returns the options the controller runs with (defaults filled).
func (c *Controller) Options() Options { return c.opts }

// Name implements Policy.
func (c *Controller) Name() string {
	if !c.degrade {
		return "MorphCache-nodegrade"
	}
	return "MorphCache"
}

// SetDegradation toggles the graceful-degradation reactions to injected
// faults: quarantining corrupted ACFV monitors, refusing merges across dead
// bus links, and force-splitting groups a dead link cuts in two. On by
// default; the "morph-nodegrade" strawman policy turns it off to measure
// what the reactions are worth on a faulty machine.
func (c *Controller) SetDegradation(on bool) { c.degrade = on }

// SetRecorder implements telemetry.RecorderSettable: every applied
// reconfiguration operation is mirrored to r as a telemetry.ReconfigEvent
// carrying the ACFV inputs (utilizations, overlap) and MSAT bounds that
// produced the decision.
func (c *Controller) SetRecorder(r telemetry.Recorder) { c.recorder = r }

// SetObserver implements obs wiring (see sim.ObserverSettable): applied
// merges and splits, and fault vetoes of either, are counted into the
// observer's reconfiguration counters.
func (c *Controller) SetObserver(o *obs.Observer) { c.obs = o }

// emit mirrors one applied operation to the recorder. The utilization and
// overlap arguments are the decision's inputs, computed before the topology
// changed.
func (c *Controller) emit(l hierarchy.Level, op, rule, groups string, ua, ub, ov float64) {
	if c.recorder == nil {
		return
	}
	c.recorder.RecordReconfig(telemetry.ReconfigEvent{
		Epoch:    c.epoch,
		Level:    l.String(),
		Op:       op,
		Rule:     rule,
		Groups:   groups,
		UtilA:    ua,
		UtilB:    ub,
		Overlap:  ov,
		MSATHigh: c.msat.High,
		MSATLow:  c.msat.Low,
	})
}

// MSATBounds returns the current (possibly throttled) thresholds.
func (c *Controller) MSATBounds() MSAT { return c.msat }

// History returns the retained reconfiguration decisions, oldest first
// (bounded at maxHistory; older entries are dropped).
func (c *Controller) History() []Decision { return c.history }

func (c *Controller) record(l hierarchy.Level, merge bool, rule, groups string) {
	if merge {
		c.obs.CountReconfig("merge")
	} else {
		c.obs.CountReconfig("split")
	}
	if len(c.history) >= maxHistory {
		copy(c.history, c.history[1:])
		c.history = c.history[:maxHistory-1]
	}
	c.history = append(c.history, Decision{
		Interval: c.intervals,
		Level:    l,
		Merge:    merge,
		Rule:     rule,
		Groups:   groups,
	})
}

// Merges and Splits return cumulative operation counts.
func (c *Controller) Merges() int { return c.merges }

// Splits returns the cumulative split count.
func (c *Controller) Splits() int { return c.splits }

// Intervals returns how many reconfiguration intervals the controller has
// processed, and AsymmetricIntervals how many of its reconfiguring
// intervals ended in an asymmetric configuration (§2.4).
func (c *Controller) Intervals() int { return c.intervals }

// AsymmetricIntervals reports the §2.4 asymmetric-outcome count.
func (c *Controller) AsymmetricIntervals() int { return c.asymmetricConfig }

// ThrottleUps reports how many times the QoS guard raised the MSAT (§5.3).
func (c *Controller) ThrottleUps() int { return c.throttleUps }

// EndEpoch implements Policy: it examines the interval's ACFVs and
// reconfigures the machine.
func (c *Controller) EndEpoch(e int, sys Machine) (int, bool) {
	c.epoch = e
	c.intervals++
	c.locked = make(map[lockKey]bool)
	total := 0
	if c.degrade {
		total += c.degradePass(sys)
	}
	if c.opts.QoS {
		total += c.throttle(sys)
	}
	mergedThis := false
	for pass := 0; pass < c.opts.MaxPasses; pass++ {
		var n int
		if c.opts.Conflict == SplitAggressive {
			n = c.trySplits(sys)
			n += c.tryMerges(sys, &mergedThis)
		} else {
			n = c.tryMerges(sys, &mergedThis)
			n += c.trySplits(sys)
		}
		total += n
		if n == 0 {
			break
		}
	}

	if c.opts.QoS {
		c.mergedLast = mergedThis
		c.prevMisses = append(c.prevMisses[:0], sys.PerCoreMisses()...)
	}
	asym := !sys.Topology().IsSymmetric()
	if total > 0 && asym {
		c.asymmetricConfig++
	}
	return total, asym
}

// degradePass applies the graceful-degradation reactions before the
// ordinary merge/split rules run (§ fault model, DESIGN.md): corrupted
// ACFV monitors are quarantined (their garbage readings excluded from
// merge/split decisions via the mergeLevel/splitLevel filters), and any
// group a dead bus link cuts in two is force-split so its intra-group
// traffic stops riding the dead link. Every reaction is mirrored to the
// recorder under rule "fault".
func (c *Controller) degradePass(sys Machine) int {
	if !sys.HasFaults() {
		return 0
	}
	// Quarantine transitions: announce each monitor once on entering the
	// quarantine set and once on leaving it (healing), never in between.
	cur := make(map[int]bool)
	for _, core := range sys.CorruptMonitors() {
		cur[core] = true
		if !c.quarantined[core] {
			c.emit(hierarchy.L2, "quarantine", "fault", fmt.Sprintf("[%d]", core), 0, 0, 0)
		}
	}
	var healed []int
	for core := range c.quarantined {
		if !cur[core] {
			healed = append(healed, core)
		}
	}
	sort.Ints(healed)
	for _, core := range healed {
		c.emit(hierarchy.L2, "quarantine", "fault", fmt.Sprintf("[%d]", core), 0, 0, 0)
	}
	c.quarantined = cur

	// Forced splits: no group may span a dead bus link. L2 first (always
	// safe), then L3 — which forces spanning L2 groups apart regardless of
	// their merge justification (the link under them is gone).
	ops := 0
	for _, l := range []hierarchy.Level{hierarchy.L2, hierarchy.L3} {
		for {
			topo := sys.Topology()
			g := topo.L2
			if l == hierarchy.L3 {
				g = topo.L3
			}
			applied := false
			for gi := 0; gi < g.NumGroups(); gi++ {
				m := g.Members(gi)
				if len(m) < 2 || len(m)%2 != 0 || !sys.SpansDeadLink(l, m) {
					continue
				}
				var u1, u2, ov float64
				if c.recorder != nil {
					h1, h2 := m[:len(m)/2], m[len(m)/2:]
					u1 = sys.CoresUtilization(l, h1)
					u2 = sys.CoresUtilization(l, h2)
					ov = sys.CoresOverlap(l, h1, h2)
				}
				n, ok := c.applySplit(sys, l, gi, true)
				if !ok {
					continue
				}
				ops += n
				c.splits += n
				groups := fmt.Sprintf("%v", m)
				c.record(l, false, "fault", groups)
				c.emit(l, "split", "fault", groups, u1, u2, ov)
				// Keep the severed halves apart for the rest of the interval.
				c.locked[lockKey{l, m[0]}] = true
				c.locked[lockKey{l, m[len(m)/2]}] = true
				applied = true
				break // groupings changed; re-enumerate
			}
			if !applied {
				break
			}
		}
	}
	return ops
}

// mergeBlockedByFault vetoes a merge whose resulting group would span a
// dead bus link, or whose decision inputs include a quarantined monitor
// (garbage in, garbage topology out).
func (c *Controller) mergeBlockedByFault(sys Machine, l hierarchy.Level, ma, mb []int) bool {
	if !c.degrade || !sys.HasFaults() {
		return false
	}
	lo, hi := ma[0], ma[0]
	for _, set := range [][]int{ma, mb} {
		for _, s := range set {
			if s < lo {
				lo = s
			}
			if s > hi {
				hi = s
			}
			if sys.MonitorCorrupt(s) {
				c.obs.CountReconfig("veto")
				return true
			}
		}
	}
	if sys.SpansDeadLink(l, []int{lo, hi}) {
		c.obs.CountReconfig("veto")
		return true
	}
	return false
}

// splitBlockedByFault vetoes ordinary (reading-driven) splits of groups
// whose monitors are quarantined: the readings that would justify the
// split cannot be trusted, so the topology is frozen around the corrupted
// core until the monitor recovers. Forced fault splits bypass this.
func (c *Controller) splitBlockedByFault(sys Machine, m []int) bool {
	if !c.degrade || !sys.HasFaults() {
		return false
	}
	for _, s := range m {
		if sys.MonitorCorrupt(s) {
			c.obs.CountReconfig("veto")
			return true
		}
	}
	return false
}

// throttle implements the §5.3 QoS adjustment: after an interval that
// performed merges, any core whose misses grew materially throttles the
// MSAT up (toward private) — and, concretely retreating toward the private
// configuration for the victims, splits the merged groups the worsened
// cores sit in (unless their halves still genuinely share data). When no
// core got worse, the thresholds relax back toward the configured bounds.
// Returns the number of reconfiguration operations performed.
func (c *Controller) throttle(sys Machine) int {
	if !c.mergedLast || len(c.prevMisses) == 0 {
		return 0
	}
	cur := sys.PerCoreMisses()
	ops := 0
	worse := false
	for i := range cur {
		if c.prevMisses[i] > 1000 && float64(cur[i]) > 1.05*float64(c.prevMisses[i]) {
			worse = true
			ops += c.qosSplitAround(sys, i)
		}
	}
	if worse {
		c.msat.High = minf(c.msat.High+c.opts.QoSStep, 1.6)
		c.msat.Low = maxf(c.msat.Low-c.opts.QoSStep, 0.05)
		c.throttleUps++
	} else {
		c.msat.High = maxf(c.msat.High-c.opts.QoSStep, c.opts.MSAT.High)
		c.msat.Low = minf(c.msat.Low+c.opts.QoSStep, c.opts.MSAT.Low)
	}
	return ops
}

// qosSplitAround splits the merged groups containing a hurt core, L2 first
// (always safe), then its L3 group if the coupling rules allow, and locks
// the results so this interval's merge pass cannot re-form them.
func (c *Controller) qosSplitAround(sys Machine, core int) int {
	ops := 0
	for _, l := range []hierarchy.Level{hierarchy.L2, hierarchy.L3} {
		topo := sys.Topology()
		g := topo.L2
		if l == hierarchy.L3 {
			g = topo.L3
		}
		gi := g.GroupOf(core)
		m := g.Members(gi)
		if len(m) < 2 || len(m)%2 != 0 {
			continue
		}
		h1, h2 := m[:len(m)/2], m[len(m)/2:]
		// Do not break genuine data sharing: the hurt would not come from
		// capacity interference there.
		if sys.SlicesShareASID(h1, h2) && sys.CoresOverlap(l, h1, h2) > c.opts.OverlapThreshold {
			continue
		}
		var u1, u2, ov float64
		if c.recorder != nil {
			u1 = sys.CoresUtilization(l, h1)
			u2 = sys.CoresUtilization(l, h2)
			ov = sys.CoresOverlap(l, h1, h2)
		}
		n, ok := c.applySplit(sys, l, gi, false)
		if ok {
			ops += n
			c.splits += n
			c.locked[lockKey{l, m[0]}] = true
			c.locked[lockKey{l, h2[0]}] = true
			c.emit(l, "split", "qos", fmt.Sprintf("%v", m), u1, u2, ov)
		}
	}
	return ops
}

func minf(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// mergeRule evaluates §2.2's two merge rules over two groups of threads
// (cores map one-to-one to slices), returning the rule that fired —
// "capacity" for rule (i), "sharing" for rule (ii), "" for no merge — along
// with the ACFV inputs compared (utilizations of the two sides and their
// overlap). The margin relaxes the bounds: merge decisions use margin 0,
// while "is this existing merge still justified" checks pass a positive
// margin so that groups are not torn down by boundary flicker (hysteresis).
func (c *Controller) mergeRule(sys Machine, l hierarchy.Level, a, b []int, margin float64) (rule string, ua, ub, ov float64) {
	ua = sys.CoresUtilization(l, a)
	ub = sys.CoresUtilization(l, b)
	ov = sys.CoresOverlap(l, a, b)
	h, lo := c.msat.High-margin, c.msat.Low+margin
	// (i) capacity sharing: one side starved, the other with slack.
	if (ua > h && ub < lo) || (ub > h && ua < lo) {
		return "capacity", ua, ub, ov
	}
	// (ii) data sharing: both hot, one address space, overlapping ACFVs.
	// The overlap bar scales with the resulting group width: a wider shared
	// group gives up more of its access bandwidth, so the sharing it
	// captures must be proportionally larger. L3 traffic is a fraction of
	// L2 traffic, so its bar grows four times more slowly.
	// At least one side must be actively using its capacity; demanding it
	// of both would let one low-phase thread veto a merge that removes
	// cache-to-cache transfers and coherence invalidations for the rest.
	sh := c.opts.ShareHigh - margin
	if (ua > sh || ub > sh) && sys.SlicesShareASID(a, b) {
		bar := c.opts.OverlapThreshold - margin/2
		if l == hierarchy.L2 {
			// The L2 carries every L1 miss, so a wider shared L2 group
			// gives up real bandwidth; the sharing it captures must grow
			// with the width. The L3 sees an order of magnitude less
			// traffic and its sharing merges also remove cache-to-cache
			// transfers, so its bar stays flat.
			bar *= maxf(1, float64(len(a)+len(b))/2)
		}
		if ov > bar {
			return "sharing", ua, ub, ov
		}
	}
	return "", ua, ub, ov
}

// mergeCondition reports whether either §2.2 merge rule fires.
func (c *Controller) mergeCondition(sys Machine, l hierarchy.Level, a, b []int, margin float64) bool {
	rule, _, _, _ := c.mergeRule(sys, l, a, b, margin)
	return rule != ""
}

// splitRule evaluates the §2.3 split rule over a group's two halves (by
// thread demand), returning the rule that fired — "interference" (both
// halves starved without sharing), "stale" (the merge reason has lapsed
// even under the hysteresis margin), "" for no split — along with the ACFV
// inputs compared.
func (c *Controller) splitRule(sys Machine, l hierarchy.Level, h1, h2 []int) (rule string, u1, u2, ov float64) {
	u1 = sys.CoresUtilization(l, h1)
	u2 = sys.CoresUtilization(l, h2)
	ov = sys.CoresOverlap(l, h1, h2)
	h := c.msat.High
	if u1 > h && u2 > h {
		// Destructive interference — unless the halves genuinely share data.
		if sys.SlicesShareASID(h1, h2) && ov > c.opts.OverlapThreshold {
			return "", u1, u2, ov
		}
		return "interference", u1, u2, ov
	}
	// Stale merge: neither an imbalance nor a sharing justification remains
	// within the hysteresis band, so the group pays remote latency for
	// nothing.
	if !c.mergeCondition(sys, l, h1, h2, c.opts.Hysteresis) {
		return "stale", u1, u2, ov
	}
	return "", u1, u2, ov
}

// mergeCandidates enumerates group-id pairs eligible to merge under the
// configured reconfiguration space.
func (c *Controller) mergeCandidates(g topology.Grouping) [][2]int {
	var out [][2]int
	switch {
	case c.opts.AllowNonNeighbors:
		for a := 0; a < g.NumGroups(); a++ {
			for b := a + 1; b < g.NumGroups(); b++ {
				if g.GroupSize(a)+g.GroupSize(b) <= c.opts.MaxGroup {
					out = append(out, [2]int{a, b})
				}
			}
		}
	case c.opts.AllowArbitrarySizes:
		// Adjacent contiguous groups, any sizes.
		for a := 0; a < g.NumGroups(); a++ {
			ma := g.Members(a)
			next := ma[len(ma)-1] + 1
			if next >= g.N() {
				continue
			}
			b := g.GroupOf(next)
			if b != a && g.GroupSize(a)+g.GroupSize(b) <= c.opts.MaxGroup {
				out = append(out, [2]int{a, b})
			}
		}
	default:
		// Aligned power-of-two buddies (private/dual/quad/oct/all modes).
		seen := make(map[[2]int]bool)
		for a := 0; a < g.NumGroups(); a++ {
			b := g.BuddyOf(a)
			if b < 0 || g.GroupSize(a)+g.GroupSize(b) > c.opts.MaxGroup {
				continue
			}
			k := [2]int{min2(a, b), max2(a, b)}
			if !seen[k] {
				seen[k] = true
				out = append(out, k)
			}
		}
	}
	// Deterministic order: by first slice of the lower group.
	sort.Slice(out, func(i, j int) bool {
		return g.Members(out[i][0])[0] < g.Members(out[j][0])[0]
	})
	return out
}

func min2(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func max2(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// tryMerges performs one round of merges at both levels; returns the number
// of reconfiguration operations applied.
func (c *Controller) tryMerges(sys Machine, merged *bool) int {
	n := 0
	// L3-motivated merges first: always safe.
	n += c.mergeLevel(sys, hierarchy.L3)
	// L2 merges, pulling the covering L3 merge along when required.
	n += c.mergeLevel(sys, hierarchy.L2)
	if n > 0 {
		*merged = true
	}
	return n
}

func (c *Controller) mergeLevel(sys Machine, l hierarchy.Level) int {
	n := 0
	for {
		topo := sys.Topology()
		g := topo.L2
		if l == hierarchy.L3 {
			g = topo.L3
		}
		applied := false
		for _, pair := range c.mergeCandidates(g) {
			a, b := pair[0], pair[1]
			ma, mb := g.Members(a), g.Members(b)
			if c.locked[lockKey{l, ma[0]}] || c.locked[lockKey{l, mb[0]}] {
				continue
			}
			if c.mergeBlockedByFault(sys, l, ma, mb) {
				continue
			}
			rule, ua, ub, ov := c.mergeRule(sys, l, ma, mb, 0)
			if rule == "" {
				continue
			}
			ops, ok := c.applyMerge(sys, l, a, b)
			if ok {
				groups := fmt.Sprintf("%v+%v", ma, mb)
				c.record(l, true, rule, groups)
				c.emit(l, "merge", rule, groups, ua, ub, ov)
				if c.opts.Trace != nil {
					// The utilizations are the decision's inputs (pre-apply).
					fmt.Fprintf(c.opts.Trace, "merge %v %v+%v u=(%.2f,%.2f) ov=%.2f\n",
						l, ma, mb, ua, ub, ov)
				}
			}
			if ok {
				n += ops
				c.merges += ops
				applied = true
				break // groupings changed; re-enumerate
			}
		}
		if !applied {
			return n
		}
	}
}

// applyMerge merges groups a and b at the level, first merging the covering
// L3 groups if an L2 merge requires it (§2.2). Returns the number of
// operations performed and whether the merge succeeded.
func (c *Controller) applyMerge(sys Machine, l hierarchy.Level, a, b int) (int, bool) {
	topo := sys.Topology()
	ops := 0
	if l == hierarchy.L2 {
		// Correctness: the merged L2 group must lie inside one L3 group.
		ma, mb := topo.L2.Members(a), topo.L2.Members(b)
		ha := topo.L3.GroupOf(ma[0])
		hb := topo.L3.GroupOf(mb[0])
		if ha != hb {
			if topo.L3.GroupSize(ha)+topo.L3.GroupSize(hb) > c.opts.MaxGroup {
				return 0, false
			}
			mha, mhb := topo.L3.Members(ha), topo.L3.Members(hb)
			if c.mergeBlockedByFault(sys, hierarchy.L3, mha, mhb) {
				return 0, false
			}
			var ua3, ub3, ov3 float64
			if c.recorder != nil {
				ua3 = sys.CoresUtilization(hierarchy.L3, mha)
				ub3 = sys.CoresUtilization(hierarchy.L3, mhb)
				ov3 = sys.CoresOverlap(hierarchy.L3, mha, mhb)
			}
			l3g, err := topo.L3.MergeGroups(ha, hb)
			if err != nil {
				return 0, false
			}
			cand := topology.Topology{L2: topo.L2, L3: l3g}
			if cand.Validate() != nil {
				return 0, false
			}
			if err := sys.SetTopology(cand); err != nil {
				return 0, false
			}
			c.lockFirst(hierarchy.L3, min2(l3gFirst(l3g, ma[0]), l3gFirst(l3g, mb[0])))
			ops++
			c.emit(hierarchy.L3, "merge", "coupling", fmt.Sprintf("%v+%v", mha, mhb), ua3, ub3, ov3)
			topo = sys.Topology()
			a = topo.L2.GroupOf(ma[0])
			b = topo.L2.GroupOf(mb[0])
		}
		l2g, err := topo.L2.MergeGroups(a, b)
		if err != nil {
			return ops, ops > 0
		}
		cand := topology.Topology{L2: l2g, L3: topo.L3}
		if cand.Validate() != nil || sys.SetTopology(cand) != nil {
			return ops, ops > 0
		}
		c.lockFirst(hierarchy.L2, l2gFirst(l2g, ma[0]))
		return ops + 1, true
	}
	// L3 merge: always safe.
	first := topo.L3.Members(a)[0]
	l3g, err := topo.L3.MergeGroups(a, b)
	if err != nil {
		return 0, false
	}
	cand := topology.Topology{L2: topo.L2, L3: l3g}
	if cand.Validate() != nil || sys.SetTopology(cand) != nil {
		return 0, false
	}
	c.lockFirst(hierarchy.L3, l3gFirst(l3g, first))
	return 1, true
}

func l3gFirst(g topology.Grouping, member int) int { return g.Members(g.GroupOf(member))[0] }
func l2gFirst(g topology.Grouping, member int) int { return g.Members(g.GroupOf(member))[0] }

func (c *Controller) lockFirst(l hierarchy.Level, first int) {
	if c.opts.Conflict == MergeAggressive {
		c.locked[lockKey{l, first}] = true
	}
}

// trySplits performs one round of splits at both levels.
func (c *Controller) trySplits(sys Machine) int {
	// L2 splits are always safe; L3 splits may require them, so L2 first.
	n := c.splitLevel(sys, hierarchy.L2)
	n += c.splitLevel(sys, hierarchy.L3)
	return n
}

func (c *Controller) splitLevel(sys Machine, l hierarchy.Level) int {
	n := 0
	for {
		topo := sys.Topology()
		g := topo.L2
		if l == hierarchy.L3 {
			g = topo.L3
		}
		applied := false
		for gi := 0; gi < g.NumGroups(); gi++ {
			m := g.Members(gi)
			if len(m) < 2 || len(m)%2 != 0 {
				continue
			}
			if c.locked[lockKey{l, m[0]}] {
				continue
			}
			if c.splitBlockedByFault(sys, m) {
				continue
			}
			h1, h2 := m[:len(m)/2], m[len(m)/2:]
			rule, u1, u2, ov := c.splitRule(sys, l, h1, h2)
			if rule == "" {
				continue
			}
			ops, ok := c.applySplit(sys, l, gi, false)
			if ok {
				groups := fmt.Sprintf("%v", m)
				c.record(l, false, rule, groups)
				c.emit(l, "split", rule, groups, u1, u2, ov)
				if c.opts.Trace != nil {
					fmt.Fprintf(c.opts.Trace, "split %v %v u=(%.2f,%.2f)\n",
						l, m, u1, u2)
				}
			}
			if ok {
				n += ops
				c.splits += ops
				applied = true
				break
			}
		}
		if !applied {
			return n
		}
	}
}

// applySplit splits group gi at the level, first splitting any L2 groups
// that would span an L3 split's halves — but only if they themselves meet
// the split condition (§2.3). With force (fault degradation), spanning L2
// groups are split apart even when their merge is still justified: the
// link beneath them is physically gone.
func (c *Controller) applySplit(sys Machine, l hierarchy.Level, gi int, force bool) (int, bool) {
	topo := sys.Topology()
	ops := 0
	if l == hierarchy.L3 {
		m := topo.L3.Members(gi)
		half := len(m) / 2
		lowSet := make(map[int]bool, half)
		for _, s := range m[:half] {
			lowSet[s] = true
		}
		// Find L2 groups spanning the halves.
		for _, s := range m {
			l2g := topo.L2.GroupOf(s)
			mm := topo.L2.Members(l2g)
			spans := false
			inLow := lowSet[mm[0]]
			for _, x := range mm {
				if lowSet[x] != inLow {
					spans = true
					break
				}
			}
			if !spans {
				continue
			}
			if len(mm)%2 != 0 {
				return ops, false
			}
			h1, h2 := mm[:len(mm)/2], mm[len(mm)/2:]
			// "Can be split" (§2.3): the spanning L2 group may be forced
			// apart unless its own merge is still actively justified.
			if !force && c.mergeCondition(sys, hierarchy.L2, h1, h2, c.opts.Hysteresis) {
				return ops, false
			}
			var u1f, u2f, ovf float64
			if c.recorder != nil {
				u1f = sys.CoresUtilization(hierarchy.L2, h1)
				u2f = sys.CoresUtilization(hierarchy.L2, h2)
				ovf = sys.CoresOverlap(hierarchy.L2, h1, h2)
			}
			l2split, err := topo.L2.SplitGroup(l2g)
			if err != nil {
				return ops, false
			}
			cand := topology.Topology{L2: l2split, L3: topo.L3}
			if cand.Validate() != nil || sys.SetTopology(cand) != nil {
				return ops, false
			}
			if c.opts.Conflict == SplitAggressive {
				c.locked[lockKey{hierarchy.L2, mm[0]}] = true
				c.locked[lockKey{hierarchy.L2, mm[len(mm)/2]}] = true
			}
			ops++ // the forced L2 split counts as a reconfiguration
			c.emit(hierarchy.L2, "split", "coupling", fmt.Sprintf("%v", mm), u1f, u2f, ovf)
			topo = sys.Topology()
			gi = topo.L3.GroupOf(m[0])
		}
		l3split, err := topo.L3.SplitGroup(gi)
		if err != nil {
			return ops, ops > 0
		}
		cand := topology.Topology{L2: topo.L2, L3: l3split}
		if cand.Validate() != nil || sys.SetTopology(cand) != nil {
			return ops, ops > 0
		}
		if c.opts.Conflict == SplitAggressive {
			c.locked[lockKey{hierarchy.L3, m[0]}] = true
			c.locked[lockKey{hierarchy.L3, m[half]}] = true
		}
		return ops + 1, true
	}
	// L2 split: always safe.
	m := topo.L2.Members(gi)
	l2split, err := topo.L2.SplitGroup(gi)
	if err != nil {
		return 0, false
	}
	cand := topology.Topology{L2: l2split, L3: topo.L3}
	if cand.Validate() != nil || sys.SetTopology(cand) != nil {
		return 0, false
	}
	if c.opts.Conflict == SplitAggressive {
		c.locked[lockKey{hierarchy.L2, m[0]}] = true
		c.locked[lockKey{hierarchy.L2, m[len(m)/2]}] = true
	}
	return 1, true
}
