// Package bus implements MorphCache's reconfigurable interconnect (§3): a
// segmented bus per cache level whose adjacent segments are connected or
// isolated by switches, with hierarchical round-robin arbitration performed
// by a binary tree of identical 2-input arbiters (Fig. 9–11).
//
// Two views are provided:
//
//   - a functional, cycle-stepped model (ArbiterTree, SegmentedBus) that
//     reproduces the protocol — per-node Lastgnt round-robin state, Fwdreq
//     propagation up to each segment group's root, one grant per isolated
//     group per transaction, and the 3-bus-cycle request/grant/transfer
//     timing — and is used both by the hierarchy's contention accounting and
//     by the protocol property tests; and
//
//   - an analytical physical model (physical.go) that derives the bus clock
//     and the CPU-cycle overhead of a merged-slice access from the Table 1
//     technology parameters and the Fig. 12 floorplan.
package bus

import (
	"fmt"
	"math/bits"

	"morphcache/internal/topology"
)

// ArbiterTree is the hierarchy of 2-input arbiters over n leaves (cache
// slices), n a power of two. Node 1 is the root; node i has children 2i and
// 2i+1; the leaves of the subtree rooted at a level-k node (k = 1 at the
// leaf-most arbiter level) are the 2^k slices it covers.
//
// Segmentation is expressed exactly as in the paper: each arbiter's Fwdreq
// input says whether it forwards its request upward. Arbiters whose span
// lies strictly inside a segment group forward; the arbiter whose span
// equals the group is that group's root and grants autonomously. Groups must
// therefore be aligned power-of-two runs — the same reconfiguration space
// the switches can isolate.
type ArbiterTree struct {
	leaves int
	// lastGnt[i] is the round-robin state of internal node i (1-based heap
	// indexing): 0 means input 0 (left) was granted last.
	lastGnt []uint8
	// rootNode[g] is the heap index of group g's root arbiter, or 0 for a
	// singleton group (which needs no arbitration).
	rootNode []int
	grouping topology.Grouping
}

// NewArbiterTree builds a tree over n leaves (n must be a power of two ≥ 1)
// configured with every slice private.
func NewArbiterTree(n int) *ArbiterTree {
	if n < 1 || n&(n-1) != 0 {
		panic(fmt.Sprintf("bus: leaf count %d not a power of two", n))
	}
	t := &ArbiterTree{
		leaves:  n,
		lastGnt: make([]uint8, 2*n), // nodes 1..n-1 used; sized generously
	}
	t.Configure(topology.Private(n))
	return t
}

// Leaves returns the number of leaves.
func (t *ArbiterTree) Leaves() int { return t.leaves }

// NumArbiters returns the number of 2-input arbiters in a full tree over
// the leaves (n-1), matching the paper's counts: 7 for 8 slices, 15 for 16.
func (t *ArbiterTree) NumArbiters() int { return t.leaves - 1 }

// Levels returns the tree depth in arbiter levels: 3 for 8 leaves, 4 for 16.
func (t *ArbiterTree) Levels() int { return bits.Len(uint(t.leaves)) - 1 }

// Configure programs the Fwdreq/Share signals for a new segment grouping.
// Every group must be an aligned power-of-two contiguous run.
func (t *ArbiterTree) Configure(g topology.Grouping) error {
	if g.N() != t.leaves {
		return fmt.Errorf("bus: grouping over %d slices, tree has %d", g.N(), t.leaves)
	}
	if !g.IsBuddyGrouping() {
		return fmt.Errorf("bus: grouping %v not aligned power-of-two segments", g)
	}
	roots := make([]int, g.NumGroups())
	for gi := range roots {
		m := g.Members(gi)
		sz := len(m)
		if sz == 1 {
			roots[gi] = 0
			continue
		}
		// The node covering span [m[0], m[0]+sz) at height log2(sz): heap
		// index = leaves/sz + m[0]/sz.
		roots[gi] = t.leaves/sz + m[0]/sz
	}
	t.rootNode = roots
	t.grouping = g
	return nil
}

// Grouping returns the current segment configuration.
func (t *ArbiterTree) Grouping() topology.Grouping { return t.grouping }

// Arbitrate performs one arbitration round: given the per-leaf request
// lines, it returns the granted leaf for each group (indexed by group id;
// -1 if the group has no requester). Round-robin Lastgnt state is updated at
// every arbiter that made a choice, exactly as the Fig. 10 arbiter does.
func (t *ArbiterTree) Arbitrate(req []bool) []int {
	if len(req) != t.leaves {
		panic("bus: request vector length mismatch")
	}
	winners := make([]int, t.grouping.NumGroups())
	for gi := range winners {
		m := t.grouping.Members(gi)
		if len(m) == 1 {
			if req[m[0]] {
				winners[gi] = m[0]
			} else {
				winners[gi] = -1
			}
			continue
		}
		winners[gi] = t.grantDown(t.rootNode[gi], req)
	}
	return winners
}

// grantDown walks from an arbiter down to a requesting leaf, applying
// round-robin at each node with two pending request inputs.
func (t *ArbiterTree) grantDown(node int, req []bool) int {
	lo, hi := t.span(node)
	if hi-lo == 1 {
		if req[lo] {
			return lo
		}
		return -1
	}
	left, right := 2*node, 2*node+1
	lReq := t.anyReq(left, req)
	rReq := t.anyReq(right, req)
	switch {
	case !lReq && !rReq:
		return -1
	case lReq && !rReq:
		t.lastGnt[node] = 0
		return t.grantDown(left, req)
	case !lReq && rReq:
		t.lastGnt[node] = 1
		return t.grantDown(right, req)
	default:
		// Both request: grant the input not granted last time.
		if t.lastGnt[node] == 0 {
			t.lastGnt[node] = 1
			return t.grantDown(right, req)
		}
		t.lastGnt[node] = 0
		return t.grantDown(left, req)
	}
}

// span returns the leaf interval [lo, hi) covered by a heap node. Nodes with
// index >= leaves are leaves themselves.
func (t *ArbiterTree) span(node int) (lo, hi int) {
	level := bits.Len(uint(node)) - 1 // root is level 0
	size := t.leaves >> uint(level)
	first := (node - 1<<uint(level)) * size
	return first, first + size
}

func (t *ArbiterTree) anyReq(node int, req []bool) bool {
	lo, hi := t.span(node)
	for i := lo; i < hi; i++ {
		if req[i] {
			return true
		}
	}
	return false
}

// Timing collects the bus transaction cycle counts of §3.2.
type Timing struct {
	// RequestGrantCycles is the bus cycles between raising a request and
	// receiving the grant (2 in the paper).
	RequestGrantCycles int
	// TransferCycles is the data transfer time for one 64-byte block over
	// the 64-byte-wide bus (1 cycle).
	TransferCycles int
	// CPUPerBusCycle is the core-to-bus clock ratio (5 GHz core / 1 GHz bus).
	CPUPerBusCycle int
	// Pipelined overlaps the first cycles of the next arbitration with the
	// previous data transfer, reducing the per-transaction overhead from 15
	// to 10 CPU cycles (§3.2 footnote).
	Pipelined bool
}

// DefaultTiming returns the paper's timing: 2+1 bus cycles at a 1 GHz bus
// under a 5 GHz core, unpipelined.
func DefaultTiming() Timing {
	return Timing{RequestGrantCycles: 2, TransferCycles: 1, CPUPerBusCycle: 5}
}

// BusCycles returns the bus cycles one transaction occupies.
func (t Timing) BusCycles() int { return t.RequestGrantCycles + t.TransferCycles }

// OverheadCPUCycles returns the CPU-cycle overhead a merged (remote) slice
// access pays for the segmented bus: 15 unpipelined, 10 pipelined.
func (t Timing) OverheadCPUCycles() int {
	c := t.BusCycles() * t.CPUPerBusCycle
	if t.Pipelined {
		c -= t.CPUPerBusCycle
	}
	return c
}

// SegmentedBus models one level's segmented bus with per-group serialization
// (a group's segments form one shared medium; isolated groups proceed in
// parallel, which is the bandwidth benefit of segmentation).
type SegmentedBus struct {
	tree   *ArbiterTree
	timing Timing
	// busyUntil[g] is the CPU cycle at which group g's bus frees up.
	busyUntil []uint64
	stats     BusStats
	// linkSlow[l] is the fault-injected occupancy multiplier of the link
	// between slices l and l+1: 1 healthy, >1 degraded, DeadLinkFactor
	// dead (traffic is re-routed/retried over the stalled segment). Nil
	// until the first fault — the healthy path never consults it.
	linkSlow []float64
	// groupSlow[g] caches the worst multiplier over group g's interior
	// links; recomputed on Configure and on link-state changes.
	groupSlow []float64
}

// DeadLinkFactor is the occupancy multiplier a dead link imposes on its
// group's transactions: the segment's switches must re-route and retry, so
// every crossing effectively serializes over a crawling maintenance path.
const DeadLinkFactor = 16.0

// BusStats aggregates contention accounting.
type BusStats struct {
	Transactions uint64
	// WaitCPUCycles is the total CPU cycles transactions spent queued behind
	// earlier owners of their segment group.
	WaitCPUCycles uint64
}

// NewSegmentedBus builds a bus over n slices with the given timing.
func NewSegmentedBus(n int, timing Timing) *SegmentedBus {
	return &SegmentedBus{
		tree:      NewArbiterTree(n),
		timing:    timing,
		busyUntil: make([]uint64, n),
	}
}

// Configure reprograms the switches for a new grouping and clears pending
// occupancy (a reconfiguration quiesces the bus).
func (b *SegmentedBus) Configure(g topology.Grouping) error {
	if err := b.tree.Configure(g); err != nil {
		return err
	}
	if need := g.NumGroups(); cap(b.busyUntil) >= need {
		b.busyUntil = b.busyUntil[:need]
	} else {
		b.busyUntil = make([]uint64, need)
	}
	for i := range b.busyUntil {
		b.busyUntil[i] = 0
	}
	b.recomputeGroupSlow()
	return nil
}

// SetLinkDead marks the link between slices link and link+1 as failed.
func (b *SegmentedBus) SetLinkDead(link int) { b.setLinkSlow(link, DeadLinkFactor) }

// SetLinkDegrade sets the link's occupancy multiplier (clamped to >= 1).
// It never downgrades a dead link back to merely slow.
func (b *SegmentedBus) SetLinkDegrade(link int, factor float64) {
	if factor < 1 {
		factor = 1
	}
	b.setLinkSlow(link, factor)
}

// LinkSlow returns the link's current multiplier (1 when healthy).
func (b *SegmentedBus) LinkSlow(link int) float64 {
	if b.linkSlow == nil || link < 0 || link >= len(b.linkSlow) {
		return 1
	}
	return b.linkSlow[link]
}

func (b *SegmentedBus) setLinkSlow(link int, factor float64) {
	if link < 0 || link >= b.tree.Leaves()-1 {
		return
	}
	if b.linkSlow == nil {
		b.linkSlow = make([]float64, b.tree.Leaves()-1)
		for i := range b.linkSlow {
			b.linkSlow[i] = 1
		}
	}
	if factor > b.linkSlow[link] {
		b.linkSlow[link] = factor
	}
	b.recomputeGroupSlow()
}

// recomputeGroupSlow refreshes the per-group worst-link cache for the
// current grouping. A group spanning slices [lo, hi] is slowed by the worst
// of its interior links lo..hi-1.
func (b *SegmentedBus) recomputeGroupSlow() {
	if b.linkSlow == nil {
		return
	}
	g := b.tree.grouping
	if need := g.NumGroups(); cap(b.groupSlow) >= need {
		b.groupSlow = b.groupSlow[:need]
	} else {
		b.groupSlow = make([]float64, need)
	}
	for gi := range b.groupSlow {
		m := g.Members(gi)
		worst := 1.0
		for _, sl := range m[:len(m)-1] {
			if f := b.linkSlow[sl]; f > worst {
				worst = f
			}
		}
		b.groupSlow[gi] = worst
	}
}

// Stats returns the accumulated contention counters.
func (b *SegmentedBus) Stats() BusStats { return b.stats }

// Transact performs one bus transaction by the slice starting at CPU cycle
// `now`, returning the cycle at which the transfer completes and the CPU
// cycles of overhead incurred (arbitration + transfer + queueing). Singleton
// groups never use the bus and return zero overhead.
func (b *SegmentedBus) Transact(slice int, now uint64) (done uint64, overhead uint64) {
	g := b.tree.grouping.GroupOf(slice)
	if b.tree.grouping.GroupSize(g) == 1 {
		return now, 0
	}
	start := now
	if b.busyUntil[g] > start {
		start = b.busyUntil[g]
	}
	wait := start - now
	occupancy := uint64(b.timing.BusCycles() * b.timing.CPUPerBusCycle)
	latency := uint64(b.timing.OverheadCPUCycles())
	if b.groupSlow != nil {
		// A faulted link inside the group stretches both the occupancy
		// and the transfer latency by the worst link's multiplier.
		if f := b.groupSlow[g]; f > 1 {
			occupancy = uint64(float64(occupancy) * f)
			latency = uint64(float64(latency) * f)
		}
	}
	if b.timing.Pipelined && occupancy > uint64(b.timing.CPUPerBusCycle) {
		// The next transaction's arbitration overlaps this transfer, so the
		// bus frees up one bus cycle earlier for the successor.
		b.busyUntil[g] = start + occupancy - uint64(b.timing.CPUPerBusCycle)
	} else {
		b.busyUntil[g] = start + occupancy
	}
	done = start + latency
	b.stats.Transactions++
	b.stats.WaitCPUCycles += wait
	return done, done - now
}
