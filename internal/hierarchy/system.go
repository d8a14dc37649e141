// Package hierarchy implements the three-level inclusive CMP cache
// hierarchy the MorphCache controller reconfigures: per-core private L1s,
// per-core L2 and L3 slices grouped by a topology.Topology, backed by main
// memory (Table 3 of the paper).
//
// A merged group behaves as one cache whose set i is the union of its
// member slices' set i (associativities sum, set count is preserved —
// footnote 1). A hit in the requester's own slice costs the local latency;
// a hit in any other member slice additionally pays the segmented-bus
// overhead (25 vs. 10 cycles at L2, 45 vs. 30 at L3). Static topologies are
// modeled with the paper's assumption of fixed local latencies at any
// sharing degree (Params.ChargeRemote = false).
//
// The hierarchy is inclusive (L1 ⊆ L2 group ⊆ L3 group): L3 evictions
// back-invalidate L2 and L1 copies beneath them, and reconfigurations that
// shrink a group conservatively invalidate lines that would violate
// inclusion. Merges leave duplicate copies in place and resolve them by
// lazy invalidation on first access (§2.2). Writes invalidate copies held
// by other groups (the replication/coherence traffic that merging of
// sharers removes), and misses that another group can supply are served by
// cache-to-cache transfer instead of memory.
package hierarchy

import (
	"fmt"

	"morphcache/internal/bus"
	"morphcache/internal/cache"
	"morphcache/internal/mem"
	"morphcache/internal/obs"
	"morphcache/internal/topology"
)

// Level identifies a cache level.
type Level uint8

const (
	// L2 and L3 are the reconfigurable sliced levels.
	L2 Level = iota
	L3
)

func (l Level) String() string {
	switch l {
	case L2:
		return "L2"
	case L3:
		return "L3"
	default:
		return fmt.Sprintf("Level(%d)", uint8(l))
	}
}

// Params is the hierarchy configuration (defaults are the paper's Table 3).
type Params struct {
	// Cores is the number of cores; there is one L1 and one L2/L3 slice per
	// core. Must be a power of two.
	Cores int

	// L1 configuration: 32 KB, 4-way, 3-cycle access.
	L1SizeBytes, L1Ways, L1HitCycles int

	// L2 slices: 256 KB, 8-way; 10 cycles local, 25 merged.
	L2SliceBytes, L2Ways, L2LocalCycles, L2MergedCycles int

	// L3 slices: 1 MB, 16-way; 30 cycles local, 45 merged.
	L3SliceBytes, L3Ways, L3LocalCycles, L3MergedCycles int

	// MemCycles is the off-chip access latency (300).
	MemCycles int

	// C2CCycles is the latency of a cache-to-cache transfer from an L3
	// group that holds the line when the requester's group misses. The
	// transfer crosses the memory-side interconnect twice (request out,
	// data back) on top of the remote L3 access, which is cheaper than
	// off-chip memory but far costlier than a merged-group hit — this is
	// the "repeated transfers of cache lines among different cache slices"
	// overhead that merging sharers removes (§2.1).
	C2CCycles int

	// Policy is the slice replacement policy (the paper uses LRU for all
	// applications, §6).
	Policy cache.Policy

	// ChargeRemote selects whether hits in non-local member slices of a
	// merged group pay the segmented-bus overhead. True for MorphCache and
	// DSR; false for the idealized static topologies the paper compares
	// against (§4).
	ChargeRemote bool

	// BusTiming parameterizes the remote-access overhead; the merged
	// latencies above must equal local + BusTiming.OverheadCPUCycles().
	BusTiming bus.Timing

	// ModelContention, when true, additionally serializes remote accesses
	// through the per-group segmented bus occupancy model, charging queueing
	// delay beyond the fixed overhead.
	ModelContention bool

	// Interconnect selects the finite-bandwidth model: the default
	// segmented Bus gives every slice group ONE access channel (requests
	// within a group serialize — the paper's §3.1 bus bandwidth argument),
	// while Crossbar gives every slice its own port (requests serialize
	// only per serving slice), trading the paper's noted implementation
	// complexity and quadratic area for bandwidth.
	Interconnect InterconnectKind

	// L2ChannelCycles / L3ChannelCycles / MemChannelCycles model finite
	// bandwidth: every transaction at a level occupies its slice group's
	// access channel for this many cycles (one channel per group — a shared
	// cache is one logical port, which is the paper's own argument for
	// segmenting the bus: "when multiple devices ... are connected to a
	// single shared bus, each gets only a fraction of the available
	// bandwidth", §3.1). Requests that find the channel busy queue, so wide
	// sharing buys capacity at the price of bandwidth — for static
	// topologies and MorphCache alike. Zero disables a channel. Fractional
	// values model wider/banked ports (service time below one cycle per
	// request on average).
	L2ChannelCycles, L3ChannelCycles, MemChannelCycles float64
}

// InterconnectKind selects the bandwidth model (see Params.Interconnect).
type InterconnectKind uint8

const (
	// Bus is the segmented bus: one channel per slice group.
	Bus InterconnectKind = iota
	// Crossbar is a full crossbar: one port per slice.
	Crossbar
)

func (k InterconnectKind) String() string {
	if k == Crossbar {
		return "crossbar"
	}
	return "segmented-bus"
}

// Default returns the paper's Table 3 baseline for n cores.
func Default(n int) Params {
	t := bus.DefaultTiming()
	// The paper's §3.2 footnote overlaps arbitration with the previous
	// transfer, cutting the merged-access overhead from 15 to 10 CPU
	// cycles; the default configuration adopts that optimization.
	t.Pipelined = true
	ov := t.OverheadCPUCycles() // 10
	return Params{
		Cores:       n,
		L1SizeBytes: 32 << 10, L1Ways: 4, L1HitCycles: 3,
		L2SliceBytes: 256 << 10, L2Ways: 8, L2LocalCycles: 10, L2MergedCycles: 10 + ov,
		L3SliceBytes: 1 << 20, L3Ways: 16, L3LocalCycles: 30, L3MergedCycles: 30 + ov,
		MemCycles:        300,
		C2CCycles:        30 + 2*ov,
		Policy:           cache.LRU,
		BusTiming:        t,
		L2ChannelCycles:  5,
		L3ChannelCycles:  2,
		MemChannelCycles: 2,
	}
}

// ScaledDefault returns the Table 3 configuration with every cache capacity
// divided by div (associativities and latencies unchanged). Experiments run
// on a scaled system so that one scaled epoch covers several times the
// working set, preserving the capacity-pressure ratios of the full-size
// machine at a fraction of the simulation cost. div must divide the L1 size
// down to at least one set.
func ScaledDefault(n, div int) Params {
	p := Default(n)
	// The L1 scales only by div/4: its job in the model is to filter the
	// hot head off the L2 traffic the way a real L1 does (~80-90% hit
	// rate); scaling it as aggressively as the capacity-study levels would
	// multiply L2 traffic far beyond the paper's regime and distort both
	// bandwidth contention and merged-hit overheads.
	l1div := div / 4
	if l1div < 1 {
		l1div = 1
	}
	p.L1SizeBytes /= l1div
	p.L2SliceBytes /= div
	p.L3SliceBytes /= div
	return p
}

// Validate checks internal consistency.
func (p Params) Validate() error {
	if p.Cores <= 0 || p.Cores&(p.Cores-1) != 0 {
		return fmt.Errorf("hierarchy: cores %d not a power of two", p.Cores)
	}
	for _, c := range []cache.Config{
		{SizeBytes: p.L1SizeBytes, Ways: p.L1Ways, Policy: p.Policy},
		{SizeBytes: p.L2SliceBytes, Ways: p.L2Ways, Policy: p.Policy},
		{SizeBytes: p.L3SliceBytes, Ways: p.L3Ways, Policy: p.Policy},
	} {
		if err := c.Validate(); err != nil {
			return err
		}
	}
	if p.MemCycles <= p.L3MergedCycles {
		return fmt.Errorf("hierarchy: memory latency %d not beyond L3 merged %d", p.MemCycles, p.L3MergedCycles)
	}
	return nil
}

// CoreStats aggregates one core's access outcomes.
type CoreStats struct {
	Accesses   uint64
	L1Hits     uint64
	L2Hits     uint64 // local + remote
	L3Hits     uint64
	C2C        uint64
	MemReads   uint64
	LatencySum uint64
}

// AvgLatency returns the mean access latency in cycles.
func (c CoreStats) AvgLatency() float64 {
	if c.Accesses == 0 {
		return 0
	}
	return float64(c.LatencySum) / float64(c.Accesses)
}

// Stats aggregates hierarchy-wide event counters.
type Stats struct {
	Accesses  uint64
	L1Hits    uint64
	L2Local   uint64 // hits in the requester's own slice
	L2Remote  uint64 // hits in another slice of the requester's group
	L2Misses  uint64
	L3Local   uint64
	L3Remote  uint64
	L3Misses  uint64
	C2C       uint64 // misses served by another group's L3
	MemReads  uint64
	Writeback uint64 // dirty L3 evictions to memory
	// CoherenceInv counts copies invalidated in other groups by writes.
	CoherenceInv uint64
	// LazyInv counts duplicate copies removed by lazy invalidation (§2.2).
	LazyInv uint64
	// InclusionInv counts lines conservatively invalidated to restore
	// inclusion after a reconfiguration.
	InclusionInv uint64
	// BackInv counts inclusion back-invalidations from L3 evictions.
	BackInv uint64
	// Migrations counts remote-hit promotions into the local slice.
	Migrations uint64
	// Interconnect contention (telemetry): *Transactions counts requests
	// charged to each finite-bandwidth channel and *WaitCycles the CPU
	// cycles of queueing delay they suffered beyond the fixed latencies.
	// Channels disabled via the *ChannelCycles parameters count nothing.
	L2BusTransactions uint64
	L2BusWaitCycles   uint64
	L3BusTransactions uint64
	L3BusWaitCycles   uint64
	MemTransactions   uint64
	MemWaitCycles     uint64
}

// System is the simulated hierarchy.
type System struct {
	p    Params
	topo topology.Topology

	l1 []*cache.Slice
	l2 []*cache.Slice
	l3 []*cache.Slice

	// pres*.Get(line) is the bitmask of slices holding the line at each
	// level; slice indices are stable across reconfigurations, so the masks
	// survive topology changes. The indexes are fixed-size open-addressing
	// tables (see presence.go) so the access path never hashes through a Go
	// map or allocates.
	presL2 *PresenceIndex
	presL3 *PresenceIndex

	// demand[level][core][slice] are the per-interval reuse-demand
	// footprints the controller reads (see footprint.go).
	demandL2, demandL3 [][]lineTable
	l2Lines, l3Lines   int

	// scratchA/scratchB are the reusable line-set scratch buffers behind
	// the utilization/overlap signals, and scratchGL the reusable
	// stale-line buffer of enforceInclusion; all grown once to their
	// high-water size and reset per use.
	scratchA, scratchB lineTable
	scratchGL          []mem.GlobalLine

	// coreASID[c] is the address space the thread on core c runs in; set by
	// the simulation engine each epoch so the controller can apply the
	// same-address-space condition of merge rule (ii).
	coreASID []mem.ASID

	busL2, busL3 *bus.SegmentedBus

	stats Stats
	// perCore[c] aggregates each core's access outcomes for the lifetime of
	// the run.
	perCore []CoreStats
	// perCoreMisses[c] counts L2-group misses by core c; the QoS throttle
	// (§5.3) compares these across reconfigurations.
	perCoreMisses []uint64

	// chanBusyL2/L3[group] and the memory channel hold the finite-bandwidth
	// occupancies (see the *ChannelCycles parameters). In crossbar mode the
	// port* arrays (indexed by slice) are used instead of chan* (indexed by
	// group). The chan* slices are views into cores-sized backing arrays
	// (chanStore*) resliced and zeroed on every reconfiguration instead of
	// reallocated.
	chanBusyL2, chanBusyL3   []float64
	chanStoreL2, chanStoreL3 []float64
	portBusyL2, portBusyL3   []float64
	memChan                  *mem.Channel

	// groupMaskL2/L3[slice] caches groupSliceMask for the current topology:
	// the bitmask of the slices in the group containing each slice. Derived
	// in applyTopology; read on every access.
	groupMaskL2, groupMaskL3 []uint32

	// flt is the injected-fault state (see fault.go); zero value = healthy.
	flt faultState

	// obs, when non-nil, receives one ObserveAccess per reference (live
	// latency histograms and per-level counters, DESIGN.md §10). Nil by
	// default: the access path pays a single nil check and nothing else.
	obs *obs.Observer

	// remoteOverheadL2/L3[slice] caches the per-slice bus overhead for the
	// current topology; differs from the uniform overhead only for
	// non-neighbor groups (§5.5), where it grows with the physical span of
	// the group's fabric.
	remoteOvL2, remoteOvL3 []int
}

// New builds a hierarchy in the given initial topology.
func New(p Params, topo topology.Topology) (*System, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if topo.L2.N() != p.Cores {
		return nil, fmt.Errorf("hierarchy: topology over %d slices, want %d", topo.L2.N(), p.Cores)
	}
	if err := topo.Validate(); err != nil {
		return nil, err
	}
	s := &System{
		p:             p,
		presL2:        NewPresenceIndex(p.Cores * p.L2SliceBytes / mem.LineSize),
		presL3:        NewPresenceIndex(p.Cores * p.L3SliceBytes / mem.LineSize),
		coreASID:      make([]mem.ASID, p.Cores),
		perCore:       make([]CoreStats, p.Cores),
		perCoreMisses: make([]uint64, p.Cores),
		busL2:         bus.NewSegmentedBus(p.Cores, p.BusTiming),
		busL3:         bus.NewSegmentedBus(p.Cores, p.BusTiming),
		memChan:       mem.NewChannel(p.MemChannelCycles),
		chanStoreL2:   make([]float64, p.Cores),
		chanStoreL3:   make([]float64, p.Cores),
		portBusyL2:    make([]float64, p.Cores),
		portBusyL3:    make([]float64, p.Cores),
		remoteOvL2:    make([]int, p.Cores),
		remoteOvL3:    make([]int, p.Cores),
		groupMaskL2:   make([]uint32, p.Cores),
		groupMaskL3:   make([]uint32, p.Cores),
	}
	clockL2, clockL3 := &cache.Clock{}, &cache.Clock{}
	for i := 0; i < p.Cores; i++ {
		s.l1 = append(s.l1, cache.New(cache.Config{SizeBytes: p.L1SizeBytes, Ways: p.L1Ways, Policy: p.Policy}))
		l2 := cache.New(cache.Config{SizeBytes: p.L2SliceBytes, Ways: p.L2Ways, Policy: p.Policy})
		l2.ShareClock(clockL2)
		s.l2 = append(s.l2, l2)
		l3 := cache.New(cache.Config{SizeBytes: p.L3SliceBytes, Ways: p.L3Ways, Policy: p.Policy})
		l3.ShareClock(clockL3)
		s.l3 = append(s.l3, l3)
	}
	s.initFootprints()
	if err := s.applyTopology(topo, true); err != nil {
		return nil, err
	}
	return s, nil
}

func (s *System) initFootprints() {
	s.l2Lines = s.p.L2SliceBytes / mem.LineSize
	s.l3Lines = s.p.L3SliceBytes / mem.LineSize
	mk := func() [][]lineTable {
		dd := make([][]lineTable, s.p.Cores)
		for c := range dd {
			dd[c] = make([]lineTable, s.p.Cores)
		}
		return dd
	}
	s.demandL2, s.demandL3 = mk(), mk()
}

// Params returns the configuration.
func (s *System) Params() Params { return s.p }

// Topology returns the current topology.
func (s *System) Topology() topology.Topology { return s.topo }

// Cores returns the core count.
func (s *System) Cores() int { return s.p.Cores }

// Stats returns a pointer to the event counters.
func (s *System) Stats() *Stats { return &s.stats }

// SetObserver installs the live observability hooks (nil to detach). The
// observer only reads what the access path already computed — results are
// identical with or without one.
func (s *System) SetObserver(o *obs.Observer) { s.obs = o }

// CoreStats returns a copy of one core's cumulative counters.
func (s *System) CoreStats(core int) CoreStats { return s.perCore[core] }

// PerCoreMisses returns the per-core L2-group miss counters (QoS input).
func (s *System) PerCoreMisses() []uint64 { return s.perCoreMisses }

// ResetEpochCounters zeroes the per-core miss counters at an epoch boundary.
func (s *System) ResetEpochCounters() {
	for i := range s.perCoreMisses {
		s.perCoreMisses[i] = 0
	}
}

// SetCoreASID records which address space the thread on core c belongs to.
func (s *System) SetCoreASID(core int, asid mem.ASID) { s.coreASID[core] = asid }

// CoreASID returns the address space of the thread on core c.
func (s *System) CoreASID(core int) mem.ASID { return s.coreASID[core] }

// SliceCache returns the slice for white-box tests.
func (s *System) SliceCache(l Level, slice int) *cache.Slice {
	if l == L2 {
		return s.l2[slice]
	}
	return s.l3[slice]
}

// L1Cache returns core c's L1 for white-box tests.
func (s *System) L1Cache(core int) *cache.Slice { return s.l1[core] }

func (s *System) grouping(l Level) topology.Grouping {
	if l == L2 {
		return s.topo.L2
	}
	return s.topo.L3
}

// groupSliceMask returns the bitmask of slices in the group containing
// `slice` at the level (precomputed per topology in applyTopology).
func (s *System) groupSliceMask(l Level, slice int) uint32 {
	if l == L2 {
		return s.groupMaskL2[slice]
	}
	return s.groupMaskL3[slice]
}

// pres returns the level's presence index.
func (s *System) pres(l Level) *PresenceIndex {
	if l == L2 {
		return s.presL2
	}
	return s.presL3
}
