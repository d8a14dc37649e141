package serve

import (
	"fmt"

	"morphcache/internal/acfv"
	"morphcache/internal/core"
	"morphcache/internal/hierarchy"
	"morphcache/internal/mem"
	"morphcache/internal/topology"
)

// machine adapts the Cache to core.Machine so the unmodified MorphCache
// controller can govern it. Slots play the role of cores; both topology
// levels mirror one grouping (the partition map), so the controller's
// L2/L3 coupling rules are trivially satisfied: an L3 merge and the L2
// merge it enables both resolve to the same partition change.
//
// Every method is called only from Cache.EndEpoch, with all shard locks
// held — signal reads and topology mutation are serialized against the
// access path.
type machine struct{ c *Cache }

var _ core.Machine = machine{}

// Cores implements core.Machine: slots are the cores.
func (m machine) Cores() int { return m.c.cfg.Slots }

// Topology implements core.Machine.
func (m machine) Topology() topology.Topology { return m.c.topo }

// SetTopology implements core.Machine: it swaps the partition map and
// evicts every line the new map strands outside its owner's partition
// (the serving analogue of the hierarchy's inclusion enforcement on
// shrink; merges strand nothing). A stranded line sits in a slot of its
// owner's old group that the new group lacks, and that slot's own mask
// must then have changed too; so only the slices of slots whose mask
// changed are scanned, sets × ways per shard, and they yield the same
// evictions as a scan of every shard's whole store.
func (m machine) SetTopology(t topology.Topology) error {
	c := m.c
	if t.L2.N() != c.cfg.Slots || t.L3.N() != c.cfg.Slots {
		return fmt.Errorf("serve: topology over %d/%d slots, want %d", t.L2.N(), t.L3.N(), c.cfg.Slots)
	}
	if err := t.Validate(); err != nil {
		return err
	}
	// Stash the per-tenant granted-slot delta for the decision audit
	// record: the controller emits its reconfiguration event right after
	// this call returns, and the recorder attaches the delta to it.
	old := c.topo.L2
	var delta map[string]int
	for slot, name := range c.names {
		if name == "" {
			continue
		}
		was := old.GroupSize(old.GroupOf(slot))
		is := t.L2.GroupSize(t.L2.GroupOf(slot))
		if was != is {
			if delta == nil {
				delta = make(map[string]int)
			}
			delta[name] = is - was
		}
	}
	c.pendingDelta = delta
	var oldMask [32]uint32 // Slots ≤ 32
	copy(oldMask[:], c.partMask)
	c.topo = t
	c.computePartMask()
	for phys, mask := range c.partMask {
		if mask == oldMask[phys] {
			continue
		}
		bit := uint32(1) << uint(phys)
		for _, sh := range c.shards {
			sl := sh.slices[phys]
			for set := 0; set < sl.Sets(); set++ {
				for way := 0; way < sl.Ways(); way++ {
					e := sl.Entry(set, way)
					owner := int(e.ASID) - 1
					if !e.Valid || c.partMask[owner]&bit != 0 {
						continue
					}
					sl.InvalidateWay(set, way)
					gl := mem.GlobalLine{ASID: e.ASID, Line: e.Line}
					sh.pres.Clear(gl, bit)
					delete(sh.store, gl)
					c.occupancy[owner].Add(-1)
					c.met.evict(owner, "repartition")
				}
			}
		}
	}
	c.met.repartition()
	c.met.setPartitionGauges()
	return nil
}

// CoresUtilization implements core.Machine: the summed |ACFV| of the
// slots' homed tenants across shards, normalized by the slots' line
// capacity — the demand-vs-capacity fraction the MSAT bounds compare.
// Donor (tenant-less) slots contribute capacity but no demand, so they
// read as under-utilized merge partners.
func (m machine) CoresUtilization(_ hierarchy.Level, cores []int) float64 {
	c := m.c
	ones := 0
	for _, sh := range c.shards {
		for _, s := range cores {
			ones += sh.vecs[s].Ones()
		}
	}
	capLines := len(cores) * c.slotLines * len(c.shards)
	if capLines == 0 {
		return 0
	}
	return float64(ones) / float64(capLines)
}

// CoresOverlap implements core.Machine: the fraction of the smaller
// side's footprint both sides touched. Distinct tenants never share an
// address space, so this signal only reaches recorders — the sharing
// merge rule is gated on SlicesShareASID first.
func (m machine) CoresOverlap(_ hierarchy.Level, a, b []int) float64 {
	c := m.c
	common, onesA, onesB := 0, 0, 0
	va := make([]*acfv.Vector, len(a))
	vb := make([]*acfv.Vector, len(b))
	for _, sh := range c.shards {
		for i, s := range a {
			va[i] = sh.vecs[s]
		}
		for i, s := range b {
			vb[i] = sh.vecs[s]
		}
		ua, ub := acfv.Union(va...), acfv.Union(vb...)
		common += acfv.Overlap(ua, ub)
		onesA += ua.Ones()
		onesB += ub.Ones()
	}
	small := onesA
	if onesB < small {
		small = onesB
	}
	if small == 0 {
		return 0
	}
	return float64(common) / float64(small)
}

// SlicesShareASID implements core.Machine. Each slot is its own address
// space (one tenant's keyspace), so the sharing precondition holds only
// for a single slot — cross-tenant merges are always capacity merges.
func (m machine) SlicesShareASID(slices ...[]int) bool {
	ref := -1
	for _, set := range slices {
		for _, s := range set {
			if ref < 0 {
				ref = s
			} else if ref != s {
				return false
			}
		}
	}
	return ref >= 0
}

// PerCoreMisses implements core.Machine (the §5.3 QoS signal).
func (m machine) PerCoreMisses() []uint64 {
	c := m.c
	out := make([]uint64, c.cfg.Slots)
	for i := range out {
		out[i] = c.misses[i].Load()
	}
	return out
}

// HasFaults implements core.Machine; the serving path injects none.
func (m machine) HasFaults() bool { return false }

// CorruptMonitors implements core.Machine.
func (m machine) CorruptMonitors() []int { return nil }

// MonitorCorrupt implements core.Machine.
func (m machine) MonitorCorrupt(int) bool { return false }

// SpansDeadLink implements core.Machine.
func (m machine) SpansDeadLink(hierarchy.Level, []int) bool { return false }
