package serve

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"morphcache/internal/mem"
	"morphcache/internal/topology"
)

// randomGrouping partitions n slots into random groups.
func randomGrouping(t *testing.T, r *rand.Rand, n int) topology.Grouping {
	t.Helper()
	perm := r.Perm(n)
	var groups [][]int
	for len(perm) > 0 {
		k := 1 + r.Intn(len(perm))
		groups = append(groups, perm[:k])
		perm = perm[k:]
	}
	g, err := topology.FromGroups(n, groups)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// resident is one stored (tenant, key) and the slot holding its line.
type resident struct {
	tenant, key string
	slot        int
}

// shardLine names a stored line: lines are unique per shard only.
type shardLine struct {
	shard int
	gl    mem.GlobalLine
}

// residents lists every stored entry.
func residents(c *Cache) map[shardLine]resident {
	out := map[shardLine]resident{}
	for i, sh := range c.shards {
		for gl, e := range sh.store {
			out[shardLine{i, gl}] = resident{c.names[int(gl.ASID)-1], e.key, trailingSlot(sh.pres.Get(gl))}
		}
	}
	return out
}

func trailingSlot(mask uint32) int {
	for s := 0; s < 32; s++ {
		if mask&(1<<uint(s)) != 0 {
			return s
		}
	}
	return -1
}

// naiveSurvivors is the reference repartition: scan the whole store and
// keep each line only if the new grouping puts its slot in its owner's
// group. It returns the survivors and the evictions per owner slot.
func naiveSurvivors(before map[shardLine]resident, tenants map[string]int, g topology.Grouping) (map[shardLine]resident, map[int]int) {
	kept := map[shardLine]resident{}
	evicted := map[int]int{}
	for k, r := range before {
		owner := tenants[r.tenant]
		if g.GroupOf(owner) == g.GroupOf(r.slot) {
			kept[k] = r
		} else {
			evicted[owner]++
		}
	}
	return kept, evicted
}

// checkConsistency asserts that presence index, store and slices agree,
// and that every line sits inside its owner's partition.
func checkConsistency(t *testing.T, c *Cache) {
	t.Helper()
	var total int64
	for i, sh := range c.shards {
		if err := sh.pres.Check(); err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		lines := 0
		for _, sl := range sh.slices {
			lines += sl.ValidLines()
		}
		if lines != sh.pres.Len() || len(sh.store) != lines {
			t.Fatalf("shard %d: %d slice lines, %d presence entries, %d stored", i, lines, sh.pres.Len(), len(sh.store))
		}
		for gl := range sh.store {
			bit := sh.pres.Get(gl)
			owner := int(gl.ASID) - 1
			if bit == 0 || bit&(bit-1) != 0 || bit&c.partMask[owner] == 0 {
				t.Fatalf("shard %d: line %v of slot %d has presence %b outside partition %b", i, gl, owner, bit, c.partMask[owner])
			}
			if sh.slices[trailingSlot(bit)].Lookup(gl.ASID, gl.Line) < 0 {
				t.Fatalf("shard %d: line %v missing from slice %d", i, gl, trailingSlot(bit))
			}
		}
		total += int64(lines)
	}
	var occ int64
	for i := range c.occupancy {
		occ += c.occupancy[i].Load()
	}
	if occ != total {
		t.Fatalf("occupancy counters %d, resident lines %d", occ, total)
	}
}

// TestSetTopologyMatchesFullScan is the differential test for slot-scoped
// repartition eviction: after every random regrouping, the resident set,
// the occupancy counters and the eviction counters must match a naive
// full-store scan, and the structures must stay consistent.
func TestSetTopologyMatchesFullScan(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			r := rand.New(rand.NewSource(seed))
			cfg := testConfig("a", "b", "c", "d", "e", "f")
			cfg.Slots, cfg.Shards, cfg.SlotBytes = 8, 2, 4<<10
			cfg.Policy = nopPolicy{}
			c := mustCache(t, cfg)
			m := machine{c}
			for step := 0; step < 40; step++ {
				for i := 0; i < 150; i++ {
					tenant := cfg.Tenants[r.Intn(len(cfg.Tenants))]
					key := fmt.Sprintf("k%d", r.Intn(200))
					if r.Intn(4) == 0 {
						c.Delete(tenant, key)
					} else {
						c.Set(tenant, key, []byte("v"))
					}
				}
				before := residents(c)
				var occBefore, evBefore [8]int64
				for s := range cfg.Tenants {
					occBefore[s] = c.occupancy[s].Load()
					evBefore[s] = int64(c.met.evictRepart[s].Value())
				}
				g := randomGrouping(t, r, cfg.Slots)
				want, evicted := naiveSurvivors(before, c.tenants, g)
				if err := m.SetTopology(topology.Topology{L2: g, L3: g}); err != nil {
					t.Fatal(err)
				}
				if got := residents(c); !reflect.DeepEqual(got, want) {
					t.Fatalf("step %d: %d residents after regrouping to %v, want %d", step, len(got), g, len(want))
				}
				for s := range cfg.Tenants {
					if got, want := c.occupancy[s].Load(), occBefore[s]-int64(evicted[s]); got != want {
						t.Fatalf("step %d: slot %d occupancy %d, want %d", step, s, got, want)
					}
					if got, want := int64(c.met.evictRepart[s].Value())-evBefore[s], int64(evicted[s]); got != want {
						t.Fatalf("step %d: slot %d repartition evictions %d, want %d", step, s, got, want)
					}
				}
				checkConsistency(t, c)
			}
		})
	}
}
