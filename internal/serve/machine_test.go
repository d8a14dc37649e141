package serve

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"morphcache/internal/cache"
	"morphcache/internal/core"
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

// residents lists every resident line from the slice tags and the
// values in their ways.
func residents(c *Cache) map[shardLine]resident {
	out := map[shardLine]resident{}
	for i, sh := range c.shards {
		for phys, sl := range sh.slices {
			sl.ForEachValid(func(set, way int, e cache.Entry) {
				gl := mem.GlobalLine{ASID: e.ASID, Line: e.Line}
				out[shardLine{i, gl}] = resident{c.names[int(e.ASID)-1], sh.cell(phys, set, way).key, phys}
			})
		}
	}
	return out
}

// naiveSurvivors is the reference repartition: scan every resident line
// and keep it only if the new grouping puts its slot in its owner's
// group. It returns the survivors and the evictions per shard and owner
// slot.
func naiveSurvivors(before map[shardLine]resident, tenants map[string]int, g topology.Grouping) (map[shardLine]resident, map[[2]int]int64) {
	kept := map[shardLine]resident{}
	evicted := map[[2]int]int64{}
	for k, r := range before {
		owner := tenants[r.tenant]
		if g.GroupOf(owner) == g.GroupOf(r.slot) {
			kept[k] = r
		} else {
			evicted[[2]int{k.shard, owner}]++
		}
	}
	return kept, evicted
}

// checkShard asserts that shard i's slices, values and presence index
// agree: every valid way holds a key that hashes to its line in this
// shard, find returns that way, inside the owner's partition under the
// shard's own masks and with no duplicate, and every invalid way holds
// the zero entry, so no value outlives its line. It returns the shard's
// resident line count.
func checkShard(t *testing.T, c *Cache, i int) int64 {
	t.Helper()
	sh := c.shards[i]
	if err := sh.pres.Check(); err != nil {
		t.Fatalf("shard %d: %v", i, err)
	}
	lines := 0
	for phys, sl := range sh.slices {
		for set := 0; set < sl.Sets(); set++ {
			for way := 0; way < sl.Ways(); way++ {
				e, v := sl.Entry(set, way), *sh.cell(phys, set, way)
				if !e.Valid {
					if v.key != "" || v.val != nil {
						t.Fatalf("shard %d: invalid way %d/%d/%d holds %q", i, phys, set, way, v.key)
					}
					continue
				}
				lines++
				owner := int(e.ASID) - 1
				gl := mem.GlobalLine{ASID: e.ASID, Line: e.Line}
				if tg := c.locate(owner, v.key); tg.gl != gl || tg.shard != i {
					t.Fatalf("shard %d: way %d/%d/%d of line %v holds key %q of line %v on shard %d", i, phys, set, way, gl, v.key, tg.gl, tg.shard)
				}
				if bit := sh.pres.Get(gl); bit != 1<<uint(phys) || bit&sh.partMask[owner] == 0 {
					t.Fatalf("shard %d: line %v of slot %d in slot %d has presence %b, partition %b", i, gl, owner, phys, bit, sh.partMask[owner])
				}
				if p, s, w := sh.find(owner, gl); p != phys || s != set || w != way {
					t.Fatalf("shard %d: find(%v) = %d/%d/%d, want %d/%d/%d", i, gl, p, s, w, phys, set, way)
				}
			}
		}
	}
	if lines != sh.pres.Len() {
		t.Fatalf("shard %d: %d slice lines, %d presence entries", i, lines, sh.pres.Len())
	}
	return int64(lines)
}

// checkConsistency runs checkShard on every shard and checks that the
// occupancy counters sum to the resident lines.
func checkConsistency(t *testing.T, c *Cache) {
	t.Helper()
	var total int64
	for i := range c.shards {
		total += checkShard(t, c, i)
	}
	var occ int64
	for i := range c.occupancy {
		occ += c.occupancy[i].Load()
	}
	if occ != total {
		t.Fatalf("occupancy counters %d, resident lines %d", occ, total)
	}
}

// TestSetTopologyMatchesFullScan is the differential test for the
// per-shard rollout of a regrouping: after each shard regroups, its
// residents must match a naive full-store scan while the shards yet to
// regroup stay untouched, and the occupancy and eviction counters must
// match the naive evictions of the shards regrouped so far.
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
				c.plan = c.topo
				if err := m.SetTopology(topology.Topology{L2: g, L3: g}); err != nil {
					t.Fatal(err)
				}
				var masks [32]uint32
				groupMasks(g, masks[:cfg.Slots])
				var occWant [8]int64
				copy(occWant[:], occBefore[:])
				for i, sh := range c.shards {
					c.regroupShard(sh, masks[:cfg.Slots])
					got := residents(c)
					for k, res := range before {
						wantRes, kept := want[k]
						if k.shard > i {
							wantRes, kept = res, true
						}
						if gotRes, ok := got[k]; ok != kept || gotRes != wantRes {
							t.Fatalf("step %d, shard %d regrouped to %v: line %v of shard %d is %v (%v), want %v (%v)", step, i, g, k.gl, k.shard, gotRes, ok, wantRes, kept)
						}
					}
					if len(got) > len(before) {
						t.Fatalf("step %d: regrouping added lines", step)
					}
					checkShard(t, c, i)
					for s := range cfg.Tenants {
						occWant[s] -= evicted[[2]int{i, s}]
						if got := c.occupancy[s].Load(); got != occWant[s] {
							t.Fatalf("step %d, shard %d: slot %d occupancy %d, want %d", step, i, s, got, occWant[s])
						}
						if got, want := int64(c.met.evictRepart[s].Value())-evBefore[s], occBefore[s]-occWant[s]; got != want {
							t.Fatalf("step %d, shard %d: slot %d repartition evictions %d, want %d", step, i, s, got, want)
						}
					}
				}
				c.applyTopology(c.plan)
				if got := residents(c); !reflect.DeepEqual(got, want) {
					t.Fatalf("step %d: %d residents after regrouping to %v, want %d", step, len(got), g, len(want))
				}
				checkConsistency(t, c)
			}
		})
	}
}

// liveMachine is the reference the plan machine replaces: each
// SetTopology regroups every shard at once, as the stop-the-world epoch
// boundary did, so later signal reads and decisions see it applied.
type liveMachine struct{ machine }

func (m liveMachine) SetTopology(t topology.Topology) error {
	if err := m.machine.SetTopology(t); err != nil {
		return err
	}
	m.c.applyTopology(t)
	return nil
}

// liveEndEpoch closes an epoch against liveMachine (single goroutine).
func liveEndEpoch(c *Cache) {
	c.epochMu.Lock()
	defer c.epochMu.Unlock()
	c.cutEpoch()
	c.plan = c.topo
	r, _ := c.policy.EndEpoch(c.epoch, liveMachine{machine{c}})
	for _, sh := range c.shards {
		for _, v := range sh.spare {
			v.Reset()
		}
	}
	c.met.epoch(r)
}

// TestPlanMachineMatchesLive drives identical traffic through two
// caches under the default controller, one deciding on the plan machine
// (EndEpoch) and one on a machine that applies every SetTopology at once:
// the topology sequences and the /decisions bodies must be identical.
func TestPlanMachineMatchesLive(t *testing.T) {
	run := func(end func(*Cache)) ([]string, []byte) {
		cfg := testConfig("alpha", "beta", "gamma")
		cfg.Shards, cfg.SlotBytes = 2, 16<<10
		cfg.Obs.Now = fixedClock()
		c := mustCache(t, cfg)
		var specs []string
		for e := 0; e < 8; e++ {
			n := 600
			if e >= 3 && e < 6 {
				n = 10 // demand fades, then returns
			}
			for i := 0; i < n; i++ {
				c.Set("alpha", fmt.Sprintf("a%d-%d", e, i), []byte("v"))
			}
			for i := 0; i < 40; i++ {
				c.Set("beta", fmt.Sprintf("b%d", i), []byte("v"))
				c.Get("beta", fmt.Sprintf("b%d", i))
				c.Get("gamma", fmt.Sprintf("g%d", i))
			}
			end(c)
			specs = append(specs, c.Spec())
		}
		rec := httptest.NewRecorder()
		c.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/decisions", nil))
		return specs, rec.Body.Bytes()
	}
	planSpecs, planBody := run(func(c *Cache) { c.EndEpoch() })
	liveSpecs, liveBody := run(liveEndEpoch)
	if !reflect.DeepEqual(planSpecs, liveSpecs) {
		t.Fatalf("topology sequences diverge:\n  plan %v\n  live %v", planSpecs, liveSpecs)
	}
	if !bytes.Equal(planBody, liveBody) {
		t.Fatalf("/decisions bodies differ:\n%s\n----\n%s", planBody, liveBody)
	}
	if !strings.Contains(string(planBody), `"op": "merge"`) || !strings.Contains(string(planBody), `"op": "split"`) {
		t.Fatalf("sequence does not both merge and split:\n%s", planBody)
	}
}

// cyclePolicy steps through a fixed list of groupings, one per epoch, so
// every epoch repartitions and most shrink a partition holding lines.
type cyclePolicy struct {
	groups [][][]int
	next   int
}

func (p *cyclePolicy) Name() string { return "test-cycle" }

func (p *cyclePolicy) EndEpoch(_ int, m core.Machine) (int, bool) {
	g, err := topology.FromGroups(m.Cores(), p.groups[p.next%len(p.groups)])
	if err != nil {
		panic(err)
	}
	p.next++
	if err := m.SetTopology(topology.Topology{L2: g, L3: g}); err != nil {
		panic(err)
	}
	return 1, false
}

// TestRolloutRacesTraffic drives Get/Set/Delete on every shard while
// EndEpoch repartitions every epoch, and after each epoch checks every
// shard with the traffic paused: presence bits inside the shard's own
// partition masks, values, presence and slices in agreement, and the
// occupancy counters summing to the resident lines. Run it under -race.
func TestRolloutRacesTraffic(t *testing.T) {
	cfg := testConfig("alpha", "beta", "gamma")
	cfg.Shards = 4
	cfg.Policy = &cyclePolicy{groups: [][][]int{
		{{0, 1}, {2, 3}},
		{{0}, {1}, {2}, {3}},
		{{0, 2, 3}, {1}},
		{{0}, {1, 2}, {3}},
		{{0, 1, 2, 3}},
		{{0, 3}, {1}, {2}},
	}}
	c := mustCache(t, cfg)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var ops atomic.Int64
	defer wg.Wait()
	defer close(stop)
	for w, tenant := range cfg.Tenants {
		wg.Add(1)
		go func(w int, tenant string) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(w)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				key := fmt.Sprintf("k%d", r.Intn(300))
				switch r.Intn(4) {
				case 0:
					c.Delete(tenant, key)
				case 1:
					c.Get(tenant, key)
				default:
					c.Set(tenant, key, []byte("v"))
				}
				ops.Add(1)
			}
		}(w, tenant)
	}
	check := func() {
		for _, sh := range c.shards {
			sh.mu.Lock()
		}
		defer func() {
			for _, sh := range c.shards {
				sh.mu.Unlock()
			}
		}()
		checkConsistency(t, c)
	}
	for e := 0; e < 30; e++ {
		for target := ops.Load() + 300; ops.Load() < target; {
			runtime.Gosched() // let traffic land between epochs
		}
		if r, _ := c.EndEpoch(); r != 1 {
			t.Fatalf("epoch %d: %d reconfigurations, want 1", e, r)
		}
		check()
	}
	var stranded uint64
	for slot := range cfg.Tenants {
		stranded += c.met.evictRepart[slot].Value()
	}
	if stranded == 0 {
		t.Fatal("no repartition stranded a line: the rollout went untested")
	}
}
