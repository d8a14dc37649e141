package serve

import (
	"errors"
	"fmt"
	"testing"

	"morphcache/internal/core"
	"morphcache/internal/fault"
	"morphcache/internal/topology"
	"morphcache/internal/wal"
)

// scriptPolicy applies the grouping the fuzz script decoded for the
// coming epoch, if it differs from the plan.
type scriptPolicy struct{ next topology.Grouping }

func (p *scriptPolicy) Name() string { return "test-script" }

func (p *scriptPolicy) EndEpoch(_ int, m core.Machine) (int, bool) {
	if p.next.N() == 0 || p.next.Equal(m.Topology().L2) {
		return 0, false
	}
	if err := m.SetTopology(topology.Topology{L2: p.next, L3: p.next}); err != nil {
		panic(err)
	}
	return 1, false
}

// modelValue is one tenant key's last acknowledged Set. gen and evicted
// record the cache generation (restarts) and the tenant's eviction count
// at the Set: while both are unchanged the value must still be resident.
type modelValue struct {
	val          string
	gen, evicted uint64
}

// FuzzServeModel drives a sequential script decoded from the input over
// 2–3 tenants and a small key space — Set, Get, Delete, epochs that apply
// a scripted grouping, shard stalls and crash-restarts from a copy of the
// FsyncAlways WAL directory — and checks every answer against a model of
// the last acknowledged value per tenant key. Values encode (tenant, key,
// version): a Get returns the latest acknowledged value or ErrNotFound,
// never an older version or another tenant's value, and reads not-found
// after an acknowledged Delete. A value may be missing only if its tenant
// evicted a line since its Set or the cache restarted since. Occupancy
// never exceeds the tenant's partition, and the shards stay consistent
// after every epoch and restart.
func FuzzServeModel(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 0, 1, 2, 3, 0, 1, 5, 0, 1, 3, 0, 1})
	f.Add([]byte{1, 0, 0, 0, 6, 0x50, 0, 1, 1, 7, 1, 0, 3, 1, 1, 6, 0xE4, 3, 0, 0})
	f.Add([]byte{1, 1, 0, 2, 1, 1, 3, 2, 2, 4, 7, 0, 0x21, 0, 2, 9, 6, 0, 3, 2, 9, 6, 0, 7, 1, 3, 2, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		const keys, maxOps = 12, 160
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		tenants := []string{"t0", "t1", "t2"}[:2+next()%2]
		pol := &scriptPolicy{}
		plan := &fault.Plan{}
		cfg := Config{
			Tenants: tenants, Slots: 4, Shards: 2, SlotBytes: 512, Ways: 2,
			Policy: pol, Faults: plan,
			Persist: &PersistConfig{Dir: t.TempDir(), Fsync: wal.FsyncAlways},
		}
		c := mustCache(t, cfg)
		defer func() { c.Close() }()

		model := make([]map[int]modelValue, len(tenants))
		for i := range model {
			model[i] = map[int]modelValue{}
		}
		var gen, version uint64
		evictions := func(slot int) uint64 {
			return c.met.evictCap[slot].Value() + c.met.evictRepart[slot].Value()
		}
		mustHold := func(slot, k int) (modelValue, bool, bool) {
			mv, ok := model[slot][k]
			return mv, ok, ok && mv.gen == gen && mv.evicted == evictions(slot)
		}
		for op := 0; op < maxOps && len(data) > 0; op++ {
			code, slot, k := next()%8, next()%len(tenants), next()%keys
			tenant, key := tenants[slot], fmt.Sprintf("k%d", k)
			switch {
			case code <= 2:
				version++
				val := fmt.Sprintf("%s/%s/%d", tenant, key, version)
				err := c.Set(tenant, key, []byte(val))
				switch {
				case err == nil:
					model[slot][k] = modelValue{val, gen, evictions(slot)}
				case !errors.Is(err, ErrShardStalled):
					t.Fatalf("op %d: Set(%s, %s): %v", op, tenant, key, err)
				}
			case code <= 4:
				got, err := c.Get(tenant, key)
				mv, ok, hold := mustHold(slot, k)
				switch {
				case errors.Is(err, ErrShardStalled):
				case err == nil && ok && string(got) == mv.val:
				case errors.Is(err, ErrNotFound) && !hold:
				default:
					t.Fatalf("op %d: Get(%s, %s) = %q, %v; model %q (present %v, must hold %v)", op, tenant, key, got, err, mv.val, ok, hold)
				}
			case code == 5:
				err := c.Delete(tenant, key)
				_, ok, hold := mustHold(slot, k)
				switch {
				case err == nil && ok:
					delete(model[slot], k)
				case errors.Is(err, ErrShardStalled):
				case errors.Is(err, ErrNotFound) && !hold:
				default:
					t.Fatalf("op %d: Delete(%s, %s): %v (must hold %v)", op, tenant, key, err, hold)
				}
			case code == 6:
				b := []byte{byte(cfg.Slots)}
				for s := 0; s < cfg.Slots; s++ {
					b = append(b, byte(next()%cfg.Slots))
				}
				g, err := decodeGrouping(b, cfg.Slots)
				if err != nil {
					t.Fatal(err)
				}
				pol.next = g
				c.EndEpoch()
				if !c.published().L2.Equal(g) {
					t.Fatalf("op %d: published %s, scripted %v", op, c.Spec(), g)
				}
				checkConsistency(t, c)
			case k%2 == 0:
				plan.Events = append(plan.Events, fault.Event{
					Epoch: c.Epoch() + 1, Kind: fault.ShardStall, Slice: slot % cfg.Shards, Duration: 1 + k%3,
				})
			default:
				// Crash-restart: a crash leaves the directory as copied.
				dir := copyWALDir(t, cfg.Persist.Dir)
				c.Close()
				cfg.Persist = &PersistConfig{Dir: dir, Fsync: wal.FsyncAlways}
				plan = &fault.Plan{}
				cfg.Faults = plan
				c = mustCache(t, cfg)
				gen++
				checkConsistency(t, c)
			}
			for s, name := range tenants {
				parts, err := c.PartitionSlots(name)
				if err != nil {
					t.Fatal(err)
				}
				occ, _ := c.OccupancyLines(name)
				if limit := int64(len(parts) * c.slotLines * cfg.Shards); occ < 0 || occ > limit {
					t.Fatalf("op %d: tenant %d holds %d lines, partition capacity %d", op, s, occ, limit)
				}
			}
		}
	})
}
