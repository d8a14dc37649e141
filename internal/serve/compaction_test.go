package serve

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"morphcache/internal/core"
	"morphcache/internal/topology"
)

// growPolicy grants alpha the donor slot 2 and takes it back on
// alternate epochs: a repartition every epoch that strands no line while
// alpha's keys fit its home slot.
type growPolicy struct{ on bool }

func (p *growPolicy) Name() string { return "test-grow" }

func (p *growPolicy) EndEpoch(_ int, m core.Machine) (int, bool) {
	p.on = !p.on
	groups := [][]int{{0}, {1}, {2}, {3}}
	if p.on {
		groups = [][]int{{0, 2}, {1}, {3}}
	}
	g, err := topology.FromGroups(4, groups)
	if err != nil {
		panic(err)
	}
	if err := m.SetTopology(topology.Topology{L2: g, L3: g}); err != nil {
		panic(err)
	}
	return 1, false
}

// copyWALDir copies a flat WAL directory, as a crash at this instant
// would leave it.
func copyWALDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// crashRun shapes one run of TestPersistCompactionCrashCuts.
type crashRun struct {
	cfg Config
	// writers are the tenants whose keys[tenant] concurrent goroutines Set
	// and Delete; initial keys are Set once before the epochs start.
	writers []string
	keys    map[string][]string
	initial []string // "tenant/key" entries set to "initial" up front
	// before runs ahead of epoch e's decision, window after shard 0 has
	// regrouped and before the other shards do; both write through set
	// and del, which record acknowledged operations in the model.
	before, window func(e int, set func(tenant, key, val string), del func(tenant, key string))
	// strands reports whether the policy strands live keys: such a run
	// must repartition-evict some, the other may not evict at all.
	strands bool
}

// TestPersistCompactionCrashCuts cuts the WAL directory at every step of
// an epoch boundary that repartitions, under FsyncAlways while goroutines
// Set and Delete: after the epoch marker and the rotation, with only shard
// 0 regrouped, with a torn temporary snapshot, after the rename, and after
// the removals. Every cut must reopen without error, restore the epoch's
// grants, and leave no temporary file behind. Each key must read back its
// last acknowledged value — or, where the policy stranded it, not-found
// if live evicted it by repartition — and never an older value or a value
// whose Delete was acknowledged.
func TestPersistCompactionCrashCuts(t *testing.T) {
	t.Run("grow", func(t *testing.T) {
		// growPolicy strands nothing: 64 sets × 8 ways per shard hold the
		// keys without filling a set, so nothing is evicted at all.
		cfg := persistConfig(t, "alpha", "beta")
		cfg.Shards, cfg.SlotBytes = 2, 64<<10
		cfg.Policy = &growPolicy{}
		run := crashRun{cfg: cfg, writers: cfg.Tenants, keys: map[string][]string{}}
		for _, tenant := range cfg.Tenants {
			for k := 0; k < 24; k++ {
				key := fmt.Sprintf("k%02d", k)
				run.keys[tenant] = append(run.keys[tenant], key)
				run.initial = append(run.initial, tenant+"/"+key)
			}
		}
		runCrashCuts(t, run)
	})
	t.Run("strand", func(t *testing.T) {
		// One 8-way set per slice and shard. Before each shrink the driver
		// fills alpha's home set, spills keys into the granted slot 2 and
		// deletes the fillers, so the shrink strands the spills while the
		// home set has room: neither live nor replay ever capacity-evicts.
		// In the rollout window it rewrites a spill on each shard — on
		// shard 1 that record follows the marker but is applied under the
		// old grouping, then swept.
		cfg := persistConfig(t, "alpha", "beta")
		cfg.Shards, cfg.SlotBytes = 2, 1<<10
		cfg.Policy = &growPolicy{}
		var fillers, spills [2][]string
		for i := 0; len(fillers[0]) < 8 || len(fillers[1]) < 8 || len(spills[0]) < 2 || len(spills[1]) < 2; i++ {
			key := fmt.Sprintf("a%03d", i)
			sh := int(hashKey(key)>>48) & 1 // shardOf over 2 shards
			switch {
			case len(fillers[sh]) < 8:
				fillers[sh] = append(fillers[sh], key)
			case len(spills[sh]) < 2:
				spills[sh] = append(spills[sh], key)
			}
		}
		run := crashRun{cfg: cfg, writers: []string{"beta"}, keys: map[string][]string{}, strands: true}
		for k := 0; k < 8; k++ {
			key := fmt.Sprintf("k%02d", k)
			run.keys["beta"] = append(run.keys["beta"], key)
			run.initial = append(run.initial, "beta/"+key)
		}
		for sh := range fillers {
			run.keys["alpha"] = append(run.keys["alpha"], fillers[sh]...)
			run.keys["alpha"] = append(run.keys["alpha"], spills[sh]...)
		}
		run.before = func(e int, set func(tenant, key, val string), del func(tenant, key string)) {
			if e%2 == 0 {
				return // growPolicy grows on even epochs
			}
			for sh := range fillers {
				for _, key := range fillers[sh] {
					set("alpha", key, "filler")
				}
				for _, key := range spills[sh] {
					set("alpha", key, fmt.Sprintf("spill-%d", e))
				}
				for _, key := range fillers[sh] {
					del("alpha", key)
				}
			}
		}
		run.window = func(e int, set func(tenant, key, val string), _ func(tenant, key string)) {
			if e%2 == 0 {
				return
			}
			set("alpha", spills[0][0], fmt.Sprintf("window-%d", e))
			set("alpha", spills[1][0], fmt.Sprintf("window-%d", e))
		}
		runCrashCuts(t, run)
	})
}

// isResident reports whether live holds (tenant, key), without touching
// its LRU position or demand vector.
func isResident(c *Cache, tenant, key string) bool {
	t := c.locate(c.tenants[tenant], key)
	t.sh.mu.Lock()
	defer t.sh.mu.Unlock()
	phys, set, way := t.sh.find(t.slot, t.gl)
	return phys >= 0 && t.sh.cell(phys, set, way).key == key
}

func runCrashCuts(t *testing.T, run crashRun) {
	cfg := run.cfg
	c := mustCache(t, cfg)
	defer c.Close()

	// gate pauses the writers while a cut is copied, so a cut holds
	// exactly the operations acknowledged before it.
	var gate sync.RWMutex
	var modelMu sync.Mutex
	model := map[string]string{} // tenant/key → last acknowledged value
	var universe []string
	for _, tenant := range cfg.Tenants {
		for _, key := range run.keys[tenant] {
			universe = append(universe, tenant+"/"+key)
		}
	}
	set := func(tenant, key, val string) {
		if err := c.Set(tenant, key, []byte(val)); err != nil {
			t.Fatal(err)
		}
		modelMu.Lock()
		model[tenant+"/"+key] = val
		modelMu.Unlock()
	}
	del := func(tenant, key string) {
		if err := c.Delete(tenant, key); err != nil && !errors.Is(err, ErrNotFound) {
			t.Fatal(err)
		}
		modelMu.Lock()
		delete(model, tenant+"/"+key)
		modelMu.Unlock()
	}
	for _, tk := range run.initial {
		tenant, key, _ := strings.Cut(tk, "/")
		set(tenant, key, "initial")
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w, tenant := range run.writers {
		wg.Add(1)
		go func(w int, tenant string) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(w)))
			keys := run.keys[tenant]
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				key := keys[r.Intn(len(keys))]
				val := ""
				gate.RLock()
				var err error
				if r.Intn(4) == 0 {
					if err = c.Delete(tenant, key); errors.Is(err, ErrNotFound) {
						err = nil
					}
				} else {
					val = fmt.Sprintf("%s-%d", tenant, i)
					err = c.Set(tenant, key, []byte(val))
				}
				if err == nil {
					modelMu.Lock()
					if val == "" {
						delete(model, tenant+"/"+key)
					} else {
						model[tenant+"/"+key] = val
					}
					modelMu.Unlock()
				}
				gate.RUnlock()
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(w, tenant)
	}

	type cut struct {
		name, dir string
		want      map[string]string
		grant     string
		// lostNow holds the modelled keys live did not hold at the cut,
		// lostAfter those a rollout step of the cut's epoch evicted.
		lostNow, lostAfter map[string]bool
	}
	var cuts []cut
	var lostAfter map[string]bool
	holds := func(k string) bool {
		tenant, key, _ := strings.Cut(k, "/")
		return isResident(c, tenant, key)
	}
	capture := func(name string, fix func(dir string)) {
		gate.Lock()
		defer gate.Unlock()
		d := copyWALDir(t, cfg.Persist.Dir)
		if fix != nil {
			fix(d)
		}
		want := make(map[string]string, len(model))
		lostNow := map[string]bool{}
		for k, v := range model {
			want[k] = v
			if !holds(k) {
				lostNow[k] = true
			}
		}
		// The marker is logged: a restart restores the planned grants.
		g := c.plan.L2
		grant := fmt.Sprint(g.Members(g.GroupOf(c.tenants["alpha"])))
		cuts = append(cuts, cut{name, d, want, grant, lostNow, lostAfter})
	}
	// regroup runs one rollout step with the writers paused and records
	// the modelled keys it evicted.
	regroup := func(step func()) {
		gate.Lock()
		defer gate.Unlock()
		var held []string
		for k := range model {
			if holds(k) {
				held = append(held, k)
			}
		}
		step()
		for _, k := range held {
			if !holds(k) {
				lostAfter[k] = true
			}
		}
	}
	var masks [32]uint32
	for e := 0; e < 4; e++ {
		time.Sleep(5 * time.Millisecond) // let traffic land between epochs
		if run.before != nil {
			run.before(e, set, del)
		}
		lostAfter = map[string]bool{}
		// EndEpoch, with the directory cut between its steps.
		c.epochMu.Lock()
		r, _, cp := c.decideEpoch()
		if r != 1 || cp == nil {
			t.Fatalf("epoch %d: reconfigs %d, compaction %v", e, r, cp)
		}
		capture("after-begin", nil)
		begin := cuts[len(cuts)-1].dir
		groupMasks(c.plan.L2, masks[:cfg.Slots])
		regroup(func() { c.regroupShard(c.shards[0], masks[:cfg.Slots]) })
		if run.window != nil {
			run.window(e, set, del)
		}
		capture("partial-rollout", nil)
		regroup(func() { c.applyTopology(c.plan) })
		n := 0
		err := cp.Write(func(emit func(tenant, key string, value []byte) error) error {
			return c.streamSnapshot(func(tenant, key string, value []byte) error {
				if n++; n == 5 {
					capture("torn-temp", func(d string) {
						tmps, _ := filepath.Glob(filepath.Join(d, "*.tmp"))
						if len(tmps) != 1 {
							t.Fatalf("cut mid-snapshot holds temporary files %v, want one", tmps)
						}
						f, err := os.OpenFile(tmps[0], os.O_WRONLY|os.O_APPEND, 0)
						if err != nil {
							t.Fatal(err)
						}
						f.Write([]byte{0xde, 0xad, 0xbe})
						f.Close()
					})
				}
				return emit(tenant, key, value)
			})
		})
		if err != nil {
			t.Fatal(err)
		}
		capture("after-removals", nil)
		// Before the removals the history sat beside the snapshot: every
		// segment of the after-begin cut but its last, the live one.
		capture("after-rename", func(d string) {
			history, _ := filepath.Glob(filepath.Join(begin, "*.wal"))
			sort.Strings(history)
			for _, p := range history[:len(history)-1] {
				b, err := os.ReadFile(p)
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(filepath.Join(d, filepath.Base(p)), b, 0o644); err != nil {
					t.Fatal(err)
				}
			}
		})
		c.epochMu.Unlock()
	}
	close(stop)
	wg.Wait()
	var stranded uint64
	for slot := range cfg.Tenants {
		// Replay cannot reproduce capacity evictions: resize the test.
		if n := c.met.evictCap[slot].Value(); n != 0 {
			t.Fatalf("slot %d capacity-evicted %d lines", slot, n)
		}
		stranded += c.met.evictRepart[slot].Value()
	}
	if run.strands != (stranded > 0) {
		t.Fatalf("%d lines evicted by repartition; stranding run: %v", stranded, run.strands)
	}

	sweptKept := 0 // replays that kept a value live swept
	for _, ct := range cuts {
		rc := cfg
		rc.Policy = nopPolicy{}
		rc.Persist = &PersistConfig{Dir: ct.dir}
		r, err := New(rc, nil)
		if err != nil {
			t.Fatalf("%s: reopen: %v", ct.name, err)
		}
		for _, tk := range universe {
			tenant, key, _ := strings.Cut(tk, "/")
			want, ok := ct.want[tk]
			got, err := r.Get(tenant, key)
			switch {
			case ok && err == nil && string(got) == want:
				if ct.lostNow[tk] || ct.lostAfter[tk] {
					sweptKept++
				}
			case ok && errors.Is(err, ErrNotFound) && (ct.lostNow[tk] || ct.lostAfter[tk]):
				// live evicted it by repartition
			case ok:
				t.Fatalf("%s: Get(%s, %s) = %q, %v; want %q", ct.name, tenant, key, got, err, want)
			case !errors.Is(err, ErrNotFound):
				t.Fatalf("%s: deleted %s/%s reads %q, %v", ct.name, tenant, key, got, err)
			}
		}
		if grant, _ := r.PartitionSlots("alpha"); fmt.Sprint(grant) != ct.grant {
			t.Fatalf("%s: restored alpha grant %v, want %s", ct.name, grant, ct.grant)
		}
		if tmps, _ := filepath.Glob(filepath.Join(ct.dir, "*.tmp")); len(tmps) != 0 {
			t.Fatalf("%s: temporary files survive reopen: %v", ct.name, tmps)
		}
		r.Close()
	}
	if run.strands && sweptKept == 0 {
		t.Fatal("no cut replayed a record logged after the marker into a shard live had not regrouped")
	}
}
