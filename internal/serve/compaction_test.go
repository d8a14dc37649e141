package serve

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
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

// TestPersistCompactionCrashCuts cuts the WAL directory at every step of
// a two-phase compaction under FsyncAlways while two goroutines Set and
// Delete: after the rotation (the epoch marker logged, no snapshot yet),
// with a torn temporary snapshot, after the rename, and after the
// removals. Every cut must reopen without error, serve every
// acknowledged Set's last value, keep every acknowledged Delete deleted,
// restore the epoch's grants, and leave no temporary file behind.
func TestPersistCompactionCrashCuts(t *testing.T) {
	const keys = 24
	cfg := persistConfig(t, "alpha", "beta")
	// 64 sets × 8 ways per shard: the keys never fill a set, so nothing is
	// capacity-evicted and growPolicy never strands a line.
	cfg.Shards, cfg.SlotBytes = 2, 64<<10
	cfg.Policy = &growPolicy{}
	c := mustCache(t, cfg)
	defer c.Close()

	// gate pauses the writers while a cut is copied, so a cut holds
	// exactly the operations acknowledged before it.
	var gate sync.RWMutex
	var modelMu sync.Mutex
	model := map[string]string{} // tenant/key → last acknowledged value
	for _, tenant := range cfg.Tenants {
		for k := 0; k < keys; k++ {
			key := fmt.Sprintf("k%02d", k)
			if err := c.Set(tenant, key, []byte("initial")); err != nil {
				t.Fatal(err)
			}
			model[tenant+"/"+key] = "initial"
		}
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w, tenant := range []string{"alpha", "beta"} {
		wg.Add(1)
		go func(w int, tenant string) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(w)))
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				key := fmt.Sprintf("k%02d", r.Intn(keys))
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
	}
	var cuts []cut
	capture := func(name string, fix func(dir string)) {
		gate.Lock()
		defer gate.Unlock()
		d := copyWALDir(t, cfg.Persist.Dir)
		if fix != nil {
			fix(d)
		}
		want := make(map[string]string, len(model))
		for k, v := range model {
			want[k] = v
		}
		grant, _ := c.PartitionSlots("alpha")
		cuts = append(cuts, cut{name, d, want, fmt.Sprint(grant)})
	}
	for e := 0; e < 4; e++ {
		time.Sleep(5 * time.Millisecond) // let traffic land between epochs
		// EndEpoch, with the directory cut between its steps.
		c.epochMu.Lock()
		r, _, cp := c.endEpochLocked()
		if r != 1 || cp == nil {
			t.Fatalf("epoch %d: reconfigs %d, compaction %v", e, r, cp)
		}
		capture("after-begin", nil)
		begin := cuts[len(cuts)-1].dir
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
	for slot := range cfg.Tenants {
		if n := c.met.evictCap[slot].Value() + c.met.evictRepart[slot].Value(); n != 0 {
			t.Fatalf("slot %d evicted %d lines: replay cannot reproduce evictions, resize the test", slot, n)
		}
	}

	for _, ct := range cuts {
		rc := cfg
		rc.Policy = nopPolicy{}
		rc.Persist = &PersistConfig{Dir: ct.dir}
		r, err := New(rc, nil)
		if err != nil {
			t.Fatalf("%s: reopen: %v", ct.name, err)
		}
		for _, tenant := range cfg.Tenants {
			for k := 0; k < keys; k++ {
				key := fmt.Sprintf("k%02d", k)
				want, ok := ct.want[tenant+"/"+key]
				got, err := r.Get(tenant, key)
				switch {
				case ok && (err != nil || string(got) != want):
					t.Fatalf("%s: Get(%s, %s) = %q, %v; want %q", ct.name, tenant, key, got, err, want)
				case !ok && !errors.Is(err, ErrNotFound):
					t.Fatalf("%s: deleted %s/%s reads %q, %v", ct.name, tenant, key, got, err)
				}
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
}
