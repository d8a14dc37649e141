package serve

import (
	"fmt"
	"io"
	"log/slog"
	"testing"
	"time"

	"morphcache/internal/core"
	"morphcache/internal/topology"
	"morphcache/internal/wal"
)

// benchCache builds a production-shaped cache with a warm working set that
// fits one tenant's slot, so the benchmark measures the steady-state hit
// path.
func benchCache(b interface{ Fatal(...any) }) (*Cache, []string) {
	cfg := Config{
		Tenants:   []string{"alpha", "beta"},
		Slots:     16,
		Shards:    4,
		SlotBytes: 256 << 10,
		Ways:      8,
	}
	c, err := New(cfg, nil)
	if err != nil {
		b.Fatal(err)
	}
	keys := make([]string, 512)
	for i := range keys {
		keys[i] = fmt.Sprintf("user/%04d/profile", i)
		if err := c.Set("alpha", keys[i], []byte("payload-0123456789abcdef")); err != nil {
			b.Fatal(err)
		}
	}
	return c, keys
}

// BenchmarkServeGet is the steady-state hit path: presence probe, slice
// lookup, LRU touch, ACFV set, sharded counter. The bench job gates it at
// 0 allocs/op (cmd/benchjson -zero-allocs).
func BenchmarkServeGet(b *testing.B) {
	c, keys := benchCache(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Get("alpha", keys[i&511]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServeSet overwrites resident keys in place (the steady-state
// write path; the inserted value itself is caller-allocated).
func BenchmarkServeSet(b *testing.B) {
	c, keys := benchCache(b)
	val := []byte("payload-0123456789abcdef")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Set("alpha", keys[i&511], val); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServeSetWAL is the durable write path: WAL marshal + append
// ride ahead of the in-place overwrite. FsyncNever isolates the logging
// cost from the device; production FsyncAlways adds one fdatasync.
func BenchmarkServeSetWAL(b *testing.B) {
	cfg := Config{
		Tenants:   []string{"alpha", "beta"},
		Slots:     16,
		Shards:    4,
		SlotBytes: 256 << 10,
		Ways:      8,
		Persist: &PersistConfig{
			Dir:   b.TempDir(),
			Fsync: wal.FsyncNever,
		},
	}
	c, err := New(cfg, nil)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	keys := make([]string, 512)
	val := []byte("payload-0123456789abcdef")
	for i := range keys {
		keys[i] = fmt.Sprintf("user/%04d/profile", i)
		if err := c.Set("alpha", keys[i], val); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Set("alpha", keys[i&511], val); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServeEndEpoch is the epoch-boundary pause with the WAL on
// (FsyncNever): quiet, where the controller keeps the grouping and the
// boundary logs one marker; and repartition, where every epoch regroups
// slots alpha holds lines in, evicts what the regrouping strands, rotates
// the log and writes the compaction snapshot. ns/op is the whole call;
// max-stall-ns is the longest Get a probe goroutine, cycling through one
// key on every shard for the whole run, waited — the worst a request
// waits on an epoch boundary (the cut, one shard's sweep or capture).
func BenchmarkServeEndEpoch(b *testing.B) {
	for _, bc := range []struct {
		name   string
		policy core.Policy
	}{
		{"quiet", nopPolicy{}},
		{"repartition", &alternatePolicy{}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			cfg := Config{
				Tenants:   []string{"alpha", "beta"},
				Slots:     16,
				Shards:    4,
				SlotBytes: 256 << 10,
				Ways:      8,
				Policy:    bc.policy,
				Persist:   &PersistConfig{Dir: b.TempDir(), Fsync: wal.FsyncNever},
			}
			c, err := New(cfg, nil)
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			val := []byte("payload-0123456789abcdef")
			probe := make([]string, cfg.Shards)
			for i := 0; i < 4096; i++ {
				key := fmt.Sprintf("user/%04d/profile", i)
				if err := c.Set("alpha", key, val); err != nil {
					b.Fatal(err)
				}
				if sh := int(hashKey(key)>>48) & (cfg.Shards - 1); probe[sh] == "" {
					probe[sh] = key
				}
			}
			stop := make(chan struct{})
			worst := make(chan time.Duration)
			go func() {
				var max time.Duration
				for {
					for _, key := range probe {
						start := time.Now()
						c.Get("alpha", key)
						if d := time.Since(start); d > max {
							max = d
						}
					}
					select {
					case <-stop:
						worst <- max
						return
					default:
					}
				}
			}()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.EndEpoch()
			}
			b.StopTimer()
			close(stop)
			b.ReportMetric(float64(<-worst), "max-stall-ns")
		})
	}
}

// alternatePolicy grants alpha (slot 0) the donor slots 2–4 and takes
// them back on alternate epochs, so every epoch repartitions.
type alternatePolicy struct{ on bool }

func (p *alternatePolicy) Name() string { return "alternate" }

func (p *alternatePolicy) EndEpoch(_ int, m core.Machine) (int, bool) {
	p.on = !p.on
	groups := [][]int{{0}, {1}, {2}, {3}, {4}}
	if p.on {
		groups = [][]int{{0, 2, 3, 4}, {1}}
	}
	for s := 5; s < 16; s++ {
		groups = append(groups, []int{s})
	}
	g, err := topology.FromGroups(16, groups)
	if err != nil {
		panic(err)
	}
	if err := m.SetTopology(topology.Topology{L2: g, L3: g}); err != nil {
		panic(err)
	}
	return 1, false
}

// BenchmarkServeGetObserved is BenchmarkServeGet with request-level
// observability on (structured logging sampled 1-in-128 plus SLO burn
// tracking) — the published cost of turning DESIGN.md §15 on. It is
// deliberately excluded from the -zero-allocs gate: the observed path
// may allocate (slog sampling); only the disabled path is pinned at 0.
func BenchmarkServeGetObserved(b *testing.B) {
	cfg := Config{
		Tenants:   []string{"alpha", "beta"},
		Slots:     16,
		Shards:    4,
		SlotBytes: 256 << 10,
		Ways:      8,
		Obs: ObsConfig{
			Logger:       slog.New(slog.NewJSONHandler(io.Discard, nil)),
			SLOTargetP99: 5 * time.Millisecond,
		},
	}
	c, err := New(cfg, nil)
	if err != nil {
		b.Fatal(err)
	}
	keys := make([]string, 512)
	for i := range keys {
		keys[i] = fmt.Sprintf("user/%04d/profile", i)
		if err := c.Set("alpha", keys[i], []byte("payload-0123456789abcdef")); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Get("alpha", keys[i&511]); err != nil {
			b.Fatal(err)
		}
	}
}

// TestServeGetZeroAlloc pins the acceptance criterion directly, so the
// regression fails in `go test` even where the bench gate does not run.
func TestServeGetZeroAlloc(t *testing.T) {
	c, keys := benchCache(t)
	i := 0
	avg := testing.AllocsPerRun(2000, func() {
		if _, err := c.Get("alpha", keys[i&511]); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if avg != 0 {
		t.Fatalf("steady-state Get hit path allocates %.2f per op, want 0", avg)
	}
}

// TestServeSetZeroAlloc pins the persistence-disabled write path at 0
// allocs/op (the ISSUE-8 acceptance criterion: the WAL hooks must stay
// behind nil checks).
func TestServeSetZeroAlloc(t *testing.T) {
	c, keys := benchCache(t)
	val := []byte("payload-0123456789abcdef")
	i := 0
	avg := testing.AllocsPerRun(2000, func() {
		if err := c.Set("alpha", keys[i&511], val); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if avg != 0 {
		t.Fatalf("steady-state Set overwrite path allocates %.2f per op, want 0", avg)
	}
}
