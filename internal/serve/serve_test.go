package serve

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"morphcache/internal/core"
	"morphcache/internal/obs"
)

// nopPolicy freezes the topology: no grants, private partitions forever.
type nopPolicy struct{}

func (nopPolicy) Name() string                           { return "static" }
func (nopPolicy) EndEpoch(int, core.Machine) (int, bool) { return 0, false }

// testConfig is a small, fast shape: 4 slots x 1 shard x 8 KiB per slot
// (128 lines of 8 ways), so a slot overflows after 128 distinct keys.
func testConfig(tenants ...string) Config {
	return Config{
		Tenants:   tenants,
		Slots:     4,
		Shards:    1,
		SlotBytes: 8 << 10,
		Ways:      8,
	}
}

func mustCache(t *testing.T, cfg Config) *Cache {
	t.Helper()
	c, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestRoundTrip(t *testing.T) {
	c := mustCache(t, testConfig("alpha", "beta"))
	if err := c.Set("alpha", "k1", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	got, err := c.Get("alpha", "k1")
	if err != nil || string(got) != "v1" {
		t.Fatalf("Get = %q, %v; want v1", got, err)
	}
	// Tenants are namespaces: beta does not see alpha's key.
	if _, err := c.Get("beta", "k1"); err != ErrNotFound {
		t.Fatalf("cross-tenant Get err = %v, want ErrNotFound", err)
	}
	// Overwrite.
	if err := c.Set("alpha", "k1", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if got, _ := c.Get("alpha", "k1"); string(got) != "v2" {
		t.Fatalf("after overwrite Get = %q, want v2", got)
	}
	if err := c.Delete("alpha", "k1"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get("alpha", "k1"); err != ErrNotFound {
		t.Fatalf("Get after Delete err = %v, want ErrNotFound", err)
	}
	if err := c.Delete("alpha", "k1"); err != ErrNotFound {
		t.Fatalf("second Delete err = %v, want ErrNotFound", err)
	}
}

func TestErrorPaths(t *testing.T) {
	cfg := testConfig("alpha")
	cfg.MaxValueBytes = 16
	c := mustCache(t, cfg)
	if _, err := c.Get("nobody", "k"); err != ErrUnknownTenant {
		t.Fatalf("unknown tenant Get err = %v", err)
	}
	if err := c.Set("nobody", "k", nil); err != ErrUnknownTenant {
		t.Fatalf("unknown tenant Set err = %v", err)
	}
	if err := c.Delete("nobody", "k"); err != ErrUnknownTenant {
		t.Fatalf("unknown tenant Delete err = %v", err)
	}
	if err := c.Set("alpha", "k", make([]byte, 17)); err != ErrValueTooLarge {
		t.Fatalf("oversized Set err = %v", err)
	}
	if err := c.Set("alpha", "", []byte("v")); err != ErrEmptyKey {
		t.Fatalf("empty key err = %v", err)
	}
	if err := c.Set("alpha", "k", make([]byte, 16)); err != nil {
		t.Fatalf("at-limit Set err = %v", err)
	}
	c.Drain()
	if !c.Draining() {
		t.Fatal("Draining() = false after Drain")
	}
	if _, err := c.Get("alpha", "k"); err != ErrDraining {
		t.Fatalf("draining Get err = %v", err)
	}
	if err := c.Set("alpha", "k2", nil); err != ErrDraining {
		t.Fatalf("draining Set err = %v", err)
	}
	if err := c.Delete("alpha", "k"); err != ErrDraining {
		t.Fatalf("draining Delete err = %v", err)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{},                                           // no tenants
		{Tenants: []string{"a", "a"}},                // duplicate
		{Tenants: []string{""}},                      // empty name
		{Tenants: []string{"a/b"}},                   // slash
		{Tenants: []string{"a"}, Slots: 3},           // non-pow2 slots
		{Tenants: []string{"a"}, Slots: 64},          // over 32
		{Tenants: []string{"a"}, Shards: 3},          // non-pow2 shards
		{Tenants: []string{"a", "b", "c"}, Slots: 2}, // tenants > slots
	}
	for i, cfg := range bad {
		if _, err := New(cfg, nil); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
}

// TestTenantIsolationStatic pins the paper's partition guarantee on the
// serving path: with a frozen private topology (no grants), one tenant's
// churn can never evict another tenant's lines.
func TestTenantIsolationStatic(t *testing.T) {
	cfg := testConfig("victim", "churner")
	cfg.Policy = nopPolicy{}
	c := mustCache(t, cfg)

	const resident = 64 // half the victim's 128-line slot
	for i := 0; i < resident; i++ {
		if err := c.Set("victim", fmt.Sprintf("v%03d", i), []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	occ, _ := c.OccupancyLines("victim")
	if occ != resident {
		t.Fatalf("victim occupancy = %d, want %d", occ, resident)
	}

	// Churn far past the churner's own capacity.
	for i := 0; i < 2000; i++ {
		if err := c.Set("churner", fmt.Sprintf("c%04d", i), []byte("y")); err != nil {
			t.Fatal(err)
		}
	}
	if occ, _ = c.OccupancyLines("victim"); occ != resident {
		t.Fatalf("victim occupancy after churn = %d, want %d", occ, resident)
	}
	for i := 0; i < resident; i++ {
		if _, err := c.Get("victim", fmt.Sprintf("v%03d", i)); err != nil {
			t.Fatalf("victim key v%03d lost: %v", i, err)
		}
	}
	// The churner stayed inside its own slot.
	cocc, _ := c.OccupancyLines("churner")
	if cocc != 128 {
		t.Fatalf("churner occupancy = %d, want its full 128-line slot", cocc)
	}
}

// TestControllerGrantLifecycle drives the full serve-mode loop: a starved
// tenant's demand vector pushes its utilization past MSAT.High, the
// controller grants it the idle buddy slot (capacity merge), the tenant
// fills the grant, and when demand fades the stale-merge split takes the
// capacity back, evicting the lines stranded outside the shrunken
// partition.
func TestControllerGrantLifecycle(t *testing.T) {
	c := mustCache(t, testConfig("alpha", "beta"))

	hot := func(n int) {
		for i := 0; i < n; i++ {
			if err := c.Set("alpha", fmt.Sprintf("h%04d", i), []byte("v")); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Epoch 1: demand ~2x the 128-line slot.
	hot(256)
	if r, _ := c.EndEpoch(); r == 0 {
		t.Fatal("no reconfiguration despite 2x overload next to an idle buddy")
	}
	part, err := c.PartitionSlots("alpha")
	if err != nil {
		t.Fatal(err)
	}
	if len(part) < 2 {
		t.Fatalf("alpha partition = %v, want a grant beyond its own slot", part)
	}
	if got := c.Spec(); got == "(1:1:4)" {
		t.Fatalf("spec still %s after merge", got)
	}

	// Epoch 2: alpha fills the grant; the merge stays justified.
	hot(256)
	occ, _ := c.OccupancyLines("alpha")
	if occ <= 128 {
		t.Fatalf("alpha occupancy = %d, did not use the granted capacity", occ)
	}
	c.EndEpoch()
	if part, _ = c.PartitionSlots("alpha"); len(part) < 2 {
		t.Fatalf("grant revoked while still hot: %v", part)
	}

	// Epoch 3: demand fades; the stale merge splits and strands evict.
	if r, _ := c.EndEpoch(); r == 0 {
		t.Fatal("idle epoch did not split the stale merge")
	}
	if part, _ = c.PartitionSlots("alpha"); len(part) != 1 {
		t.Fatalf("alpha partition = %v after idle epochs, want its own slot", part)
	}
	if occ, _ = c.OccupancyLines("alpha"); occ > 128 {
		t.Fatalf("alpha occupancy = %d lines with a 128-line partition", occ)
	}
	if got := c.Spec(); got != "(1:1:4)" {
		t.Fatalf("spec = %s after split, want (1:1:4)", got)
	}
}

// TestEpochDeterminism replays one op sequence against two identically
// configured caches with epoch boundaries at the same points and requires
// identical topology decisions — the serving analogue of the simulator's
// golden determinism gates. (The epoch clock is the caller's: EndEpoch is
// driven explicitly, so a fixed tick schedule reproduces exactly.)
func TestEpochDeterminism(t *testing.T) {
	run := func() []string {
		c := mustCache(t, testConfig("alpha", "beta", "gamma"))
		var specs []string
		for e := 0; e < 6; e++ {
			n := 300
			if e >= 3 {
				n = 10 // demand fades
			}
			for i := 0; i < n; i++ {
				c.Set("alpha", fmt.Sprintf("a%d-%d", e, i), []byte("v"))
			}
			for i := 0; i < 20; i++ {
				c.Set("beta", fmt.Sprintf("b%d", i), []byte("v"))
				c.Get("beta", fmt.Sprintf("b%d", i))
			}
			c.EndEpoch()
			specs = append(specs, c.Spec())
		}
		return specs
	}
	a, b := run(), run()
	if strings.Join(a, " ") != strings.Join(b, " ") {
		t.Fatalf("topology sequences diverge:\n  %v\n  %v", a, b)
	}
	// The sequence must actually exercise a reconfiguration.
	changed := false
	for _, s := range a {
		if s != "(1:1:4)" {
			changed = true
		}
	}
	if !changed {
		t.Fatalf("sequence never reconfigured: %v", a)
	}
}

// TestMetricsExport scrapes the registry and checks the per-tenant
// families the admin endpoint exposes.
func TestMetricsExport(t *testing.T) {
	reg := obs.NewRegistry()
	cfg := testConfig("alpha", "beta")
	c, err := New(cfg, reg)
	if err != nil {
		t.Fatal(err)
	}
	c.Set("alpha", "k", []byte("v"))
	c.Get("alpha", "k")
	c.Get("alpha", "missing")
	c.EndEpoch()

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`morphserve_requests_total{op="get",outcome="hit",tenant="alpha"} 1`,
		`morphserve_requests_total{op="get",outcome="miss",tenant="alpha"} 1`,
		`morphserve_requests_total{op="set",outcome="stored",tenant="alpha"} 1`,
		`morphserve_tenant_occupancy_lines{tenant="alpha"} 1`,
		`morphserve_tenant_partition_lines{tenant="alpha"} 128`,
		`morphserve_tenant_partition_lines{tenant="beta"} 128`,
		`morphserve_epochs_total 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestPresenceConsistency cross-checks the shard presence indexes against
// slice contents and the values in their ways after heavy mixed traffic.
func TestPresenceConsistency(t *testing.T) {
	cfg := testConfig("alpha", "beta")
	cfg.Shards = 2
	cfg.SlotBytes = 16 << 10
	c := mustCache(t, cfg)
	for i := 0; i < 3000; i++ {
		k := fmt.Sprintf("k%d", i%500)
		switch i % 5 {
		case 0, 1:
			c.Set("alpha", k, []byte("v"))
		case 2:
			c.Get("alpha", k)
		case 3:
			c.Set("beta", k, []byte("w"))
		case 4:
			c.Delete("alpha", k)
		}
		if i%700 == 0 {
			c.EndEpoch()
		}
	}
	checkConsistency(t, c)
}

// TestConcurrentTraffic drives mixed traffic from several goroutines with
// epoch reconfigurations interleaved, for the race detector: the shard
// locks, the all-shard EndEpoch path, the atomic occupancy gauges, and
// concurrent metric scrapes must all be clean.
func TestConcurrentTraffic(t *testing.T) {
	reg := obs.NewRegistry()
	cfg := testConfig("alpha", "beta")
	cfg.Shards = 4
	cfg.SlotBytes = 32 << 10
	c, err := New(cfg, reg)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tenant := "alpha"
			if w%2 == 1 {
				tenant = "beta"
			}
			for i := 0; i < 2000; i++ {
				k := fmt.Sprintf("w%d-%d", w, i%300)
				switch i % 4 {
				case 0, 1:
					c.Set(tenant, k, []byte("v"))
				case 2:
					c.Get(tenant, k)
				case 3:
					c.Delete(tenant, k)
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			c.EndEpoch()
			var b strings.Builder
			if err := reg.WritePrometheus(&b); err != nil {
				t.Error(err)
			}
		}
	}()
	wg.Wait()
	checkConsistency(t, c)
}
