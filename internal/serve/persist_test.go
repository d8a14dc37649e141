package serve

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"morphcache/internal/core"
	"morphcache/internal/fault"
	"morphcache/internal/obs"
	"morphcache/internal/topology"
	"morphcache/internal/wal"
)

// persistConfig is testConfig plus a WAL in a fresh directory and the
// static policy (so epochs are deterministic).
func persistConfig(t *testing.T, tenants ...string) Config {
	t.Helper()
	cfg := testConfig(tenants...)
	cfg.Policy = nopPolicy{}
	cfg.Persist = &PersistConfig{Dir: t.TempDir()}
	return cfg
}

func TestPersistRestartRoundTrip(t *testing.T) {
	cfg := persistConfig(t, "alpha", "beta")
	c := mustCache(t, cfg)
	for i := 0; i < 20; i++ {
		if err := c.Set("alpha", fmt.Sprintf("k%02d", i), []byte(fmt.Sprintf("v%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Set("beta", "solo", []byte("b")); err != nil {
		t.Fatal(err)
	}
	// Overwrites and deletes must replay in order.
	if err := c.Set("alpha", "k03", []byte("rewritten")); err != nil {
		t.Fatal(err)
	}
	if err := c.Delete("alpha", "k07"); err != nil {
		t.Fatal(err)
	}
	c.EndEpoch()
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	r := mustCache(t, cfg)
	defer r.Close()
	if got := r.Epoch(); got != 1 {
		t.Fatalf("restored epoch = %d, want 1", got)
	}
	for i := 0; i < 20; i++ {
		key := fmt.Sprintf("k%02d", i)
		want := fmt.Sprintf("v%02d", i)
		switch i {
		case 3:
			want = "rewritten"
		case 7:
			if _, err := r.Get("alpha", key); err != ErrNotFound {
				t.Fatalf("deleted key %s err = %v, want ErrNotFound", key, err)
			}
			continue
		}
		got, err := r.Get("alpha", key)
		if err != nil || string(got) != want {
			t.Fatalf("Get(alpha, %s) = %q, %v; want %q", key, got, err, want)
		}
	}
	if got, err := r.Get("beta", "solo"); err != nil || string(got) != "b" {
		t.Fatalf("Get(beta, solo) = %q, %v", got, err)
	}
	occ, _ := r.OccupancyLines("alpha")
	if occ != 19 {
		t.Fatalf("restored alpha occupancy = %d, want 19", occ)
	}
}

func TestPersistTornTailTruncated(t *testing.T) {
	cfg := persistConfig(t, "alpha")
	c := mustCache(t, cfg)
	for i := 0; i < 5; i++ {
		if err := c.Set("alpha", fmt.Sprintf("k%d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a torn append: garbage bytes at the tail of the last
	// segment, as a crash mid-write would leave.
	seg := filepath.Join(cfg.Persist.Dir, "00000001.wal")
	f, err := os.OpenFile(seg, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xde, 0xad, 0xbe, 0xef, 0x01}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	reg := obs.NewRegistry()
	r, err := New(cfg, reg)
	if err != nil {
		t.Fatalf("reopen after torn tail: %v", err)
	}
	defer r.Close()
	for i := 0; i < 5; i++ {
		if _, err := r.Get("alpha", fmt.Sprintf("k%d", i)); err != nil {
			t.Fatalf("key k%d lost after torn-tail repair: %v", i, err)
		}
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"morphserve_wal_replay_clean 0",
		"morphserve_wal_replay_records 5",
	} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("metrics missing %q:\n%s", want, buf.String())
		}
	}
	// The repaired log accepts appends and a clean reopen follows.
	if err := r.Set("alpha", "after", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	r2 := mustCache(t, cfg)
	defer r2.Close()
	if _, err := r2.Get("alpha", "after"); err != nil {
		t.Fatalf("post-repair append lost: %v", err)
	}
}

// mergeOncePolicy applies one fixed regrouping at the first epoch.
type mergeOncePolicy struct {
	groups [][]int
	fired  bool
}

func (p *mergeOncePolicy) Name() string { return "test-merge" }

func (p *mergeOncePolicy) EndEpoch(_ int, m core.Machine) (int, bool) {
	if p.fired {
		return 0, false
	}
	p.fired = true
	g, err := topology.FromGroups(4, p.groups)
	if err != nil {
		panic(err)
	}
	if err := m.SetTopology(topology.Topology{L2: g, L3: g}); err != nil {
		panic(err)
	}
	return 1, false
}

func TestPersistCompactionRestoresGrants(t *testing.T) {
	cfg := persistConfig(t, "alpha", "beta")
	cfg.Policy = &mergeOncePolicy{groups: [][]int{{0, 1}, {2}, {3}}}
	c := mustCache(t, cfg)
	for i := 0; i < 10; i++ {
		if err := c.Set("alpha", fmt.Sprintf("k%d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if r, _ := c.EndEpoch(); r != 1 {
		t.Fatalf("EndEpoch reconfigs = %d, want 1", r)
	}
	wantPart, err := c.PartitionSlots("alpha")
	if err != nil {
		t.Fatal(err)
	}
	if len(wantPart) != 2 {
		t.Fatalf("alpha partition = %v, want 2 slots", wantPart)
	}
	// Reconfiguration compacts the log to a snapshot segment followed by
	// the live one: nothing older than the snapshot survives.
	segs, _ := filepath.Glob(filepath.Join(cfg.Persist.Dir, "*.wal"))
	if len(segs) == 0 || len(segs) > 2 || c.wal.SegmentCount() != len(segs) {
		t.Fatalf("segments after compaction = %v (count %d), want the snapshot and the live segment", segs, c.wal.SegmentCount())
	}
	f, err := os.Open(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	var first wal.Record
	wal.ReadRecords(f, 1<<20, func(r wal.Record) error {
		if first.Kind == 0 {
			first = r
		}
		return nil
	})
	f.Close()
	if first.Kind != wal.KindSnapshotBegin {
		t.Fatalf("oldest segment %s starts with %v, want the snapshot", segs[0], first.Kind)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart under the static policy: the grant must come back from the
	// snapshot, not from re-running the controller.
	cfg.Policy = nopPolicy{}
	r := mustCache(t, cfg)
	defer r.Close()
	gotPart, err := r.PartitionSlots("alpha")
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(gotPart) != fmt.Sprint(wantPart) {
		t.Fatalf("restored partition = %v, want %v", gotPart, wantPart)
	}
	if got := r.Epoch(); got != 1 {
		t.Fatalf("restored epoch = %d, want 1", got)
	}
	for i := 0; i < 10; i++ {
		if _, err := r.Get("alpha", fmt.Sprintf("k%d", i)); err != nil {
			t.Fatalf("key k%d lost across compaction+restart: %v", i, err)
		}
	}
}

func TestPersistDegradedModeAndRecovery(t *testing.T) {
	cfg := persistConfig(t, "alpha")
	cfg.Faults = &fault.Plan{Events: []fault.Event{
		{Epoch: 1, Kind: fault.WALWriteErr, Duration: 1},
	}}
	c := mustCache(t, cfg)
	defer c.Close()
	if err := c.Set("alpha", "before", []byte("v")); err != nil {
		t.Fatal(err)
	}
	c.EndEpoch() // applies the fault; the epoch probe append fails (1)
	var sawPersist bool
	for i := 0; i < walFailThreshold; i++ {
		err := c.Set("alpha", "during", []byte("v"))
		if errors.Is(err, ErrPersist) {
			sawPersist = true
			continue
		}
		if errors.Is(err, ErrDegraded) {
			break
		}
		t.Fatalf("Set under WAL fault err = %v, want ErrPersist or ErrDegraded", err)
	}
	if !sawPersist {
		t.Fatal("no Set surfaced ErrPersist before degradation")
	}
	if !c.Degraded() {
		t.Fatal("cache not degraded after persistent WAL failure")
	}
	if err := c.Set("alpha", "rejected", []byte("v")); !errors.Is(err, ErrDegraded) {
		t.Fatalf("degraded Set err = %v, want ErrDegraded", err)
	}
	// Reads keep serving: degradation is read-mostly, not an outage.
	if _, err := c.Get("alpha", "before"); err != nil {
		t.Fatalf("degraded Get err = %v", err)
	}
	// The fault window closes at the next epoch; the boundary append is
	// the recovery probe.
	c.EndEpoch()
	if c.Degraded() {
		t.Fatal("cache still degraded after fault window closed")
	}
	if err := c.Set("alpha", "after", []byte("v")); err != nil {
		t.Fatalf("Set after recovery err = %v", err)
	}
}

func TestShardStallShedsAndExpires(t *testing.T) {
	cfg := testConfig("alpha") // no WAL: faults work on volatile caches too
	cfg.Policy = nopPolicy{}
	cfg.Faults = &fault.Plan{Events: []fault.Event{
		{Epoch: 1, Kind: fault.ShardStall, Slice: 0, Duration: 1},
	}}
	c := mustCache(t, cfg)
	if err := c.Set("alpha", "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	c.EndEpoch()
	if _, err := c.Get("alpha", "k"); !errors.Is(err, ErrShardStalled) {
		t.Fatalf("stalled Get err = %v, want ErrShardStalled", err)
	}
	if err := c.Set("alpha", "k2", []byte("v")); !errors.Is(err, ErrShardStalled) {
		t.Fatalf("stalled Set err = %v, want ErrShardStalled", err)
	}
	c.EndEpoch()
	if _, err := c.Get("alpha", "k"); err != nil {
		t.Fatalf("Get after stall expiry err = %v", err)
	}
}

func TestPersistSkipsRemovedTenant(t *testing.T) {
	cfg := persistConfig(t, "alpha", "beta")
	c := mustCache(t, cfg)
	if err := c.Set("alpha", "keep", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := c.Set("beta", "drop", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	// Restart with beta removed from the configuration: its records are
	// skipped, alpha's replay.
	cfg2 := cfg
	cfg2.Tenants = []string{"alpha"}
	reg := obs.NewRegistry()
	r, err := New(cfg2, reg)
	if err != nil {
		t.Fatalf("reopen without beta: %v", err)
	}
	defer r.Close()
	if _, err := r.Get("alpha", "keep"); err != nil {
		t.Fatalf("alpha key lost: %v", err)
	}
	var buf bytes.Buffer
	reg.WritePrometheus(&buf)
	if !strings.Contains(buf.String(), "morphserve_wal_replay_skipped_records 1") {
		t.Fatalf("skip not reported:\n%s", buf.String())
	}
}

func TestGroupingEncodeDecode(t *testing.T) {
	for _, groups := range [][][]int{
		{{0}, {1}, {2}, {3}},
		{{0, 1}, {2}, {3}},
		{{0, 2}, {1, 3}},
		{{0, 1, 2, 3}},
	} {
		g, err := topology.FromGroups(4, groups)
		if err != nil {
			t.Fatal(err)
		}
		got, err := decodeGrouping(encodeGrouping(g), 4)
		if err != nil {
			t.Fatalf("decode(%v): %v", groups, err)
		}
		if !got.Equal(g) {
			t.Fatalf("grouping %v did not round-trip: got %v", g, got)
		}
	}
	if _, err := decodeGrouping([]byte{8, 0, 0, 0, 0, 0, 0, 0, 0}, 4); err == nil {
		t.Fatal("slot-count mismatch not rejected")
	}
	if _, err := decodeGrouping([]byte{4, 0, 9, 0, 0}, 4); err == nil {
		t.Fatal("out-of-range group id not rejected")
	}
}

func TestKeyTooLongRejected(t *testing.T) {
	c := mustCache(t, testConfig("alpha"))
	long := strings.Repeat("k", maxKeyBytes+1)
	if err := c.Set("alpha", long, []byte("v")); !errors.Is(err, ErrKeyTooLong) {
		t.Fatalf("Set err = %v, want ErrKeyTooLong", err)
	}
	if err := c.Delete("alpha", long); !errors.Is(err, ErrKeyTooLong) {
		t.Fatalf("Delete err = %v, want ErrKeyTooLong", err)
	}
}

func TestPersistConfigValidation(t *testing.T) {
	cfg := testConfig("alpha")
	cfg.Persist = &PersistConfig{}
	if _, err := New(cfg, nil); err == nil {
		t.Fatal("empty WAL dir accepted")
	}
	cfg.Persist = &PersistConfig{Dir: t.TempDir(), Fsync: wal.FsyncPolicy(9)}
	if _, err := New(cfg, nil); err == nil {
		t.Fatal("bogus fsync policy accepted")
	}
}

func TestCloseWithoutPersist(t *testing.T) {
	c := mustCache(t, testConfig("alpha"))
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}
