// Package serve turns the MorphCache controller into a serving-path
// component: a sharded in-memory cache where multi-tenant keyspaces play
// the role of the paper's cores. Each tenant is homed on one "slot" — the
// serving analogue of a private cache slice — and the controller's
// merge/split rules (§2.2–2.3) dynamically repartition capacity between
// tenants at every epoch, exactly as they regroup slices in the simulated
// hierarchy.
//
// Mapping to the paper:
//
//   - A slot is a slice: a set-associative cache.Slice per shard, sized to
//     an equal share of the configured capacity. Slots are the units the
//     topology groups; a tenant's partition is its slot's group.
//   - A tenant is a core: its keyspace is one address space (ASID), so the
//     controller's sharing rules see distinct tenants as distinct address
//     spaces and only capacity merges (rule i) ever fire between them —
//     a hot tenant annexes an under-used neighbor's slots, and the split
//     rules hand the capacity back when demand fades.
//   - The per-tenant demand vector is the ACFV (§2.1): every touched line
//     hashes into a per-epoch bit vector, and |ACFV| normalized by slot
//     capacity is the utilization signal the MSAT thresholds compare. The
//     vector is 4x slot capacity wide, so the estimate tracks demand past
//     capacity (a starved tenant reads well above 1.0) while aliasing
//     keeps it sublinear, like the hardware vectors Fig. 5 calibrates.
//
// Concurrency: keys hash across shards; each shard owns a full column of
// per-slot slices, a PresenceIndex (the PR-5 allocation-free line→owner
// map), and a value store, all under one mutex. Reconfiguration takes
// every shard lock, so the access path never sees a half-applied
// topology.
package serve

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	"morphcache/internal/acfv"
	"morphcache/internal/cache"
	"morphcache/internal/core"
	"morphcache/internal/fault"
	"morphcache/internal/hierarchy"
	"morphcache/internal/mem"
	"morphcache/internal/obs"
	"morphcache/internal/telemetry"
	"morphcache/internal/topology"
	"morphcache/internal/wal"
)

// Errors returned by the cache's operations. They are sentinels so the hit
// path stays allocation-free.
var (
	// ErrUnknownTenant rejects an operation naming a tenant that was not
	// declared at construction.
	ErrUnknownTenant = errors.New("serve: unknown tenant")
	// ErrNotFound reports a miss on Get or Delete.
	ErrNotFound = errors.New("serve: not found")
	// ErrValueTooLarge rejects a Set whose value exceeds MaxValueBytes.
	ErrValueTooLarge = errors.New("serve: value too large")
	// ErrDraining rejects operations once Drain has been called.
	ErrDraining = errors.New("serve: draining")
	// ErrEmptyKey rejects operations with an empty key.
	ErrEmptyKey = errors.New("serve: empty key")
)

// Config sizes the cache and names its tenants.
type Config struct {
	// Tenants are the declared keyspaces, assigned to slots in order.
	// Requests for undeclared tenants fail; slots beyond len(Tenants)
	// start empty and act as donor capacity the controller can grant.
	Tenants []string
	// Slots is the number of capacity slots (the paper's cores); a power
	// of two in [2, 32], at least len(Tenants). Default 16.
	Slots int
	// Shards is the concurrency degree; a power of two. Each shard holds
	// one slice per slot. Default 4.
	Shards int
	// SlotBytes is one slot's capacity in bytes summed over all shards;
	// SlotBytes/Shards must be a valid cache.Config size. Default 256 KiB.
	SlotBytes int
	// Ways is the slice associativity. Default 8.
	Ways int
	// MaxValueBytes bounds one value's size. Default 64 KiB.
	MaxValueBytes int
	// Policy decides reconfigurations at every epoch. Default: the
	// MorphCache controller with DefaultOptions and MaxGroup = Slots.
	Policy core.Policy
	// EpochInterval is the reconfiguration cadence used by RunEpochs.
	// Default 10s.
	EpochInterval time.Duration
	// Persist enables write-ahead-log persistence (see PersistConfig).
	// Nil keeps the cache volatile and its hit paths allocation-free.
	Persist *PersistConfig
	// Admission bounds request admission at the HTTP layer; the zero
	// value disables every limit (see AdmissionConfig).
	Admission AdmissionConfig
	// Faults is an optional serve-layer chaos plan (shard stalls, WAL
	// write errors, disk-full windows) applied at epoch boundaries. It
	// must pass fault.Plan.ValidateServe against Shards.
	Faults *fault.Plan
	// Obs enables request-level observability: structured logging, SLO
	// burn-rate tracking, and request spans (DESIGN.md §15). The zero
	// value keeps the access path allocation-free; the decision audit
	// ring (GET /decisions, /events) is on regardless, since it costs
	// nothing per request.
	Obs ObsConfig
}

func (c Config) withDefaults() Config {
	if c.Slots == 0 {
		c.Slots = 16
	}
	if c.Shards == 0 {
		c.Shards = 4
	}
	if c.SlotBytes == 0 {
		c.SlotBytes = 256 << 10
	}
	if c.Ways == 0 {
		c.Ways = 8
	}
	if c.MaxValueBytes == 0 {
		c.MaxValueBytes = 64 << 10
	}
	if c.EpochInterval == 0 {
		c.EpochInterval = 10 * time.Second
	}
	return c
}

// Validate reports whether the (defaulted) configuration is usable.
func (c Config) Validate() error {
	if len(c.Tenants) == 0 {
		return errors.New("serve: no tenants declared")
	}
	if c.Slots < 2 || c.Slots > 32 || c.Slots&(c.Slots-1) != 0 {
		return fmt.Errorf("serve: slots %d not a power of two in [2, 32]", c.Slots)
	}
	if len(c.Tenants) > c.Slots {
		return fmt.Errorf("serve: %d tenants over %d slots", len(c.Tenants), c.Slots)
	}
	if c.Shards < 1 || c.Shards&(c.Shards-1) != 0 {
		return fmt.Errorf("serve: shards %d not a power of two", c.Shards)
	}
	seen := make(map[string]bool, len(c.Tenants))
	for _, t := range c.Tenants {
		if t == "" {
			return errors.New("serve: empty tenant name")
		}
		for i := 0; i < len(t); i++ {
			if t[i] == '/' {
				return fmt.Errorf("serve: tenant name %q contains '/'", t)
			}
		}
		if seen[t] {
			return fmt.Errorf("serve: duplicate tenant %q", t)
		}
		seen[t] = true
	}
	if c.MaxValueBytes <= 0 {
		return fmt.Errorf("serve: non-positive max value size %d", c.MaxValueBytes)
	}
	if c.SlotBytes%c.Shards != 0 {
		return fmt.Errorf("serve: slot bytes %d not divisible by %d shards", c.SlotBytes, c.Shards)
	}
	if err := c.Persist.validate(); err != nil {
		return err
	}
	if err := c.Admission.validate(); err != nil {
		return err
	}
	if err := c.Faults.ValidateServe(c.Shards); err != nil {
		return err
	}
	if err := c.Obs.validate(); err != nil {
		return err
	}
	return cache.Config{SizeBytes: c.SlotBytes / c.Shards, Ways: c.Ways, Policy: cache.LRU}.Validate()
}

// entry is one stored value. The full key is kept to disambiguate hash
// collisions: a Get whose key does not match the resident one is a miss.
type entry struct {
	key string
	val []byte
}

// shard is one concurrency unit: a full column of per-slot slices plus
// the presence index and value store for the keys that hash to it.
type shard struct {
	mu sync.Mutex
	// slices[slot] is this shard's bank of the slot.
	slices []*cache.Slice
	// pres maps a resident global line to the one-bit mask of the slot
	// holding it (the PR-5 open-addressing index; no allocation after New).
	pres *hierarchy.PresenceIndex
	// store holds the values, keyed by ASID-qualified line hash.
	store map[mem.GlobalLine]entry
	// vecs[slot] is the homed tenant's ACFV for this shard's traffic.
	vecs []*acfv.Vector
	// stall is the count of epochs this shard keeps shedding operations
	// with ErrShardStalled (injected fault; guarded by mu).
	stall int
}

// Cache is the policy-governed multi-tenant cache.
type Cache struct {
	cfg     Config
	tenants map[string]int // name -> home slot
	names   []string       // slot -> name ("" = donor slot)
	shards  []*shard
	// slotLines is one slice's line capacity (per shard, per slot).
	slotLines int

	// topo and partMask are the current partitioning; both levels mirror
	// one grouping. Written only with every shard lock held; read under
	// any one shard lock.
	topo     topology.Topology
	partMask []uint32
	epoch    int

	policy   core.Policy
	draining atomic.Bool
	// epochMu serializes EndEpoch, including the snapshot it writes after
	// releasing the shard locks, against other epochs and Close.
	epochMu sync.Mutex

	// occupancy[slot] counts the tenant's resident lines across shards
	// (atomic so metric scrapes read without locks).
	occupancy []atomic.Int64
	// misses[slot] is the cumulative per-tenant miss count (core.Machine's
	// PerCoreMisses signal).
	misses []atomic.Uint64

	// wal is the write-ahead log (nil without Config.Persist). walFails
	// counts consecutive append failures; crossing walFailThreshold sets
	// degraded (read-mostly mode — writes shed with ErrDegraded until an
	// epoch-boundary probe append succeeds again).
	wal      *wal.Log
	walFails atomic.Int32
	degraded atomic.Bool

	// adm is the HTTP admission controller (nil when no limit is set).
	adm *admission
	// flt is the serve-layer fault plan; walInjUntil is the epoch at
	// which an injected WAL failure window closes (both read/written
	// only with every shard lock held).
	flt         *fault.Plan
	walInjUntil int

	met *metrics

	// The observability plane (DESIGN.md §15). audit and hub are always
	// on (they cost nothing per request); robs is nil unless ObsConfig
	// enables request-path observation, and every request-path hook hides
	// behind that one nil check so the disabled path stays 0 allocs/op.
	// slog carries the always-on decision/degradation/fault lines (nil =
	// off); now is the injectable wall clock. pendingDelta is the
	// per-tenant granted-slot delta of the topology swap in flight,
	// stashed by machine.SetTopology for the recorder that fires next
	// (only touched with every shard lock held).
	audit        *auditRing
	hub          *eventHub
	robs         *reqObs
	slog         *slog.Logger
	now          func() time.Time
	pendingDelta map[string]int
}

// New builds the cache. A nil registry disables metric export (a private
// registry still backs the counters so the access path is uniform).
func New(cfg Config, reg *obs.Registry) (*Cache, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Policy == nil {
		opts := core.DefaultOptions()
		opts.MaxGroup = cfg.Slots
		cfg.Policy = core.New(opts)
	}
	if reg == nil {
		reg = obs.NewRegistry()
	}
	sliceBytes := cfg.SlotBytes / cfg.Shards
	slotLines := sliceBytes / mem.LineSize
	vecWidth := 16
	for vecWidth < 4*slotLines {
		vecWidth <<= 1
	}
	c := &Cache{
		cfg:       cfg,
		tenants:   make(map[string]int, len(cfg.Tenants)),
		names:     make([]string, cfg.Slots),
		shards:    make([]*shard, cfg.Shards),
		slotLines: slotLines,
		partMask:  make([]uint32, cfg.Slots),
		policy:    cfg.Policy,
		occupancy: make([]atomic.Int64, cfg.Slots),
		misses:    make([]atomic.Uint64, cfg.Slots),
	}
	for i, t := range cfg.Tenants {
		c.tenants[t] = i
		c.names[i] = t
	}
	for i := range c.shards {
		sh := &shard{
			slices: make([]*cache.Slice, cfg.Slots),
			pres:   hierarchy.NewPresenceIndex(cfg.Slots * slotLines),
			store:  make(map[mem.GlobalLine]entry, cfg.Slots*slotLines),
			vecs:   make([]*acfv.Vector, cfg.Slots),
		}
		clock := &cache.Clock{}
		for s := range sh.slices {
			sh.slices[s] = cache.New(cache.Config{SizeBytes: sliceBytes, Ways: cfg.Ways, Policy: cache.LRU})
			sh.slices[s].ShareClock(clock)
			sh.vecs[s] = acfv.NewVector(vecWidth, acfv.XOR)
		}
		c.shards[i] = sh
	}
	c.topo = topology.AllPrivate(cfg.Slots)
	c.computePartMask()
	c.flt = cfg.Faults
	if cfg.Admission.enabled() {
		c.adm = newAdmission(cfg.Admission, cfg.Slots)
	}
	c.now = cfg.Obs.Now
	if c.now == nil {
		c.now = time.Now
	}
	c.slog = cfg.Obs.Logger
	c.audit = newAuditRing(cfg.Obs.AuditCapacity)
	c.hub = newEventHub()
	c.robs = newReqObs(cfg.Obs, c)
	// The controller mirrors every applied reconfiguration to a recorder
	// (telemetry.RecorderSettable); routing that mirror into the audit
	// ring gives the serving path the simulator's decision inspection
	// layer for free. A custom policy without the hook just leaves
	// /decisions empty.
	if rs, ok := c.policy.(telemetry.RecorderSettable); ok {
		rs.SetRecorder(auditRecorder{c})
	}
	c.met = newMetrics(reg, c)
	c.met.setPartitionGauges()
	if cfg.Persist != nil {
		if err := c.openWAL(); err != nil {
			return nil, err
		}
		c.met.setPartitionGauges()
	}
	return c, nil
}

// computePartMask caches each slot's group mask; the access path reads it
// on every request (under its shard lock).
func (c *Cache) computePartMask() {
	g := c.topo.L2
	for gi := 0; gi < g.NumGroups(); gi++ {
		var mask uint32
		for _, s := range g.Members(gi) {
			mask |= 1 << uint(s)
		}
		for _, s := range g.Members(gi) {
			c.partMask[s] = mask
		}
	}
}

// asidOf maps a slot to its address space (ASID 0 is reserved).
func asidOf(slot int) mem.ASID { return mem.ASID(slot + 1) }

// hashKey mixes a key into a 64-bit line address: FNV-1a with a
// splitmix64 finalizer so short keys still spread across sets (low bits),
// shards (high bits), and ACFV positions.
func hashKey(key string) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime
	}
	h ^= h >> 30
	h *= 0xBF58476D1CE4E5B9
	h ^= h >> 27
	h *= 0x94D049BB133111EB
	return h ^ h>>31
}

// shardOf picks the shard from the hash's high bits, far from the set
// index bits the slices consume.
func (c *Cache) shardOf(h uint64) *shard {
	return c.shards[int((h>>48)&uint64(len(c.shards)-1))]
}

// Get returns the value stored under (tenant, key), or ErrNotFound. The
// hit path performs no allocation: a presence probe, one slice lookup,
// an LRU touch, and an ACFV bit set. With ObsConfig enabled the call is
// additionally SLO-tracked and sampled into the access log.
func (c *Cache) Get(tenant, key string) ([]byte, error) {
	if ro := c.robs; ro != nil {
		start := ro.now()
		val, err := c.get(tenant, key, nil)
		ro.observe("get", tenant, start, err)
		return val, err
	}
	return c.get(tenant, key, nil)
}

// get is the observation-free core of Get; rs (nil on the library path)
// carries the HTTP request's trace track for child spans.
func (c *Cache) get(tenant, key string, rs *reqSpans) ([]byte, error) {
	if c.draining.Load() {
		return nil, ErrDraining
	}
	slot, ok := c.tenants[tenant]
	if !ok {
		return nil, ErrUnknownTenant
	}
	if key == "" {
		return nil, ErrEmptyKey
	}
	h := hashKey(key)
	line := mem.Line(h)
	gl := mem.GlobalLine{ASID: asidOf(slot), Line: line}
	sh := c.shardOf(h)
	shardIdx := int((h >> 48) & uint64(len(c.shards)-1))
	lockSp := rs.begin("shard_lock_wait")
	sh.mu.Lock()
	lockSp.End()
	storeSp := rs.begin("store_access")
	if sh.stall > 0 {
		sh.mu.Unlock()
		storeSp.End()
		c.met.stalled()
		return nil, ErrShardStalled
	}
	mask := sh.pres.Get(gl) & c.partMask[slot]
	if mask == 0 {
		c.misses[slot].Add(1)
		sh.mu.Unlock()
		storeSp.End()
		c.met.getMiss(slot, shardIdx)
		return nil, ErrNotFound
	}
	phys := bits.TrailingZeros32(mask)
	sl := sh.slices[phys]
	w := sl.Lookup(gl.ASID, line)
	if w < 0 {
		panic("serve: present mask inconsistent")
	}
	e := sh.store[gl]
	if e.key != key {
		// Hash collision: a different key owns the line. Miss.
		c.misses[slot].Add(1)
		sh.mu.Unlock()
		storeSp.End()
		c.met.collision(slot, shardIdx)
		c.met.getMiss(slot, shardIdx)
		return nil, ErrNotFound
	}
	sl.Touch(sl.SetIndex(line), w)
	sh.vecs[slot].Set(line)
	sh.mu.Unlock()
	storeSp.End()
	c.met.getHit(slot, shardIdx)
	return e.val, nil
}

// Set stores val under (tenant, key), evicting within the tenant's
// current partition if its group is full. The cache takes ownership of
// val; callers must not mutate it afterwards. With persistence enabled
// the record is appended to the WAL (and, under FsyncAlways, synced)
// before it is applied — a nil return means the write is durable to the
// configured policy.
func (c *Cache) Set(tenant, key string, val []byte) error {
	if ro := c.robs; ro != nil {
		start := ro.now()
		err := c.set(tenant, key, val, nil)
		ro.observe("set", tenant, start, err)
		return err
	}
	return c.set(tenant, key, val, nil)
}

// set is the observation-free core of Set (see get).
func (c *Cache) set(tenant, key string, val []byte, rs *reqSpans) error {
	if c.draining.Load() {
		return ErrDraining
	}
	slot, ok := c.tenants[tenant]
	if !ok {
		return ErrUnknownTenant
	}
	if key == "" {
		return ErrEmptyKey
	}
	if len(key) > maxKeyBytes {
		return ErrKeyTooLong
	}
	if len(val) > c.cfg.MaxValueBytes {
		return ErrValueTooLarge
	}
	if c.wal != nil && c.degraded.Load() {
		return ErrDegraded
	}
	h := hashKey(key)
	sh := c.shardOf(h)
	shardIdx := int((h >> 48) & uint64(len(c.shards)-1))
	lockSp := rs.begin("shard_lock_wait")
	sh.mu.Lock()
	lockSp.End()
	defer sh.mu.Unlock()
	if sh.stall > 0 {
		c.met.stalled()
		return ErrShardStalled
	}
	if c.wal != nil {
		walSp := rs.begin("wal_append")
		err := c.walAppendLocked(wal.Record{Kind: wal.KindSet, Tenant: tenant, Key: key, Value: val, Epoch: uint64(c.epoch)})
		walSp.End()
		if err != nil {
			return err
		}
	}
	storeSp := rs.begin("store_access")
	c.setLocked(sh, slot, shardIdx, h, key, val)
	storeSp.End()
	return nil
}

// setLocked applies a store to the shard (its lock held): the WAL-free
// core of Set, shared with replay.
func (c *Cache) setLocked(sh *shard, slot, shardIdx int, h uint64, key string, val []byte) {
	line := mem.Line(h)
	gl := mem.GlobalLine{ASID: asidOf(slot), Line: line}
	if mask := sh.pres.Get(gl) & c.partMask[slot]; mask != 0 {
		// Overwrite in place; an aliased key is displaced (cache semantics:
		// at most one resident value per line).
		phys := bits.TrailingZeros32(mask)
		sl := sh.slices[phys]
		w := sl.Lookup(gl.ASID, line)
		if w < 0 {
			panic("serve: present mask inconsistent")
		}
		if sh.store[gl].key != key {
			c.met.collision(slot, shardIdx)
		}
		sh.store[gl] = entry{key: key, val: val}
		sl.Touch(sl.SetIndex(line), w)
		sh.vecs[slot].Set(line)
		c.met.set(slot, shardIdx)
		return
	}
	// Insert at the partition's LRU position for this set: the home slice
	// if it has a free way, else the first group member with one, else the
	// member whose victim is oldest. Victims always come from the tenant's
	// own group — a tenant can never displace lines outside the capacity
	// the controller granted it. (The simulated hierarchy inserts locally
	// and spills to the group LRU instead, to model remote-hit latency;
	// one process has no such gradient, so inserting at the LRU position
	// directly is capacity-equivalent and moves nothing.)
	target := -1
	if sh.slices[slot].FreeWay(line) >= 0 {
		target = slot
	} else {
		var oldest uint64
		for m := c.partMask[slot]; m != 0; m &= m - 1 {
			phys := bits.TrailingZeros32(m)
			age, valid := sh.slices[phys].VictimAge(line)
			if !valid {
				target = phys
				break
			}
			if target < 0 || age < oldest {
				target, oldest = phys, age
			}
		}
	}
	sl := sh.slices[target]
	set := sl.SetIndex(line)
	way := sl.VictimWay(line)
	old := sl.InsertAt(set, way, gl.ASID, line, false)
	if old.Valid {
		ogl := mem.GlobalLine{ASID: old.ASID, Line: old.Line}
		sh.pres.Clear(ogl, 1<<uint(target))
		delete(sh.store, ogl)
		owner := int(old.ASID) - 1
		c.occupancy[owner].Add(-1)
		c.met.evict(owner, "capacity")
	}
	sh.pres.Or(gl, 1<<uint(target))
	sh.store[gl] = entry{key: key, val: val}
	c.occupancy[slot].Add(1)
	sh.vecs[slot].Set(line)
	c.met.set(slot, shardIdx)
}

// Delete removes (tenant, key); ErrNotFound if absent. Like Set, the
// delete is WAL-logged before it is applied when persistence is on
// (absent keys are not logged).
func (c *Cache) Delete(tenant, key string) error {
	if ro := c.robs; ro != nil {
		start := ro.now()
		err := c.del(tenant, key, nil)
		ro.observe("delete", tenant, start, err)
		return err
	}
	return c.del(tenant, key, nil)
}

// del is the observation-free core of Delete (see get).
func (c *Cache) del(tenant, key string, rs *reqSpans) error {
	if c.draining.Load() {
		return ErrDraining
	}
	slot, ok := c.tenants[tenant]
	if !ok {
		return ErrUnknownTenant
	}
	if key == "" {
		return ErrEmptyKey
	}
	if len(key) > maxKeyBytes {
		return ErrKeyTooLong
	}
	if c.wal != nil && c.degraded.Load() {
		return ErrDegraded
	}
	h := hashKey(key)
	sh := c.shardOf(h)
	shardIdx := int((h >> 48) & uint64(len(c.shards)-1))
	lockSp := rs.begin("shard_lock_wait")
	sh.mu.Lock()
	lockSp.End()
	defer sh.mu.Unlock()
	if sh.stall > 0 {
		c.met.stalled()
		return ErrShardStalled
	}
	if c.wal != nil {
		gl := mem.GlobalLine{ASID: asidOf(slot), Line: mem.Line(h)}
		if mask := sh.pres.Get(gl) & c.partMask[slot]; mask == 0 || sh.store[gl].key != key {
			return ErrNotFound
		}
		walSp := rs.begin("wal_append")
		err := c.walAppendLocked(wal.Record{Kind: wal.KindDelete, Tenant: tenant, Key: key, Epoch: uint64(c.epoch)})
		walSp.End()
		if err != nil {
			return err
		}
	}
	storeSp := rs.begin("store_access")
	deleted := c.deleteLocked(sh, slot, shardIdx, h, key)
	storeSp.End()
	if !deleted {
		return ErrNotFound
	}
	return nil
}

// deleteLocked applies a delete to the shard (its lock held): the
// WAL-free core of Delete, shared with replay. It reports whether the
// key was resident.
func (c *Cache) deleteLocked(sh *shard, slot, shardIdx int, h uint64, key string) bool {
	line := mem.Line(h)
	gl := mem.GlobalLine{ASID: asidOf(slot), Line: line}
	mask := sh.pres.Get(gl) & c.partMask[slot]
	if mask == 0 || sh.store[gl].key != key {
		return false
	}
	phys := bits.TrailingZeros32(mask)
	sh.slices[phys].Invalidate(gl.ASID, line)
	sh.pres.Clear(gl, 1<<uint(phys))
	delete(sh.store, gl)
	c.occupancy[slot].Add(-1)
	c.met.del(slot, shardIdx)
	return true
}

// EndEpoch closes a reconfiguration interval: with every shard locked, the
// policy reads the epoch's ACFVs and repartitions, then the vectors reset
// (§2.1) and the WAL logs the boundary. An epoch that repartitioned then
// writes its compaction snapshot after the shard locks are released.
// Epoch boundaries serialize on one mutex, which Close also takes. It
// returns the policy's operation count and asymmetry flag.
func (c *Cache) EndEpoch() (reconfigs int, asymmetric bool) {
	c.epochMu.Lock()
	defer c.epochMu.Unlock()
	r, asym, cp := c.endEpochLocked()
	if cp != nil {
		c.walSnapshot(cp)
	}
	return r, asym
}

// endEpochLocked is EndEpoch's stop-the-world section: the controller
// decision, the topology swap with its evictions, the ACFV reset and the
// WAL epoch marker (plus, on a repartition, the log rotation that starts
// compaction).
func (c *Cache) endEpochLocked() (int, bool, *wal.Compaction) {
	for _, sh := range c.shards {
		sh.mu.Lock()
	}
	defer func() {
		for i := len(c.shards) - 1; i >= 0; i-- {
			c.shards[i].mu.Unlock()
		}
	}()
	c.epoch++
	c.applyFaultsLocked()
	r, asym := c.policy.EndEpoch(c.epoch, machine{c})
	for _, sh := range c.shards {
		for _, v := range sh.vecs {
			v.Reset()
		}
	}
	c.met.epoch(r)
	var cp *wal.Compaction
	if c.wal != nil {
		cp = c.walEndEpochLocked(r)
	}
	return r, asym, cp
}

// RunEpochs drives EndEpoch on the configured interval until ctx ends.
func (c *Cache) RunEpochs(ctx context.Context) {
	t := time.NewTicker(c.cfg.EpochInterval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			c.EndEpoch()
		}
	}
}

// Drain puts the cache into draining mode: every subsequent operation
// fails with ErrDraining (HTTP 503), letting load balancers fall away
// before shutdown.
func (c *Cache) Drain() { c.draining.Store(true) }

// Draining reports whether Drain has been called.
func (c *Cache) Draining() bool { return c.draining.Load() }

// Tenants returns the declared tenant names in slot order.
func (c *Cache) Tenants() []string { return c.cfg.Tenants }

// PolicyName names the governing policy.
func (c *Cache) PolicyName() string { return c.policy.Name() }

// Epoch returns the number of completed reconfiguration intervals.
func (c *Cache) Epoch() int {
	c.shards[0].mu.Lock()
	defer c.shards[0].mu.Unlock()
	return c.epoch
}

// Spec returns the current topology spec string (e.g. "(16:1:1)").
func (c *Cache) Spec() string {
	c.shards[0].mu.Lock()
	defer c.shards[0].mu.Unlock()
	return c.topo.Spec()
}

// PartitionSlots returns the slots currently granted to a tenant (its
// group's members), for introspection and tests.
func (c *Cache) PartitionSlots(tenant string) ([]int, error) {
	slot, ok := c.tenants[tenant]
	if !ok {
		return nil, ErrUnknownTenant
	}
	c.shards[0].mu.Lock()
	defer c.shards[0].mu.Unlock()
	g := c.topo.L2
	members := g.Members(g.GroupOf(slot))
	out := make([]int, len(members))
	copy(out, members)
	return out, nil
}

// OccupancyLines returns a tenant's resident line count across shards.
func (c *Cache) OccupancyLines(tenant string) (int64, error) {
	slot, ok := c.tenants[tenant]
	if !ok {
		return 0, ErrUnknownTenant
	}
	return c.occupancy[slot].Load(), nil
}
