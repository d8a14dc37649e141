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
// per-slot slices, the values held in their ways, a PresenceIndex (the
// allocation-free line→owner map) and its own copy of the partition masks,
// all under one mutex. An epoch boundary holds every shard lock only for a
// microsecond cut; the controller decides with no shard lock held, and
// the new grouping rolls out one shard at a time, so a request waits at
// most for one shard's sweep.
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

// entry is the value held in one way. The full key is kept to
// disambiguate hash collisions: a Get whose key does not match the
// resident one is a miss.
type entry struct {
	key string
	val []byte
}

// shard is one concurrency unit: a full column of per-slot slices, the
// values in their ways, and the presence index for the keys hashing to it.
type shard struct {
	mu sync.Mutex
	// slices[slot] is this shard's bank of the slot; vals[slot][set*ways+way]
	// holds the entry of the line in that way, the zero entry if invalid.
	slices []*cache.Slice
	vals   [][]entry
	// pres maps a resident global line to the one-bit mask of the slot
	// holding it (open addressing; no allocation after New).
	pres *hierarchy.PresenceIndex
	// partMask[slot] is the slot's group mask under the grouping this
	// shard has rolled out; the access path reads it on every request.
	partMask []uint32
	// vecs[slot] is the homed tenant's ACFV for this shard's traffic.
	// spare is the reset set the epoch cut swaps in; after the swap it
	// holds the closed epoch's vectors, which the decision reads and then
	// resets with no lock held (the access path never touches spare).
	vecs, spare []*acfv.Vector
	// stall is the count of epochs this shard keeps shedding operations
	// with ErrShardStalled (injected fault; guarded by mu).
	stall int
}

// snapEntry is one live entry captured for a compaction snapshot.
type snapEntry struct {
	tenant string
	entry
}

// Cache is the policy-governed multi-tenant cache.
type Cache struct {
	cfg     Config
	tenants map[string]int // name -> home slot
	names   []string       // slot -> name ("" = donor slot)
	shards  []*shard
	// slotLines is one slice's line capacity (per shard, per slot).
	slotLines int

	// topo is the published partitioning (both levels mirror one
	// grouping): written with epochMu and topoMu held once every shard has
	// rolled it out, read under topoMu. The shards' partMask copies are
	// what the access path obeys.
	topoMu sync.Mutex
	topo   topology.Topology
	// epoch is written only during the epoch cut (every shard lock held)
	// and read under any one shard lock.
	epoch int

	policy   core.Policy
	draining atomic.Bool
	// epochMu serializes EndEpoch, from its cut to its snapshot, against
	// other epochs and Close. It guards the decision state below.
	epochMu sync.Mutex
	// plan is the grouping the policy is deciding on: machine reads and
	// writes it instead of topo, and EndEpoch rolls it out afterwards.
	// missSnap is the cut's copy of misses (the PerCoreMisses signal).
	// snapBuf is the compaction capture buffer, sized at New to one
	// shard's line capacity so a capture never grows it under a shard lock.
	plan     topology.Topology
	missSnap []uint64
	snapBuf  []snapEntry

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
	// which an injected WAL failure window closes (both used only by the
	// epoch cut).
	flt         *fault.Plan
	walInjUntil int

	met *metrics

	// The observability plane (DESIGN.md §15). audit and hub are always
	// on (they cost nothing per request); robs is nil unless ObsConfig
	// enables request-path observation, and every request-path hook hides
	// behind that one nil check so the disabled path stays 0 allocs/op.
	// slog carries the always-on decision/degradation/fault lines (nil =
	// off); now is the injectable wall clock. pendingDelta is the
	// per-tenant granted-slot delta of the planned topology swap, stashed
	// by machine.SetTopology for the recorder that fires next (only
	// touched during the decision, under epochMu).
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
		topo:      topology.AllPrivate(cfg.Slots),
		policy:    cfg.Policy,
		occupancy: make([]atomic.Int64, cfg.Slots),
		misses:    make([]atomic.Uint64, cfg.Slots),
		missSnap:  make([]uint64, cfg.Slots),
	}
	for i, t := range cfg.Tenants {
		c.tenants[t] = i
		c.names[i] = t
	}
	for i := range c.shards {
		sh := &shard{
			slices:   make([]*cache.Slice, cfg.Slots),
			vals:     make([][]entry, cfg.Slots),
			pres:     hierarchy.NewPresenceIndex(cfg.Slots * slotLines),
			partMask: make([]uint32, cfg.Slots),
			vecs:     make([]*acfv.Vector, cfg.Slots),
			spare:    make([]*acfv.Vector, cfg.Slots),
		}
		clock := &cache.Clock{}
		cells := make([]entry, cfg.Slots*slotLines)
		for s := range sh.slices {
			sh.slices[s] = cache.New(cache.Config{SizeBytes: sliceBytes, Ways: cfg.Ways, Policy: cache.LRU})
			sh.slices[s].ShareClock(clock)
			sh.vals[s] = cells[s*slotLines : (s+1)*slotLines]
			sh.vecs[s] = acfv.NewVector(vecWidth, acfv.XOR)
			sh.spare[s] = acfv.NewVector(vecWidth, acfv.XOR)
		}
		groupMasks(c.topo.L2, sh.partMask)
		c.shards[i] = sh
	}
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
		c.snapBuf = make([]snapEntry, 0, cfg.Slots*slotLines)
		if err := c.openWAL(); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// groupMasks fills masks[slot] with the bit mask of the slot's group.
func groupMasks(g topology.Grouping, masks []uint32) {
	for gi := 0; gi < g.NumGroups(); gi++ {
		var mask uint32
		for _, s := range g.Members(gi) {
			mask |= 1 << uint(s)
		}
		for _, s := range g.Members(gi) {
			masks[s] = mask
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

// target is where one request's key lives: its tenant's home slot, the
// shard the key hashes to, and its ASID-qualified line.
type target struct {
	slot, shard int
	sh          *shard
	gl          mem.GlobalLine
}

// locate maps (slot, key) to its target. The shard comes from the hash's
// high bits, far from the set index bits the slices consume.
func (c *Cache) locate(slot int, key string) target {
	h := hashKey(key)
	i := int((h >> 48) & uint64(len(c.shards)-1))
	return target{slot, i, c.shards[i], mem.GlobalLine{ASID: asidOf(slot), Line: mem.Line(h)}}
}

// resolve checks a request in error precedence order and locates it. A
// read passes valLen < 0; a write (the value's length, 0 for Delete) is
// also bounded in key and value size and shed while degraded.
func (c *Cache) resolve(tenant, key string, valLen int) (target, error) {
	if c.draining.Load() {
		return target{}, ErrDraining
	}
	slot, ok := c.tenants[tenant]
	switch {
	case !ok:
		return target{}, ErrUnknownTenant
	case key == "":
		return target{}, ErrEmptyKey
	case valLen < 0:
	case len(key) > maxKeyBytes:
		return target{}, ErrKeyTooLong
	case valLen > c.cfg.MaxValueBytes:
		return target{}, ErrValueTooLarge
	case c.wal != nil && c.degraded.Load():
		return target{}, ErrDegraded
	}
	return c.locate(slot, key), nil
}

// lock takes t's shard lock, or sheds the request with the lock released
// if the shard is stalled.
func (c *Cache) lock(t target, rs *reqSpans) error {
	sp := rs.begin("shard_lock_wait")
	t.sh.mu.Lock()
	sp.End()
	if t.sh.stall > 0 {
		t.sh.mu.Unlock()
		c.met.stalled()
		return ErrShardStalled
	}
	return nil
}

// find returns the slice, set and way holding gl inside slot's partition,
// or phys < 0 if it is not resident there (shard lock held).
func (sh *shard) find(slot int, gl mem.GlobalLine) (phys, set, way int) {
	mask := sh.pres.Get(gl) & sh.partMask[slot]
	if mask == 0 {
		return -1, 0, 0
	}
	phys = bits.TrailingZeros32(mask)
	sl := sh.slices[phys]
	if way = sl.Lookup(gl.ASID, gl.Line); way < 0 {
		panic("serve: present mask inconsistent")
	}
	return phys, sl.SetIndex(gl.Line), way
}

// cell is the value held in (phys, set, way).
func (sh *shard) cell(phys, set, way int) *entry {
	return &sh.vals[phys][set*sh.slices[phys].Ways()+way]
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
	t, err := c.resolve(tenant, key, -1)
	if err == nil {
		err = c.lock(t, rs)
	}
	if err != nil {
		return nil, err
	}
	sh := t.sh
	storeSp := rs.begin("store_access")
	var e entry
	phys, set, way := sh.find(t.slot, t.gl)
	if phys >= 0 {
		e = *sh.cell(phys, set, way)
	}
	if e.key != key {
		// Absent, or a different key owns the line (hash collision).
		c.misses[t.slot].Add(1)
		sh.mu.Unlock()
		storeSp.End()
		if phys >= 0 {
			c.met.collision(t.slot, t.shard)
		}
		c.met.getMiss(t.slot, t.shard)
		return nil, ErrNotFound
	}
	sh.slices[phys].Touch(set, way)
	sh.vecs[t.slot].Set(t.gl.Line)
	sh.mu.Unlock()
	storeSp.End()
	c.met.getHit(t.slot, t.shard)
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
	t, err := c.resolve(tenant, key, len(val))
	if err == nil {
		err = c.lock(t, rs)
	}
	if err != nil {
		return err
	}
	defer t.sh.mu.Unlock()
	if c.wal != nil {
		walSp := rs.begin("wal_append")
		err := c.walAppendLocked(wal.Record{Kind: wal.KindSet, Tenant: tenant, Key: key, Value: val, Epoch: uint64(c.epoch)})
		walSp.End()
		if err != nil {
			return err
		}
	}
	storeSp := rs.begin("store_access")
	c.setLocked(t, key, val)
	storeSp.End()
	return nil
}

// setLocked applies a store to t's shard (its lock held): the WAL-free
// core of Set, shared with replay.
func (c *Cache) setLocked(t target, key string, val []byte) {
	sh, slot, line := t.sh, t.slot, t.gl.Line
	if phys, set, way := sh.find(slot, t.gl); phys >= 0 {
		// Overwrite in place; an aliased key is displaced (cache semantics:
		// at most one resident value per line).
		e := sh.cell(phys, set, way)
		if e.key != key {
			c.met.collision(slot, t.shard)
		}
		*e = entry{key: key, val: val}
		sh.slices[phys].Touch(set, way)
		sh.vecs[slot].Set(line)
		c.met.set(slot, t.shard)
		return
	}
	// Insert at the partition's LRU position for this set: the home slice
	// if it has a free way, else the first group member with one, else the
	// member whose victim is oldest. Victims always come from the tenant's
	// own group — a tenant can never displace lines outside the capacity
	// the controller granted it. (The simulated hierarchy inserts locally
	// and spills to the group LRU instead, to model remote-hit latency;
	// one process has no such gradient, so inserting at the LRU position
	// directly is capacity-equivalent and moves nothing.) The new entry
	// overwrites the victim's cell.
	phys := -1
	if sh.slices[slot].FreeWay(line) >= 0 {
		phys = slot
	} else {
		var oldest uint64
		for m := sh.partMask[slot]; m != 0; m &= m - 1 {
			p := bits.TrailingZeros32(m)
			age, valid := sh.slices[p].VictimAge(line)
			if !valid {
				phys = p
				break
			}
			if phys < 0 || age < oldest {
				phys, oldest = p, age
			}
		}
	}
	sl := sh.slices[phys]
	set, way := sl.SetIndex(line), sl.VictimWay(line)
	if old := sl.InsertAt(set, way, t.gl.ASID, line, false); old.Valid {
		sh.pres.Clear(mem.GlobalLine{ASID: old.ASID, Line: old.Line}, 1<<uint(phys))
		owner := int(old.ASID) - 1
		c.occupancy[owner].Add(-1)
		c.met.evict(owner, "capacity")
	}
	*sh.cell(phys, set, way) = entry{key: key, val: val}
	sh.pres.Or(t.gl, 1<<uint(phys))
	c.occupancy[slot].Add(1)
	sh.vecs[slot].Set(line)
	c.met.set(slot, t.shard)
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
	t, err := c.resolve(tenant, key, 0)
	if err == nil {
		err = c.lock(t, rs)
	}
	if err != nil {
		return err
	}
	defer t.sh.mu.Unlock()
	phys, set, way := t.sh.find(t.slot, t.gl)
	if phys < 0 || t.sh.cell(phys, set, way).key != key {
		return ErrNotFound
	}
	if c.wal != nil {
		walSp := rs.begin("wal_append")
		err := c.walAppendLocked(wal.Record{Kind: wal.KindDelete, Tenant: tenant, Key: key, Epoch: uint64(c.epoch)})
		walSp.End()
		if err != nil {
			return err
		}
	}
	storeSp := rs.begin("store_access")
	c.dropLocked(t, phys, set, way)
	storeSp.End()
	return nil
}

// dropLocked deletes t's line from (phys, set, way), its shard lock held:
// the WAL-free core of Delete, shared with replay.
func (c *Cache) dropLocked(t target, phys, set, way int) {
	t.sh.slices[phys].InvalidateWay(set, way)
	*t.sh.cell(phys, set, way) = entry{}
	t.sh.pres.Clear(t.gl, 1<<uint(phys))
	c.occupancy[t.slot].Add(-1)
	c.met.del(t.slot, t.shard)
}

// EndEpoch closes a reconfiguration interval in four steps, serialized
// against other epochs and Close by epochMu:
//
//  1. Cut: every shard lock is held only to bump the epoch, apply serve
//     faults, snapshot the miss counters and swap each shard's ACFVs for
//     its reset spare set (§2.1).
//  2. Decide: the policy runs with no shard lock held, against the
//     swapped-out vectors and a plan of the grouping (machine).
//  3. Log: the WAL epoch marker carries the planned grouping and, if the
//     grouping changed, the log rotates to start a compaction — both
//     before any shard changes.
//  4. Roll out: a changed grouping is applied one shard at a time and then
//     published, and the compaction snapshot is captured and written.
//
// A request thus waits at most for the cut or for one shard's sweep or
// capture, never for the decision. It returns the policy's operation
// count and asymmetry flag.
func (c *Cache) EndEpoch() (reconfigs int, asymmetric bool) {
	c.epochMu.Lock()
	defer c.epochMu.Unlock()
	r, asym, cp := c.decideEpoch()
	if !c.plan.Equal(c.topo) {
		c.applyTopology(c.plan)
	}
	if cp != nil {
		c.walSnapshot(cp)
	}
	return r, asym
}

// decideEpoch runs EndEpoch's cut, decision and log steps (epochMu held),
// leaving the decided grouping in c.plan. It returns the policy's result
// and the compaction the log step began, if any.
func (c *Cache) decideEpoch() (int, bool, *wal.Compaction) {
	c.cutEpoch()
	c.plan = c.topo
	r, asym := c.policy.EndEpoch(c.epoch, machine{c})
	for _, sh := range c.shards {
		for _, v := range sh.spare {
			v.Reset()
		}
	}
	c.met.epoch(r)
	var cp *wal.Compaction
	if c.wal != nil {
		cp = c.walEndEpoch(!c.plan.L2.Equal(c.topo.L2))
	}
	return r, asym, cp
}

// cutEpoch is the one step of an epoch boundary that holds every shard
// lock, so the closed epoch's signals are one consistent instant.
func (c *Cache) cutEpoch() {
	for _, sh := range c.shards {
		sh.mu.Lock()
	}
	c.epoch++
	c.applyFaultsLocked()
	for i := range c.missSnap {
		c.missSnap[i] = c.misses[i].Load()
	}
	for _, sh := range c.shards {
		sh.vecs, sh.spare = sh.spare, sh.vecs
	}
	for i := len(c.shards) - 1; i >= 0; i-- {
		c.shards[i].mu.Unlock()
	}
}

// applyTopology rolls t out (epochMu held, or during replay): each shard
// in turn swaps in the new partition masks and sweeps the lines they
// strand under its own lock, and then t is published for Status, Spec and
// PartitionSlots.
func (c *Cache) applyTopology(t topology.Topology) {
	var masks [32]uint32 // Slots ≤ 32
	groupMasks(t.L2, masks[:c.cfg.Slots])
	for _, sh := range c.shards {
		c.regroupShard(sh, masks[:c.cfg.Slots])
	}
	c.topoMu.Lock()
	c.topo = t
	c.topoMu.Unlock()
	c.met.setPartitionGauges()
}

// regroupShard moves one shard to new partition masks and evicts every
// line they strand outside its owner's partition (the serving analogue of
// the hierarchy's inclusion enforcement on shrink; merges strand nothing).
// A stranded line sits in a slot of its owner's old group that the new
// group lacks, and that slot's own mask must then have changed too; so
// only the slices of slots whose mask changed are scanned, sets × ways,
// and they yield the same evictions as a scan of every resident line.
// A shard already on masks sweeps nothing.
func (c *Cache) regroupShard(sh *shard, masks []uint32) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	var old [32]uint32
	copy(old[:], sh.partMask)
	copy(sh.partMask, masks)
	for phys, mask := range masks {
		if mask == old[phys] {
			continue
		}
		bit := uint32(1) << uint(phys)
		sl := sh.slices[phys]
		for set := 0; set < sl.Sets(); set++ {
			for way := 0; way < sl.Ways(); way++ {
				e := sl.Entry(set, way)
				owner := int(e.ASID) - 1
				if !e.Valid || masks[owner]&bit != 0 {
					continue
				}
				sl.InvalidateWay(set, way)
				*sh.cell(phys, set, way) = entry{}
				sh.pres.Clear(mem.GlobalLine{ASID: e.ASID, Line: e.Line}, bit)
				c.occupancy[owner].Add(-1)
				c.met.evict(owner, "repartition")
			}
		}
	}
}

// published returns the topology every shard has rolled out.
func (c *Cache) published() topology.Topology {
	c.topoMu.Lock()
	defer c.topoMu.Unlock()
	return c.topo
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
func (c *Cache) Spec() string { return c.published().Spec() }

// PartitionSlots returns the slots currently granted to a tenant (its
// group's members), for introspection and tests.
func (c *Cache) PartitionSlots(tenant string) ([]int, error) {
	slot, ok := c.tenants[tenant]
	if !ok {
		return nil, ErrUnknownTenant
	}
	g := c.published().L2
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
