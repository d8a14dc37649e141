package serve

import (
	"errors"
	"fmt"
	"time"

	"morphcache/internal/topology"
	"morphcache/internal/wal"
)

// PersistConfig enables write-ahead-log persistence (DESIGN.md §14).
// With persistence on, every acknowledged Set/Delete is logged before it
// is applied — under FsyncAlways it is on disk before the client hears
// 204 — and NewServeCache replays the log to rebuild values, the epoch
// counter, and the controller's partition grants after a restart.
type PersistConfig struct {
	// Dir is the log directory (created if missing). Required.
	Dir string
	// Fsync is the durability policy. Default wal.FsyncAlways: every
	// acknowledged write survives kill -9.
	Fsync wal.FsyncPolicy
	// FsyncInterval is the wal.FsyncInterval cadence. Default 100ms.
	FsyncInterval time.Duration
	// SegmentBytes rolls log segments past this size. Default 16 MiB.
	SegmentBytes int64
}

// walFailThreshold is how many consecutive WAL failures drop the server
// to read-mostly degraded mode. The first failures surface as ErrPersist
// (one flaky write is not an outage); persistent failure stops burning
// latency on a dead disk and sheds writes outright.
const walFailThreshold = 3

// errors of the persistence/robustness layer.
var (
	// ErrPersist reports a write whose WAL append failed: the write was
	// NOT applied and the client must retry (HTTP 503).
	ErrPersist = errors.New("serve: persistence failure")
	// ErrDegraded rejects writes while the server is in read-mostly
	// degraded mode after persistent WAL failure (HTTP 503). Reads still
	// serve; the server probes the log at each epoch and recovers
	// automatically when appends succeed again.
	ErrDegraded = errors.New("serve: degraded (read-mostly)")
	// ErrShardStalled sheds an operation whose shard is stalled by an
	// injected fault (HTTP 503 + Retry-After).
	ErrShardStalled = errors.New("serve: shard stalled")
	// ErrKeyTooLong rejects keys over 64 KiB (the WAL record bound; also
	// a sane HTTP path bound) with HTTP 414.
	ErrKeyTooLong = errors.New("serve: key too long")
)

// maxKeyBytes is the largest accepted key (the WAL's u16 key-length bound).
const maxKeyBytes = 65535

func (p *PersistConfig) validate() error {
	if p == nil {
		return nil
	}
	if p.Dir == "" {
		return errors.New("serve: persistence enabled without a directory")
	}
	if p.Fsync < wal.FsyncAlways || p.Fsync > wal.FsyncNever {
		return fmt.Errorf("serve: unknown fsync policy %d", int(p.Fsync))
	}
	if p.FsyncInterval < 0 {
		return fmt.Errorf("serve: negative fsync interval %s", p.FsyncInterval)
	}
	if p.SegmentBytes < 0 {
		return fmt.Errorf("serve: negative segment size %d", p.SegmentBytes)
	}
	return nil
}

// openWAL opens the log, replaying any existing records into the cache:
// sets and deletes rebuild the values, epoch/snapshot markers restore the
// epoch counter and the partition grants. Records for tenants no longer
// configured (or values over the current bound) are skipped, not fatal —
// a config change must not brick the log.
func (c *Cache) openWAL() error {
	p := c.cfg.Persist
	log, stats, err := wal.Open(p.Dir, wal.Options{
		Fsync:         p.Fsync,
		Interval:      p.FsyncInterval,
		SegmentBytes:  p.SegmentBytes,
		MaxValueBytes: c.cfg.MaxValueBytes,
	}, c.applyReplay)
	if err != nil {
		return fmt.Errorf("serve: wal replay: %w", err)
	}
	c.wal = log
	c.met.replayDone(stats)
	c.met.walSegments.Set(int64(log.SegmentCount()))
	return nil
}

// applyReplay applies one logged record during NewServeCache recovery.
func (c *Cache) applyReplay(r wal.Record) error {
	switch r.Kind {
	case wal.KindSet:
		slot, ok := c.tenants[r.Tenant]
		if !ok || len(r.Value) > c.cfg.MaxValueBytes || r.Key == "" || len(r.Key) > maxKeyBytes {
			return wal.SkipRecord
		}
		t := c.locate(slot, r.Key)
		t.sh.mu.Lock()
		c.setLocked(t, r.Key, r.Value)
		t.sh.mu.Unlock()
	case wal.KindDelete:
		slot, ok := c.tenants[r.Tenant]
		if !ok || r.Key == "" {
			return wal.SkipRecord
		}
		t := c.locate(slot, r.Key)
		t.sh.mu.Lock()
		if phys, set, way := t.sh.find(slot, t.gl); phys >= 0 && t.sh.cell(phys, set, way).key == r.Key {
			c.dropLocked(t, phys, set, way)
		}
		t.sh.mu.Unlock()
	case wal.KindEpoch, wal.KindSnapshotBegin:
		c.epoch = int(r.Epoch)
		g, err := decodeGrouping(r.Value, c.cfg.Slots)
		if err != nil {
			// A grouping logged under a different slot count cannot be
			// restored; values still replay into default partitions.
			return wal.SkipRecord
		}
		if !g.Equal(c.topo.L2) {
			c.applyTopology(topology.Topology{L2: g, L3: g})
			c.met.repartition()
		}
	case wal.KindSnapshotEnd:
		// Compaction bracket; nothing to apply.
	}
	return nil
}

// walAppendLocked logs one record on the write path (the caller holds
// the record's shard lock, so replay order matches apply order). A
// failure counts toward the degradation threshold; success resets it.
func (c *Cache) walAppendLocked(r wal.Record) error {
	if err := c.wal.Append(r); err != nil {
		c.walFailed()
		return fmt.Errorf("%w: %v", ErrPersist, err)
	}
	c.walFails.Store(0)
	c.met.walAppend()
	return nil
}

// walFailed counts one WAL failure toward the degradation threshold.
func (c *Cache) walFailed() {
	c.met.walAppendErr()
	if c.walFails.Add(1) >= walFailThreshold {
		c.setDegraded(true)
	}
}

// walEndEpoch is EndEpoch's log step, run with no shard lock held (the
// log has its own mutex): it appends a marker carrying the planned
// grouping — the recovery probe, whose success in degraded mode lifts the
// server back to read-write — and, if the grouping changed, rotates the
// log for a compaction. Both come before any shard regroups: the new
// grants survive a restart even if the snapshot is never written, and
// the rotation precedes every shard's capture. The returned compaction,
// if any, is finished by walSnapshot after the rollout.
func (c *Cache) walEndEpoch(regrouped bool) *wal.Compaction {
	state := encodeGrouping(c.plan.L2)
	if err := c.wal.Append(wal.Record{Kind: wal.KindEpoch, Epoch: uint64(c.epoch), Value: state}); err != nil {
		c.walFailed()
		return nil
	}
	c.met.walAppend()
	c.walFails.Store(0)
	c.setDegraded(false)
	var cp *wal.Compaction
	if regrouped {
		var err error
		if cp, err = c.wal.BeginCompact(uint64(c.epoch), state); err != nil {
			c.walFailed()
		}
	}
	c.met.walSegments.Set(int64(c.wal.SegmentCount()))
	return cp
}

// walSnapshot writes a repartition's compaction snapshot once EndEpoch
// has rolled the new grouping out.
func (c *Cache) walSnapshot(cp *wal.Compaction) {
	if err := cp.Write(c.streamSnapshot); err != nil {
		c.walFailed()
	} else {
		c.met.walCompactions.Inc()
	}
	c.met.walSegments.Set(int64(c.wal.SegmentCount()))
}

// streamSnapshot emits every live entry, capturing one shard at a time
// under only that shard's lock into c.snapBuf (epochMu held), and
// emitting with no lock held. The buffer holds one shard's line capacity,
// so a capture never grows it. The capture is fuzzy — each shard is read
// at its own instant after the log rotation — and sound because every
// mutation after the rotation is logged in the live segment, which
// replays after the snapshot, and the last record for a key wins
// (DESIGN.md §14).
func (c *Cache) streamSnapshot(emit func(tenant, key string, value []byte) error) error {
	for _, sh := range c.shards {
		sh.mu.Lock()
		buf := c.snapBuf[:0]
		for phys, cells := range sh.vals {
			sl := sh.slices[phys]
			for i, e := range cells {
				if e.key != "" {
					owner := sl.Entry(i/sl.Ways(), i%sl.Ways()).ASID
					buf = append(buf, snapEntry{c.names[int(owner)-1], e})
				}
			}
		}
		sh.mu.Unlock()
		c.snapBuf = buf
		for _, e := range buf {
			if err := emit(e.tenant, e.key, e.val); err != nil {
				return err
			}
		}
		clear(buf) // drop the value references until the next capture
	}
	return nil
}

// setDegraded flips read-mostly mode and its gauge (idempotent). Each
// transition is published to /events subscribers and, with a logger
// configured, logged — entering degraded mode at Warn, recovering at
// Info.
func (c *Cache) setDegraded(on bool) {
	if c.degraded.Swap(on) != on {
		if on {
			c.met.degraded.Set(1)
		} else {
			c.met.degraded.Set(0)
		}
		c.hub.publish("degraded", degradedEvent{On: on})
		if c.slog != nil {
			if on {
				c.slog.Warn("degraded", "on", true,
					"reason", "consecutive WAL append failures", "threshold", walFailThreshold)
			} else {
				c.slog.Info("degraded", "on", false, "reason", "WAL probe append succeeded")
			}
		}
	}
}

// Degraded reports whether the server is in read-mostly degraded mode.
func (c *Cache) Degraded() bool { return c.degraded.Load() }

// Close syncs and closes the write-ahead log (a no-op without
// persistence). It waits for an in-flight EndEpoch, snapshot included.
// Callers should Drain first so no writes race the close.
func (c *Cache) Close() error {
	if c.wal == nil {
		return nil
	}
	c.epochMu.Lock()
	defer c.epochMu.Unlock()
	return c.wal.Close()
}

// encodeGrouping packs a slot grouping for an epoch record: the slot
// count, then each slot's group id.
func encodeGrouping(g topology.Grouping) []byte {
	b := make([]byte, 1+g.N())
	b[0] = byte(g.N())
	for s := 0; s < g.N(); s++ {
		b[1+s] = byte(g.GroupOf(s))
	}
	return b
}

// decodeGrouping rebuilds a grouping encoded by encodeGrouping,
// normalized through topology.FromGroups.
func decodeGrouping(b []byte, slots int) (topology.Grouping, error) {
	if len(b) != 1+slots || int(b[0]) != slots {
		return topology.Grouping{}, fmt.Errorf("serve: grouping state for %d slots, want %d", lenOrZero(b), slots)
	}
	groups := make([][]int, slots)
	for s := 0; s < slots; s++ {
		gid := int(b[1+s])
		if gid >= slots {
			return topology.Grouping{}, fmt.Errorf("serve: group id %d out of range", gid)
		}
		groups[gid] = append(groups[gid], s)
	}
	compact := groups[:0]
	for _, g := range groups {
		if len(g) > 0 {
			compact = append(compact, g)
		}
	}
	return topology.FromGroups(slots, compact)
}

func lenOrZero(b []byte) int {
	if len(b) == 0 {
		return 0
	}
	return int(b[0])
}
