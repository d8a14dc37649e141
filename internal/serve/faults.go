package serve

import (
	"errors"

	"morphcache/internal/fault"
)

// Serve-layer chaos (DESIGN.md §14.4). A fault.Plan built by
// fault.NewServePlan (or by hand) schedules three event kinds against the
// serving path, applied by each epoch boundary's cut — the microsecond
// step that holds every shard lock — before the controller decides:
//
//   - fault.ShardStall: Events[i].Slice names a shard that sheds every
//     operation with ErrShardStalled for Duration epochs.
//   - fault.WALWriteErr: every WAL append fails for Duration epochs.
//   - fault.DiskFull: same, surfaced as a disk-full error.
//
// The WAL kinds exercise the degradation path: after walFailThreshold
// consecutive failed appends the server drops to read-mostly mode, and
// the first epoch-boundary append after the window closes heals it.

// Injected error values, distinguishable in logs and tests.
var (
	errWALInjected  = errors.New("serve: injected wal write error")
	errDiskInjected = errors.New("serve: injected disk full")
)

// applyFaultsLocked advances fault state in the epoch cut (every shard
// lock held, c.epoch already incremented): expires stall and WAL-failure
// windows, then applies the events scheduled for the new epoch.
func (c *Cache) applyFaultsLocked() {
	if c.flt == nil {
		return
	}
	for _, sh := range c.shards {
		if sh.stall > 0 {
			sh.stall--
		}
	}
	if c.walInjUntil != 0 && c.epoch >= c.walInjUntil {
		c.walInjUntil = 0
		if c.wal != nil {
			c.wal.InjectFailure(nil)
		}
	}
	for _, e := range c.flt.At(c.epoch) {
		dur := e.Duration
		if dur < 1 {
			dur = 1
		}
		switch e.Kind {
		case fault.ShardStall:
			c.shards[e.Slice].stall = dur
			c.met.faultApplied()
			c.hub.publish("stall", stallEvent{Shard: e.Slice, Epochs: dur, Epoch: c.epoch})
			if c.slog != nil {
				c.slog.Warn("fault", "kind", "shard_stall", "shard", e.Slice,
					"epochs", dur, "epoch", c.epoch)
			}
		case fault.WALWriteErr:
			if c.wal != nil {
				c.wal.InjectFailure(errWALInjected)
				c.walInjUntil = c.epoch + dur
			}
			c.met.faultApplied()
			if c.slog != nil {
				c.slog.Warn("fault", "kind", "wal_write_err", "epochs", dur, "epoch", c.epoch)
			}
		case fault.DiskFull:
			if c.wal != nil {
				c.wal.InjectFailure(errDiskInjected)
				c.walInjUntil = c.epoch + dur
			}
			c.met.faultApplied()
			if c.slog != nil {
				c.slog.Warn("fault", "kind", "disk_full", "epochs", dur, "epoch", c.epoch)
			}
		}
	}
}
