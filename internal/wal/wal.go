// Package wal is a segmented append-only write-ahead log for the
// serve-mode cache (DESIGN.md §14).
//
// The log is a directory of numbered segment files. Each segment starts
// with a fixed header and carries a sequence of binary records — tenant/
// key/value sets, deletes, and epoch/reconfiguration markers — each
// protected by a CRC32 trailer. Records are written strictly append-only,
// so the only corruption a crash can produce is a torn tail: replay
// truncates the log at the last valid record (in the style of
// internal/trace.ErrTruncated) and the server continues from there.
// Corruption anywhere else — an invalid record followed by more segments,
// a bad header on a non-final segment — cannot be produced by a torn
// write and is reported as ErrCorrupt instead of silently dropped.
//
// Durability is governed by the fsync policy:
//
//   - FsyncAlways: every Append returns only after fdatasync; every
//     acknowledged write survives kill -9.
//   - FsyncInterval: a background goroutine syncs every Interval; a crash
//     loses at most the last interval's acknowledged writes.
//   - FsyncNever: the OS page cache decides; a crash loses whatever was
//     not yet written back.
//
// Compaction runs in two phases so its owner can keep it out of any
// stop-the-world section. BeginCompact, under the log mutex, reserves
// segment number S for the snapshot and rolls live appends to S+1; it only
// creates S+1 and writes its header. Compaction.Write, later and
// concurrently with appends to S+1, writes the snapshot (SnapshotBegin,
// one Set per live entry, SnapshotEnd) to a temporary file that segment
// listing ignores, syncs it, renames it to segment S, syncs the directory,
// and only then removes the segments below S, oldest first. A crash at any
// point leaves a replayable log: before the rename the history is intact
// (Open deletes the leftover temporary file); after it the snapshot
// replays as idempotent re-sets on top of whatever suffix of the history
// remains, and S+1 replays after both. The rotation's own durability work
// — syncing the retired segment's tail and the new directory entry — is
// deferred too: under FsyncAlways the first append acknowledged in S+1
// completes it, under FsyncInterval the next timer tick, and Write always
// does it before the snapshot starts.
package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Kind enumerates the record types.
type Kind uint8

const (
	// KindSet stores Value under (Tenant, Key).
	KindSet Kind = 1
	// KindDelete removes (Tenant, Key).
	KindDelete Kind = 2
	// KindEpoch marks a reconfiguration-epoch boundary: Epoch is the
	// completed epoch count and Value is the owner's opaque partition
	// state (the serve layer encodes its slot grouping there).
	KindEpoch Kind = 3
	// KindSnapshotBegin opens a compaction snapshot; Epoch and Value are
	// as in KindEpoch. The KindSet records that follow re-log live state.
	KindSnapshotBegin Kind = 4
	// KindSnapshotEnd closes a compaction snapshot; older segments are
	// removed only after it is durable.
	KindSnapshotEnd Kind = 5
)

func (k Kind) String() string {
	switch k {
	case KindSet:
		return "set"
	case KindDelete:
		return "delete"
	case KindEpoch:
		return "epoch"
	case KindSnapshotBegin:
		return "snapshot-begin"
	case KindSnapshotEnd:
		return "snapshot-end"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Record is one logged operation.
//
// Wire format (little-endian), CRC32 (IEEE) over header and payload:
//
//	kind u8 | tenantLen u8 | keyLen u16 | valLen u32 | epoch u64
//	tenant bytes | key bytes | value bytes
//	crc u32
type Record struct {
	Kind   Kind
	Tenant string
	Key    string
	Value  []byte
	// Epoch is the completed-epoch counter on KindEpoch and
	// KindSnapshotBegin records; zero otherwise.
	Epoch uint64
}

const (
	headerLen  = 16
	trailerLen = 4
	// segHeaderLen is the per-segment file header: magic, version, zero.
	segHeaderLen = 8
	segMagic     = "MCWL"
	segVersion   = 1
)

// Errors reported by the log.
var (
	// ErrTruncated is wrapped by replay stats when a final segment ends
	// mid-record. It is informational — Open repairs the tail and
	// succeeds — and mirrors internal/trace.ErrTruncated.
	ErrTruncated = errors.New("wal: truncated mid-record")
	// ErrCorrupt reports invalid bytes that a torn append cannot explain:
	// a bad record in a non-final segment, or a bad segment header with
	// later segments present. Open fails rather than silently dropping
	// acknowledged writes.
	ErrCorrupt = errors.New("wal: corrupt")
	// ErrClosed reports use after Close.
	ErrClosed = errors.New("wal: closed")
	// ErrRecordTooLarge rejects an Append whose payload exceeds the
	// configured bounds.
	ErrRecordTooLarge = errors.New("wal: record too large")
)

// FsyncPolicy selects the durability/latency trade-off.
type FsyncPolicy int

const (
	// FsyncAlways syncs on every Append (the zero value: safest default).
	FsyncAlways FsyncPolicy = iota
	// FsyncInterval syncs on a background timer.
	FsyncInterval
	// FsyncNever never syncs explicitly.
	FsyncNever
)

func (p FsyncPolicy) String() string {
	switch p {
	case FsyncAlways:
		return "always"
	case FsyncInterval:
		return "interval"
	case FsyncNever:
		return "never"
	default:
		return fmt.Sprintf("FsyncPolicy(%d)", int(p))
	}
}

// ParseFsyncPolicy parses "always", "interval", or "never".
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch s {
	case "always":
		return FsyncAlways, nil
	case "interval":
		return FsyncInterval, nil
	case "never":
		return FsyncNever, nil
	default:
		return 0, fmt.Errorf("wal: unknown fsync policy %q (want always, interval, or never)", s)
	}
}

// Options configures a log.
type Options struct {
	// Fsync is the durability policy. Default FsyncAlways.
	Fsync FsyncPolicy
	// Interval is the FsyncInterval cadence. Default 100ms.
	Interval time.Duration
	// SegmentBytes rolls to a new segment past this size. Default 16 MiB.
	SegmentBytes int64
	// MaxValueBytes bounds one record's value, both on Append and as the
	// replay-side sanity bound before allocating. Default 1 MiB.
	MaxValueBytes int
}

func (o Options) withDefaults() Options {
	if o.Interval <= 0 {
		o.Interval = 100 * time.Millisecond
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 16 << 20
	}
	if o.MaxValueBytes <= 0 {
		o.MaxValueBytes = 1 << 20
	}
	return o
}

// ReplayStats summarizes what Open recovered.
type ReplayStats struct {
	// Segments is how many segment files were replayed.
	Segments int
	// Records is how many valid records were applied.
	Records int64
	// Skipped is how many records the apply callback declined (see
	// SkipRecord).
	Skipped int64
	// Truncated reports a torn tail that was cut back to the last valid
	// record.
	Truncated bool
	// TruncatedBytes is how many bytes the repair dropped.
	TruncatedBytes int64
}

// SkipRecord, returned by an Open apply callback, skips the record (it is
// counted in ReplayStats.Skipped) without aborting replay — for records
// that no longer apply, e.g. a tenant removed from the configuration.
var SkipRecord = errors.New("wal: skip record")

// Log is an open write-ahead log. All methods are safe for concurrent
// use; appends from different callers serialize on one internal mutex, so
// replay order always matches acknowledgment order.
type Log struct {
	dir  string
	opts Options

	mu     sync.Mutex
	f      *os.File
	seq    int   // current segment number
	size   int64 // bytes written to the current segment
	buf    []byte
	closed bool
	// injected, when non-nil, fails every Append, Sync and compaction — the
	// serve-layer fault hook (shard-level WAL write-error and disk-full
	// events) and a test seam for real disk failures.
	injected error
	// syncErr is a sticky background-sync failure: under FsyncInterval a
	// failed timer sync must surface, so the next Append returns it
	// instead of acknowledging a write that may never reach disk.
	syncErr error
	// dirty marks bytes appended since the last sync.
	dirty bool
	// segs counts the segment files listSegments would return, so
	// SegmentCount never lists the directory.
	segs int
	// retired is the segment BeginCompact rolled away from, still open
	// until settle syncs and closes it. rolls counts BeginCompact
	// rotations; settled is the last one whose retired tail and new
	// directory entry settle made durable.
	retired        *os.File
	rolls, settled int

	// settleMu serializes settle, which runs without mu.
	settleMu sync.Mutex

	stop chan struct{}
	done chan struct{}
}

// Open opens (creating if needed) the log in dir, replays every existing
// record through apply in append order, repairs a torn tail, and leaves
// the log ready for Append. A nil apply discards records (still
// validated). Any apply error other than SkipRecord aborts Open.
func Open(dir string, opts Options, apply func(Record) error) (*Log, ReplayStats, error) {
	opts = opts.withDefaults()
	var stats ReplayStats
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, stats, fmt.Errorf("wal: %w", err)
	}
	// A snapshot still under its temporary name was never committed: the
	// history it would have replaced is intact.
	tmps, err := filepath.Glob(filepath.Join(dir, "*"+tmpSuffix))
	if err != nil {
		return nil, stats, fmt.Errorf("wal: %w", err)
	}
	for _, tmp := range tmps {
		if err := os.Remove(tmp); err != nil {
			return nil, stats, fmt.Errorf("wal: %w", err)
		}
	}
	l := &Log{dir: dir, opts: opts, buf: make([]byte, 0, 4096)}
	segs, err := listSegments(dir)
	if err != nil {
		return nil, stats, err
	}
	for i, seg := range segs {
		final := i == len(segs)-1
		path := l.segPath(seg)
		applied, skipped, valid, torn, err := replaySegment(path, opts.MaxValueBytes, apply)
		if err != nil {
			if !torn {
				return nil, stats, err
			}
			if !final {
				// A torn record can only be the log's very tail; mid-log
				// damage is not crash-shaped and repair would drop later
				// acknowledged segments.
				return nil, stats, fmt.Errorf("%w: segment %08d damaged with later segments present: %v", ErrCorrupt, seg, err)
			}
			fi, statErr := os.Stat(path)
			if statErr != nil {
				return nil, stats, fmt.Errorf("wal: %w", statErr)
			}
			stats.Truncated = true
			stats.TruncatedBytes = fi.Size() - valid
			if valid < segHeaderLen {
				// Even the segment header is torn; drop the file and let
				// the next roll recreate the number.
				if err := os.Remove(path); err != nil {
					return nil, stats, fmt.Errorf("wal: %w", err)
				}
				segs = segs[:len(segs)-1]
			} else if err := os.Truncate(path, valid); err != nil {
				return nil, stats, fmt.Errorf("wal: %w", err)
			}
		}
		stats.Segments++
		stats.Records += applied
		stats.Skipped += skipped
	}
	l.segs = len(segs)
	if len(segs) == 0 {
		if err := l.rollLocked(1, true); err != nil {
			return nil, stats, err
		}
	} else {
		last := segs[len(segs)-1]
		f, err := os.OpenFile(l.segPath(last), os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, stats, fmt.Errorf("wal: %w", err)
		}
		fi, err := f.Stat()
		if err != nil {
			f.Close()
			return nil, stats, fmt.Errorf("wal: %w", err)
		}
		l.f, l.seq, l.size = f, last, fi.Size()
	}
	if opts.Fsync == FsyncInterval {
		l.stop = make(chan struct{})
		l.done = make(chan struct{})
		go l.syncLoop()
	}
	return l, stats, nil
}

func (l *Log) segPath(seq int) string {
	return filepath.Join(l.dir, fmt.Sprintf("%08d.wal", seq))
}

// listSegments returns the existing segment numbers in ascending order.
func listSegments(dir string) ([]int, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	var segs []int
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".wal") || len(name) != 12 {
			continue
		}
		n, err := strconv.Atoi(name[:8])
		if err != nil || n <= 0 {
			continue
		}
		segs = append(segs, n)
	}
	sort.Ints(segs)
	return segs, nil
}

// tmpSuffix marks a snapshot still being written; listSegments ignores it
// and Open deletes it.
const tmpSuffix = ".tmp"

// segHeader is the fixed header every segment file starts with.
func segHeader() []byte {
	hdr := make([]byte, segHeaderLen)
	copy(hdr[:4], segMagic)
	binary.LittleEndian.PutUint16(hdr[4:], segVersion)
	return hdr
}

// rollLocked makes a fresh segment seq the live one. With durable set (a
// size roll, or the first segment) the outgoing segment's tail, the new
// header and the directory entry are synced before it returns. Without
// (BeginCompact) it only creates the file and writes the header: the
// outgoing segment stays open as l.retired and settle makes the rotation
// durable later, outside the caller's critical section.
func (l *Log) rollLocked(seq int, durable bool) error {
	if l.retired != nil {
		// An earlier rotation was never settled: finish its segment here
		// rather than juggle two retired ones.
		if err := l.retired.Sync(); err != nil {
			return fmt.Errorf("wal: %w", err)
		}
		l.retired.Close()
		l.retired = nil
	}
	if durable && l.dirty {
		// Acked-but-unsynced bytes must not ride only in a file we are
		// about to stop writing: sync the old segment before moving on.
		if err := l.f.Sync(); err != nil {
			return fmt.Errorf("wal: %w", err)
		}
		l.dirty = false
	}
	f, err := os.OpenFile(l.segPath(seq), os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if _, err := f.Write(segHeader()); err != nil {
		f.Close()
		return fmt.Errorf("wal: %w", err)
	}
	if durable {
		if err := f.Sync(); err != nil {
			f.Close()
			return fmt.Errorf("wal: %w", err)
		}
		if err := syncDir(l.dir); err != nil {
			f.Close()
			return err
		}
	}
	if l.f != nil {
		if durable {
			if err := l.f.Close(); err != nil {
				f.Close()
				return fmt.Errorf("wal: %w", err)
			}
		} else {
			l.retired = l.f
			l.rolls++
		}
	}
	l.f, l.seq, l.size, l.dirty = f, seq, segHeaderLen, false
	l.segs++
	return nil
}

// settle makes the last BeginCompact rotation durable: it syncs and
// closes the retired segment and syncs the directory, so the new live
// segment's entry survives a power loss. It runs without l.mu, so
// appends to the live segment continue meanwhile; settleMu serializes
// settlers, and a caller that finds the rotation settled returns at once.
// A failure is sticky like a background sync failure: the next Append
// reports it.
func (l *Log) settle() error {
	l.settleMu.Lock()
	defer l.settleMu.Unlock()
	l.mu.Lock()
	f, gen, done := l.retired, l.rolls, l.settled == l.rolls
	l.retired = nil
	l.mu.Unlock()
	if done {
		return nil
	}
	var err error
	if f != nil {
		if serr := f.Sync(); serr != nil {
			err = fmt.Errorf("wal: %w", serr)
		}
		f.Close()
	}
	if err == nil {
		err = syncDir(l.dir)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if err != nil {
		l.syncErr = err
		return err
	}
	l.settled = gen
	return nil
}

// syncDir makes directory mutations (segment create/remove) durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	return nil
}

// marshal appends r's wire form to buf and returns the extended slice.
func marshal(buf []byte, r Record) ([]byte, error) {
	if len(r.Tenant) > 255 {
		return buf, fmt.Errorf("%w: tenant %d bytes", ErrRecordTooLarge, len(r.Tenant))
	}
	if len(r.Key) > 65535 {
		return buf, fmt.Errorf("%w: key %d bytes", ErrRecordTooLarge, len(r.Key))
	}
	start := len(buf)
	var hdr [headerLen]byte
	hdr[0] = byte(r.Kind)
	hdr[1] = byte(len(r.Tenant))
	binary.LittleEndian.PutUint16(hdr[2:], uint16(len(r.Key)))
	binary.LittleEndian.PutUint32(hdr[4:], uint32(len(r.Value)))
	binary.LittleEndian.PutUint64(hdr[8:], r.Epoch)
	buf = append(buf, hdr[:]...)
	buf = append(buf, r.Tenant...)
	buf = append(buf, r.Key...)
	buf = append(buf, r.Value...)
	crc := crc32.ChecksumIEEE(buf[start:])
	var tr [trailerLen]byte
	binary.LittleEndian.PutUint32(tr[:], crc)
	return append(buf, tr[:]...), nil
}

// Append logs one record under the configured durability policy: when it
// returns nil under FsyncAlways, the record is on disk — and, if it is
// the first in the segment a BeginCompact rotated to, so are that
// segment's directory entry and the retired segment's tail.
func (l *Log) Append(r Record) error {
	l.mu.Lock()
	err := l.appendLocked(r)
	unsettled := err == nil && l.opts.Fsync == FsyncAlways && l.settled != l.rolls
	l.mu.Unlock()
	if unsettled {
		return l.settle()
	}
	return err
}

// usableLocked reports why the log cannot take writes, if it cannot.
func (l *Log) usableLocked() error {
	if l.closed {
		return ErrClosed
	}
	return l.injected
}

func (l *Log) appendLocked(r Record) error {
	if err := l.usableLocked(); err != nil {
		return err
	}
	if l.syncErr != nil {
		err := l.syncErr
		// Retry the sync so a transient failure heals: if it works, the
		// previously acknowledged bytes are durable after all.
		if l.f != nil && l.f.Sync() == nil {
			l.syncErr, l.dirty = nil, false
		} else {
			return err
		}
	}
	if len(r.Value) > l.opts.MaxValueBytes {
		return fmt.Errorf("%w: value %d bytes over %d", ErrRecordTooLarge, len(r.Value), l.opts.MaxValueBytes)
	}
	if l.size >= l.opts.SegmentBytes {
		if err := l.rollLocked(l.seq+1, true); err != nil {
			return err
		}
	}
	var err error
	l.buf, err = marshal(l.buf[:0], r)
	if err != nil {
		return err
	}
	n, err := l.f.Write(l.buf)
	l.size += int64(n)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	l.dirty = true
	if l.opts.Fsync == FsyncAlways {
		if err := l.f.Sync(); err != nil {
			return fmt.Errorf("wal: %w", err)
		}
		l.dirty = false
	}
	return nil
}

// Sync forces buffered appends, and any unsettled rotation, to disk. The
// rotation settles first, so the live segment never reaches the disk
// ahead of the retired one's tail.
func (l *Log) Sync() error {
	l.mu.Lock()
	err := l.usableLocked()
	l.mu.Unlock()
	if err != nil {
		return err
	}
	if err := l.settle(); err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.syncLocked()
}

func (l *Log) syncLocked() error {
	if err := l.usableLocked(); err != nil {
		return err
	}
	if !l.dirty {
		return nil
	}
	if err := l.f.Sync(); err != nil {
		l.syncErr = fmt.Errorf("wal: %w", err)
		return l.syncErr
	}
	l.dirty = false
	l.syncErr = nil
	return nil
}

func (l *Log) syncLoop() {
	defer close(l.done)
	t := time.NewTicker(l.opts.Interval)
	defer t.Stop()
	for {
		select {
		case <-l.stop:
			return
		case <-t.C:
			// Settle first, as Sync does; a failure is sticky and the next
			// tick retries it before syncing anything else.
			l.mu.Lock()
			live := l.usableLocked() == nil
			l.mu.Unlock()
			if !live || l.settle() != nil {
				continue
			}
			l.mu.Lock()
			if l.usableLocked() == nil && l.dirty {
				if err := l.f.Sync(); err != nil {
					l.syncErr = fmt.Errorf("wal: %w", err)
				} else {
					l.dirty = false
					l.syncErr = nil
				}
			}
			l.mu.Unlock()
		}
	}
}

// Compaction is a snapshot in progress: BeginCompact has rotated the log,
// and Write has yet to write the snapshot and retire the history.
type Compaction struct {
	l     *Log
	seq   int // the segment number reserved for the snapshot
	epoch uint64
	state []byte
}

// BeginCompact is compaction's first phase, cheap enough to run inside
// its caller's stop-the-world section: it reserves the next segment
// number for the snapshot and rolls live appends to the one after it.
// Every append from here on lands after the snapshot in replay order, so
// the caller may capture the state Write streams at any later instant —
// a fuzzy capture is sound because the last record for a key wins. At
// most one compaction may be in flight; the caller serializes them.
func (l *Log) BeginCompact(epoch uint64, state []byte) (*Compaction, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.usableLocked(); err != nil {
		return nil, err
	}
	snap := l.seq + 1
	if err := l.rollLocked(snap+1, false); err != nil {
		return nil, err
	}
	return &Compaction{l: l, seq: snap, epoch: epoch, state: state}, nil
}

// Write is compaction's second phase, run outside the caller's critical
// section and concurrently with appends. It settles the rotation, writes
// the snapshot — KindSnapshotBegin (epoch and the opaque partition
// state), the KindSet records stream emits, KindSnapshotEnd — to a
// temporary file, syncs it, renames it into place, and then removes every
// older segment, oldest first. Call it exactly once per BeginCompact.
func (cp *Compaction) Write(stream func(emit func(tenant, key string, value []byte) error) error) error {
	l := cp.l
	l.mu.Lock()
	err := l.usableLocked()
	l.mu.Unlock()
	if err != nil {
		return err
	}
	if err := l.settle(); err != nil {
		return err
	}
	final := l.segPath(cp.seq)
	tmp := final + tmpSuffix
	if err := cp.writeFile(tmp, stream); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("wal: %w", err)
	}
	l.mu.Lock()
	l.segs++
	l.mu.Unlock()
	// The snapshot must be durable under its final name before the
	// history it replaces goes away.
	if err := syncDir(l.dir); err != nil {
		return err
	}
	segs, err := listSegments(l.dir)
	if err != nil {
		return err
	}
	// Oldest first: a crash part-way leaves a suffix of the history,
	// which the snapshot's re-sets and the live segment correct.
	for _, seq := range segs {
		if seq >= cp.seq {
			break
		}
		if err := os.Remove(l.segPath(seq)); err != nil {
			return fmt.Errorf("wal: %w", err)
		}
		l.mu.Lock()
		l.segs--
		l.mu.Unlock()
	}
	return syncDir(l.dir)
}

// writeFile writes, syncs and closes the snapshot segment image at path.
func (cp *Compaction) writeFile(path string, stream func(emit func(tenant, key string, value []byte) error) error) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	defer f.Close() // for the error paths; the success path closes below
	w := bufio.NewWriterSize(f, 1<<16)
	if _, err := w.Write(segHeader()); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	var buf []byte
	emit := func(r Record) error {
		if len(r.Value) > cp.l.opts.MaxValueBytes {
			return fmt.Errorf("%w: value %d bytes over %d", ErrRecordTooLarge, len(r.Value), cp.l.opts.MaxValueBytes)
		}
		var err error
		if buf, err = marshal(buf[:0], r); err != nil {
			return err
		}
		if _, err := w.Write(buf); err != nil {
			return fmt.Errorf("wal: %w", err)
		}
		return nil
	}
	if err := emit(Record{Kind: KindSnapshotBegin, Epoch: cp.epoch, Value: cp.state}); err != nil {
		return err
	}
	if stream != nil {
		err := stream(func(tenant, key string, value []byte) error {
			return emit(Record{Kind: KindSet, Tenant: tenant, Key: key, Value: value})
		})
		if err != nil {
			return err
		}
	}
	if err := emit(Record{Kind: KindSnapshotEnd}); err != nil {
		return err
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	return nil
}

// InjectFailure makes every subsequent Append, Sync, BeginCompact and
// Compaction.Write fail with err until cleared with nil — the
// deterministic fault-injection seam (internal/fault WALWriteErr and
// DiskFull events).
func (l *Log) InjectFailure(err error) {
	l.mu.Lock()
	l.injected = err
	l.mu.Unlock()
}

// SegmentCount returns the number of live segment files (for metrics),
// from memory: it never lists the directory.
func (l *Log) SegmentCount() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.segs
}

// Size returns the byte size of the current segment (for metrics).
func (l *Log) Size() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.size
}

// Close syncs and closes the log. Further operations return ErrClosed.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ErrClosed
	}
	// Sync what is pending — the live segment, and an unsettled
	// rotation's retired segment and directory entry — unless a failure
	// is injected.
	var err error
	keep := func(e error) {
		if err == nil && e != nil {
			err = fmt.Errorf("wal: %w", e)
		}
	}
	if l.injected == nil && l.dirty {
		keep(l.f.Sync())
	}
	if l.retired != nil {
		if l.injected == nil {
			keep(l.retired.Sync())
		}
		l.retired.Close()
		l.retired = nil
	}
	if l.injected == nil && l.settled != l.rolls {
		if serr := syncDir(l.dir); err == nil {
			err = serr
		}
	}
	keep(l.f.Close())
	l.closed = true
	stop, done := l.stop, l.done
	l.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
	return err
}

// replaySegment streams one segment's records through apply. It returns
// the number applied and skipped, the byte offset of the end of the last
// valid record, whether the failure is torn-tail-shaped (repairable by
// truncation when the segment is the log's last), and the error.
func replaySegment(path string, maxValue int, apply func(Record) error) (applied, skipped, valid int64, torn bool, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, 0, false, fmt.Errorf("wal: %w", err)
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 1<<16)
	hdr := make([]byte, segHeaderLen)
	if _, err := io.ReadFull(br, hdr); err != nil {
		return 0, 0, 0, true, fmt.Errorf("%w: segment header: %v", ErrTruncated, err)
	}
	if string(hdr[:4]) != segMagic {
		return 0, 0, 0, true, fmt.Errorf("%w: bad segment magic %q", ErrTruncated, hdr[:4])
	}
	if v := binary.LittleEndian.Uint16(hdr[4:]); v != segVersion {
		return 0, 0, 0, false, fmt.Errorf("%w: unsupported segment version %d", ErrCorrupt, v)
	}
	if binary.LittleEndian.Uint16(hdr[6:]) != 0 {
		return 0, 0, 0, true, fmt.Errorf("%w: nonzero reserved header bytes", ErrTruncated)
	}
	valid = segHeaderLen
	for {
		rec, n, err := readRecord(br, maxValue)
		if err == io.EOF {
			return applied, skipped, valid, false, nil
		}
		if err != nil {
			return applied, skipped, valid, true,
				fmt.Errorf("%w: record at byte %d: %v", ErrTruncated, valid, err)
		}
		switch aerr := callApply(apply, rec); {
		case aerr == nil:
			applied++
		case errors.Is(aerr, SkipRecord):
			skipped++
		default:
			return applied, skipped, valid, false, fmt.Errorf("wal: replay apply: %w", aerr)
		}
		valid += n
	}
}

// callApply invokes apply if non-nil.
func callApply(apply func(Record) error, r Record) error {
	if apply == nil {
		return nil
	}
	return apply(r)
}

// readRecord reads one record. io.EOF means a clean end exactly on a
// record boundary; any other error means the bytes at the cursor are not
// a valid record.
func readRecord(br *bufio.Reader, maxValue int) (Record, int64, error) {
	var hdr [headerLen]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		if err == io.EOF {
			return Record{}, 0, io.EOF
		}
		return Record{}, 0, fmt.Errorf("short header: %v", err)
	}
	kind := Kind(hdr[0])
	if kind < KindSet || kind > KindSnapshotEnd {
		return Record{}, 0, fmt.Errorf("unknown record kind %d", hdr[0])
	}
	tl := int(hdr[1])
	kl := int(binary.LittleEndian.Uint16(hdr[2:]))
	vl := int(binary.LittleEndian.Uint32(hdr[4:]))
	if vl > maxValue {
		return Record{}, 0, fmt.Errorf("value length %d over bound %d", vl, maxValue)
	}
	payload := make([]byte, tl+kl+vl+trailerLen)
	if _, err := io.ReadFull(br, payload); err != nil {
		return Record{}, 0, fmt.Errorf("short payload: %v", err)
	}
	body := payload[:tl+kl+vl]
	want := binary.LittleEndian.Uint32(payload[tl+kl+vl:])
	crc := crc32.ChecksumIEEE(hdr[:])
	crc = crc32.Update(crc, crc32.IEEETable, body)
	if crc != want {
		return Record{}, 0, fmt.Errorf("crc mismatch (have %08x, want %08x)", crc, want)
	}
	r := Record{
		Kind:   kind,
		Tenant: string(body[:tl]),
		Key:    string(body[tl : tl+kl]),
		Epoch:  binary.LittleEndian.Uint64(hdr[8:]),
	}
	if vl > 0 {
		r.Value = append([]byte(nil), body[tl+kl:]...)
	}
	return r, int64(headerLen + tl + kl + vl + trailerLen), nil
}

// ReadRecords streams the records of one segment image (for tests and the
// fuzz harness): it returns the count of valid records before the first
// invalid byte, and an error wrapping ErrTruncated unless the image ends
// cleanly on a record boundary.
func ReadRecords(r io.Reader, maxValue int, fn func(Record) error) (int64, error) {
	br := bufio.NewReader(r)
	hdr := make([]byte, segHeaderLen)
	if _, err := io.ReadFull(br, hdr); err != nil {
		return 0, fmt.Errorf("%w: segment header: %v", ErrTruncated, err)
	}
	if string(hdr[:4]) != segMagic {
		return 0, fmt.Errorf("%w: bad segment magic %q", ErrTruncated, hdr[:4])
	}
	if v := binary.LittleEndian.Uint16(hdr[4:]); v != segVersion {
		return 0, fmt.Errorf("%w: unsupported segment version %d", ErrCorrupt, v)
	}
	if binary.LittleEndian.Uint16(hdr[6:]) != 0 {
		return 0, fmt.Errorf("%w: nonzero reserved header bytes", ErrTruncated)
	}
	var n int64
	for {
		rec, _, err := readRecord(br, maxValue)
		if err == io.EOF {
			return n, nil
		}
		if err != nil {
			return n, fmt.Errorf("%w: record %d: %v", ErrTruncated, n, err)
		}
		if fn != nil {
			if err := fn(rec); err != nil {
				return n, err
			}
		}
		n++
	}
}
