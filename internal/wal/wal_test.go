package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

// collect replays a directory into a flat record list with a fresh Open.
func collect(t *testing.T, dir string, opts Options) ([]Record, ReplayStats, *Log) {
	t.Helper()
	var got []Record
	l, stats, err := Open(dir, opts, func(r Record) error {
		got = append(got, r)
		return nil
	})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return got, stats, l
}

func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, stats, err := Open(dir, Options{Fsync: FsyncNever}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Records != 0 || stats.Truncated {
		t.Fatalf("fresh log stats = %+v", stats)
	}
	recs := []Record{
		{Kind: KindSet, Tenant: "alpha", Key: "user/1", Value: []byte("v1")},
		{Kind: KindSet, Tenant: "beta", Key: "k", Value: []byte{}},
		{Kind: KindDelete, Tenant: "alpha", Key: "user/1"},
		{Kind: KindEpoch, Epoch: 7, Value: []byte{4, 0, 0, 1, 1}},
		{Kind: KindSet, Tenant: "alpha", Key: "user/2", Value: bytes.Repeat([]byte("x"), 1000)},
	}
	for _, r := range recs {
		if err := l.Append(r); err != nil {
			t.Fatalf("Append(%v): %v", r.Kind, err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got, stats, l2 := collect(t, dir, Options{})
	defer l2.Close()
	if stats.Truncated || stats.Records != int64(len(recs)) {
		t.Fatalf("replay stats = %+v, want %d clean records", stats, len(recs))
	}
	for i, r := range recs {
		g := got[i]
		// Empty and nil values replay as nil.
		if len(r.Value) == 0 {
			r.Value = nil
		}
		if g.Kind != r.Kind || g.Tenant != r.Tenant || g.Key != r.Key ||
			g.Epoch != r.Epoch || !bytes.Equal(g.Value, r.Value) {
			t.Fatalf("record %d = %+v, want %+v", i, g, r)
		}
	}
}

func TestAppendAfterReopen(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(Record{Kind: KindSet, Tenant: "a", Key: "k1", Value: []byte("1")}); err != nil {
		t.Fatal(err)
	}
	l.Close()
	l, _, err = Open(dir, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(Record{Kind: KindSet, Tenant: "a", Key: "k2", Value: []byte("2")}); err != nil {
		t.Fatal(err)
	}
	l.Close()
	got, stats, l2 := collect(t, dir, Options{})
	defer l2.Close()
	if stats.Records != 2 || got[0].Key != "k1" || got[1].Key != "k2" {
		t.Fatalf("after reopen-append replay = %+v (stats %+v)", got, stats)
	}
}

func TestSegmentRolling(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments force a roll every couple of records.
	l, _, err := Open(dir, Options{Fsync: FsyncNever, SegmentBytes: 128}, nil)
	if err != nil {
		t.Fatal(err)
	}
	const n = 20
	for i := 0; i < n; i++ {
		if err := l.Append(Record{Kind: KindSet, Tenant: "t", Key: fmt.Sprintf("key/%02d", i), Value: []byte("0123456789")}); err != nil {
			t.Fatal(err)
		}
	}
	if sc := l.SegmentCount(); sc < 3 {
		t.Fatalf("SegmentCount() = %d, want several after rolling", sc)
	}
	l.Close()
	got, stats, l2 := collect(t, dir, Options{SegmentBytes: 128})
	defer l2.Close()
	if stats.Records != n || stats.Truncated {
		t.Fatalf("rolled replay stats = %+v, want %d records", stats, n)
	}
	for i, r := range got {
		if want := fmt.Sprintf("key/%02d", i); r.Key != want {
			t.Fatalf("record %d key = %q, want %q (order must survive rolling)", i, r.Key, want)
		}
	}
}

// TestTruncationEveryCut is the crash-recovery table test: a log cut at
// every possible byte offset must reopen without error, replay exactly
// the records fully durable before the cut, and truncate the rest.
func TestTruncationEveryCut(t *testing.T) {
	master := t.TempDir()
	l, _, err := Open(master, Options{Fsync: FsyncNever}, nil)
	if err != nil {
		t.Fatal(err)
	}
	recs := []Record{
		{Kind: KindSet, Tenant: "a", Key: "k1", Value: []byte("hello")},
		{Kind: KindDelete, Tenant: "a", Key: "k1"},
		{Kind: KindEpoch, Epoch: 3, Value: []byte{1, 2}},
		{Kind: KindSet, Tenant: "b", Key: "k2", Value: []byte("world")},
	}
	var ends []int64 // cumulative valid end offsets after each record
	off := int64(segHeaderLen)
	for _, r := range recs {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
		b, _ := marshal(nil, r)
		off += int64(len(b))
		ends = append(ends, off)
	}
	l.Close()
	img, err := os.ReadFile(filepath.Join(master, "00000001.wal"))
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(img)) != off {
		t.Fatalf("image %d bytes, expected %d", len(img), off)
	}
	for cut := 0; cut <= len(img); cut++ {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "00000001.wal"), img[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		var wantRecords int64
		for _, e := range ends {
			if int64(cut) >= e {
				wantRecords++
			}
		}
		got, stats, l := collect(t, dir, Options{})
		if stats.Records != wantRecords {
			t.Fatalf("cut %d: replayed %d records, want %d", cut, stats.Records, wantRecords)
		}
		// A cut exactly on a record boundary (or the bare header) is
		// clean; anything else — including a torn segment header — is a
		// truncation the repair must report.
		clean := int64(cut) == segHeaderLen
		for _, e := range ends {
			if int64(cut) == e {
				clean = true
			}
		}
		wantTrunc := !clean
		if stats.Truncated != wantTrunc {
			t.Fatalf("cut %d: Truncated = %v, want %v (stats %+v)", cut, stats.Truncated, wantTrunc, stats)
		}
		// The log must accept appends after repair, and a second replay
		// must see old records + the new one with no truncation.
		if err := l.Append(Record{Kind: KindSet, Tenant: "z", Key: "post", Value: []byte("post")}); err != nil {
			t.Fatalf("cut %d: append after repair: %v", cut, err)
		}
		l.Close()
		got2, stats2, l2 := collect(t, dir, Options{})
		l2.Close()
		if stats2.Truncated || stats2.Records != wantRecords+1 {
			t.Fatalf("cut %d: second replay stats = %+v, want %d clean", cut, stats2, wantRecords+1)
		}
		if got2[len(got2)-1].Key != "post" {
			t.Fatalf("cut %d: appended record missing from replay", cut)
		}
		_ = got
	}
}

func TestCorruptMidLogIsFatal(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{Fsync: FsyncNever, SegmentBytes: 64}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if err := l.Append(Record{Kind: KindSet, Tenant: "t", Key: fmt.Sprintf("k%d", i), Value: []byte("0123456789abcdef")}); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	// Flip a byte in the FIRST segment: damage with later segments present
	// is not a torn tail and must refuse to open.
	path := filepath.Join(dir, "00000001.wal")
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	img[segHeaderLen+3] ^= 0xFF
	if err := os.WriteFile(path, img, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err = Open(dir, Options{}, nil)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open over mid-log damage = %v, want ErrCorrupt", err)
	}
}

func TestCRCCatchesBitFlip(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{Fsync: FsyncNever}, nil)
	if err != nil {
		t.Fatal(err)
	}
	l.Append(Record{Kind: KindSet, Tenant: "t", Key: "k", Value: []byte("payload")})
	l.Append(Record{Kind: KindSet, Tenant: "t", Key: "k2", Value: []byte("payload2")})
	l.Close()
	path := filepath.Join(dir, "00000001.wal")
	img, _ := os.ReadFile(path)
	// Flip one payload byte of the LAST record: CRC must catch it and the
	// repair must cut back to the first record.
	img[len(img)-6] ^= 0x01
	os.WriteFile(path, img, 0o644)
	got, stats, l2 := collect(t, dir, Options{})
	defer l2.Close()
	if !stats.Truncated || stats.Records != 1 || got[0].Key != "k" {
		t.Fatalf("bit-flip replay = %d records (stats %+v), want 1 truncated", len(got), stats)
	}
}

// segmentFiles lists dir's segment numbers the way Open will see them.
func segmentFiles(t *testing.T, dir string) []int {
	t.Helper()
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	return segs
}

// compactLive runs both compaction phases over a key → value map.
func compactLive(t *testing.T, l *Log, epoch uint64, state []byte, live map[string]string) {
	t.Helper()
	cp, err := l.BeginCompact(epoch, state)
	if err != nil {
		t.Fatalf("BeginCompact: %v", err)
	}
	err = cp.Write(func(emit func(string, string, []byte) error) error {
		for k, v := range live {
			if err := emit("t", k, []byte(v)); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Write: %v", err)
	}
}

// rebuild folds a replayed record list into a key → value map.
func rebuild(recs []Record) map[string]string {
	m := map[string]string{}
	for _, r := range recs {
		switch r.Kind {
		case KindSet:
			m[r.Key] = string(r.Value)
		case KindDelete:
			delete(m, r.Key)
		}
	}
	return m
}

func TestCompaction(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{Fsync: FsyncNever, SegmentBytes: 256}, nil)
	if err != nil {
		t.Fatal(err)
	}
	live := map[string]string{}
	for i := 0; i < 30; i++ {
		k, v := fmt.Sprintf("key/%02d", i), fmt.Sprintf("val/%02d", i)
		if err := l.Append(Record{Kind: KindSet, Tenant: "t", Key: k, Value: []byte(v)}); err != nil {
			t.Fatal(err)
		}
		live[k] = v
	}
	// Deletes shrink the live set; compaction must not resurrect them.
	for i := 0; i < 10; i++ {
		k := fmt.Sprintf("key/%02d", i)
		if err := l.Append(Record{Kind: KindDelete, Tenant: "t", Key: k}); err != nil {
			t.Fatal(err)
		}
		delete(live, k)
	}
	before := l.SegmentCount()
	if before < 2 {
		t.Fatalf("want multiple segments before compaction, have %d", before)
	}
	state := []byte{0xAB, 0xCD}
	compactLive(t, l, 42, state, live)
	// The snapshot is followed by the live segment appends rolled to, and
	// nothing older survives.
	segs := segmentFiles(t, dir)
	if len(segs) > 2 || l.SegmentCount() != len(segs) {
		t.Fatalf("segments after compaction = %v (count %d), want the snapshot and the live segment", segs, l.SegmentCount())
	}
	// Post-compaction appends land after the snapshot.
	if err := l.Append(Record{Kind: KindSet, Tenant: "t", Key: "post", Value: []byte("p")}); err != nil {
		t.Fatal(err)
	}
	l.Close()

	got, stats, l2 := collect(t, dir, Options{})
	defer l2.Close()
	if stats.Truncated {
		t.Fatalf("compacted replay truncated: %+v", stats)
	}
	if got[0].Kind != KindSnapshotBegin || got[0].Epoch != 42 || !bytes.Equal(got[0].Value, state) {
		t.Fatalf("first record = %+v, want snapshot-begin epoch 42", got[0])
	}
	live["post"] = "p"
	if rebuilt := rebuild(got); !reflect.DeepEqual(rebuilt, live) {
		t.Fatalf("state after compacted replay = %v, want %v", rebuilt, live)
	}
	sawEnd := false
	for _, r := range got {
		if r.Kind == KindSnapshotEnd {
			sawEnd = true
		}
	}
	if !sawEnd {
		t.Fatal("no snapshot-end marker in compacted replay")
	}
}

// TestCompactionCrashStates replays the log as a crash would leave it at
// each step of a two-phase compaction that races appends: after
// BeginCompact, with a torn temporary snapshot, after the rename, and
// after the removals. Every state must open cleanly, hold exactly the
// appended state, and leave no temporary file behind.
func TestCompactionCrashStates(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{Fsync: FsyncAlways, SegmentBytes: 512}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	live := map[string]string{}
	apply := func(r Record) {
		t.Helper()
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
		if r.Kind == KindSet {
			live[r.Key] = string(r.Value)
		} else {
			delete(live, r.Key)
		}
	}
	for i := 0; i < 20; i++ {
		apply(Record{Kind: KindSet, Tenant: "t", Key: fmt.Sprintf("k%02d", i), Value: []byte("old")})
	}
	apply(Record{Kind: KindDelete, Tenant: "t", Key: "k03"})
	type cut struct {
		name string
		dir  string
		want map[string]string
	}
	var cuts []cut
	snap := func(name string, fix func(dir string)) {
		t.Helper()
		d := copyDir(t, dir)
		if fix != nil {
			fix(d)
		}
		want := map[string]string{}
		for k, v := range live {
			want[k] = v
		}
		cuts = append(cuts, cut{name, d, want})
	}

	cp, err := l.BeginCompact(7, []byte{1})
	if err != nil {
		t.Fatal(err)
	}
	// Appends after the rotation land in the live segment; the capture
	// below sees some of them and misses others.
	apply(Record{Kind: KindSet, Tenant: "t", Key: "k00", Value: []byte("new")})
	apply(Record{Kind: KindDelete, Tenant: "t", Key: "k01"})
	snap("after-begin", nil)
	history := segmentFiles(t, dir)
	captured := map[string]string{}
	for k, v := range live {
		captured[k] = v
	}
	apply(Record{Kind: KindDelete, Tenant: "t", Key: "k02"})
	apply(Record{Kind: KindSet, Tenant: "t", Key: "k01", Value: []byte("back")})
	err = cp.Write(func(emit func(string, string, []byte) error) error {
		n := 0
		for k, v := range captured {
			if err := emit("t", k, []byte(v)); err != nil {
				return err
			}
			if n++; n == 5 {
				snap("torn-temp", func(d string) {
					f, err := os.OpenFile(filepath.Join(d, fmt.Sprintf("%08d.wal%s", cp.seq, tmpSuffix)), os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
					if err != nil {
						t.Fatal(err)
					}
					f.Write([]byte{0xde, 0xad})
					f.Close()
				})
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	apply(Record{Kind: KindSet, Tenant: "t", Key: "k05", Value: []byte("late")})
	snap("after-removals", nil)
	// Before the removals the history sat beside the snapshot: restore it.
	snap("after-rename", func(d string) {
		for _, seq := range history {
			if seq >= cp.seq {
				continue
			}
			b, err := os.ReadFile(filepath.Join(cuts[0].dir, fmt.Sprintf("%08d.wal", seq)))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(d, fmt.Sprintf("%08d.wal", seq)), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	})
	for _, c := range cuts {
		got, _, l2 := collect(t, c.dir, Options{})
		l2.Close()
		if rebuilt := rebuild(got); !reflect.DeepEqual(rebuilt, c.want) {
			t.Fatalf("%s: replayed state %v, want %v", c.name, rebuilt, c.want)
		}
		if tmps, _ := filepath.Glob(filepath.Join(c.dir, "*"+tmpSuffix)); len(tmps) != 0 {
			t.Fatalf("%s: temporary files left after Open: %v", c.name, tmps)
		}
	}
}

// copyDir copies a flat log directory, as a crash at this instant would
// leave it.
func copyDir(t *testing.T, src string) string {
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

// TestSegmentCountTracksDirectory checks the in-memory segment count
// against a directory listing through size rolls, compactions and
// reopens.
func TestSegmentCountTracksDirectory(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Fsync: FsyncNever, SegmentBytes: 128}
	l, _, err := Open(dir, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	check := func(when string) {
		t.Helper()
		if got, want := l.SegmentCount(), len(segmentFiles(t, dir)); got != want {
			t.Fatalf("%s: SegmentCount() = %d, directory holds %d", when, got, want)
		}
	}
	check("open")
	live := map[string]string{}
	for round := 0; round < 3; round++ {
		for i := 0; i < 12; i++ {
			k := fmt.Sprintf("r%d/k%02d", round, i)
			if err := l.Append(Record{Kind: KindSet, Tenant: "t", Key: k, Value: []byte("0123456789")}); err != nil {
				t.Fatal(err)
			}
			live[k] = "0123456789"
		}
		check(fmt.Sprintf("round %d rolls", round))
		compactLive(t, l, uint64(round), nil, live)
		check(fmt.Sprintf("round %d compaction", round))
		l.Close()
		if l, _, err = Open(dir, opts, nil); err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("round %d reopen", round))
	}
	l.Close()
}

func TestInjectedFailure(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{Fsync: FsyncNever}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.Append(Record{Kind: KindSet, Tenant: "t", Key: "pre", Value: []byte("1")}); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("disk on fire")
	l.InjectFailure(boom)
	if err := l.Append(Record{Kind: KindSet, Tenant: "t", Key: "k", Value: []byte("1")}); !errors.Is(err, boom) {
		t.Fatalf("Append under injection = %v, want injected error", err)
	}
	if err := l.Sync(); !errors.Is(err, boom) {
		t.Fatalf("Sync under injection = %v", err)
	}
	if _, err := l.BeginCompact(1, nil); !errors.Is(err, boom) {
		t.Fatalf("BeginCompact under injection = %v", err)
	}
	l.InjectFailure(nil)
	if err := l.Append(Record{Kind: KindSet, Tenant: "t", Key: "k", Value: []byte("1")}); err != nil {
		t.Fatalf("Append after clearing injection = %v", err)
	}
}

func TestAppendBounds(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{Fsync: FsyncNever, MaxValueBytes: 64}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.Append(Record{Kind: KindSet, Tenant: "t", Key: "k", Value: make([]byte, 65)}); !errors.Is(err, ErrRecordTooLarge) {
		t.Fatalf("oversized value Append = %v", err)
	}
	long := make([]byte, 70000)
	if err := l.Append(Record{Kind: KindSet, Tenant: "t", Key: string(long), Value: nil}); !errors.Is(err, ErrRecordTooLarge) {
		t.Fatalf("oversized key Append = %v", err)
	}
	if err := l.Append(Record{Kind: KindSet, Tenant: string(make([]byte, 300)), Key: "k"}); !errors.Is(err, ErrRecordTooLarge) {
		t.Fatalf("oversized tenant Append = %v", err)
	}
}

func TestReplaySkip(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{Fsync: FsyncNever}, nil)
	if err != nil {
		t.Fatal(err)
	}
	l.Append(Record{Kind: KindSet, Tenant: "gone", Key: "k", Value: []byte("1")})
	l.Append(Record{Kind: KindSet, Tenant: "kept", Key: "k", Value: []byte("2")})
	l.Close()
	var kept int
	_, stats, err := Open(dir, Options{}, func(r Record) error {
		if r.Tenant == "gone" {
			return SkipRecord
		}
		kept++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Records != 1 || stats.Skipped != 1 || kept != 1 {
		t.Fatalf("skip replay stats = %+v (kept %d)", stats, kept)
	}
}

func TestFsyncIntervalSurfacesAndUseAfterClose(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{Fsync: FsyncInterval, Interval: time.Millisecond}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(Record{Kind: KindSet, Tenant: "t", Key: "k", Value: []byte("v")}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond) // let the timer sync run at least once
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(Record{Kind: KindSet, Tenant: "t", Key: "k"}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Append after Close = %v", err)
	}
	if err := l.Close(); !errors.Is(err, ErrClosed) {
		t.Fatalf("second Close = %v", err)
	}
}

func TestParseFsyncPolicy(t *testing.T) {
	for s, want := range map[string]FsyncPolicy{"always": FsyncAlways, "interval": FsyncInterval, "never": FsyncNever} {
		got, err := ParseFsyncPolicy(s)
		if err != nil || got != want {
			t.Fatalf("ParseFsyncPolicy(%q) = %v, %v", s, got, err)
		}
		if got.String() != s {
			t.Fatalf("String() round-trip %q != %q", got.String(), s)
		}
	}
	if _, err := ParseFsyncPolicy("sometimes"); err == nil {
		t.Fatal("ParseFsyncPolicy accepted junk")
	}
}

// segImage builds an in-memory segment from records, for reader tests.
func segImage(t testing.TB, recs ...Record) []byte {
	var buf bytes.Buffer
	var hdr [segHeaderLen]byte
	copy(hdr[:4], segMagic)
	binary.LittleEndian.PutUint16(hdr[4:], segVersion)
	buf.Write(hdr[:])
	for _, r := range recs {
		b, err := marshal(nil, r)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(b)
	}
	return buf.Bytes()
}

func TestReadRecordsUnknownKind(t *testing.T) {
	img := segImage(t, Record{Kind: KindSet, Tenant: "t", Key: "k", Value: []byte("v")})
	bad, _ := marshal(nil, Record{Kind: KindDelete, Tenant: "t", Key: "k"})
	bad[0] = 99 // unknown kind; CRC now also mismatches, either way: invalid
	img = append(img, bad...)
	n, err := ReadRecords(bytes.NewReader(img), 1<<20, nil)
	if n != 1 || !errors.Is(err, ErrTruncated) {
		t.Fatalf("ReadRecords over unknown kind = %d, %v", n, err)
	}
}

func TestReadRecordsHugeLength(t *testing.T) {
	img := segImage(t)
	var hdr [headerLen]byte
	hdr[0] = byte(KindSet)
	binary.LittleEndian.PutUint32(hdr[4:], 0xFFFFFFF0) // absurd value length
	img = append(img, hdr[:]...)
	n, err := ReadRecords(bytes.NewReader(img), 1<<20, nil)
	if n != 0 || !errors.Is(err, ErrTruncated) {
		t.Fatalf("ReadRecords over huge length = %d, %v (must not allocate 4GiB)", n, err)
	}
}

// FuzzReplay feeds arbitrary bytes to the segment reader: it must never
// panic, and the valid-prefix contract must hold — re-serializing the
// records it reports and re-reading them must yield the same records.
func FuzzReplay(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("MCWL"))
	f.Add(segImage(f,
		Record{Kind: KindSet, Tenant: "alpha", Key: "user/1", Value: []byte("hello")},
		Record{Kind: KindDelete, Tenant: "alpha", Key: "user/1"},
		Record{Kind: KindEpoch, Epoch: 9, Value: []byte{1, 0, 1, 0}},
		Record{Kind: KindSnapshotBegin, Epoch: 9, Value: []byte{1}},
		Record{Kind: KindSnapshotEnd},
	))
	// Torn tail.
	whole := segImage(f, Record{Kind: KindSet, Tenant: "t", Key: "key", Value: []byte("value")})
	f.Add(whole[:len(whole)-3])
	// Unknown kind.
	bad := append([]byte(nil), whole...)
	bad[segHeaderLen] = 0xEE
	f.Add(bad)
	// Corrupt CRC.
	flip := append([]byte(nil), whole...)
	flip[len(flip)-1] ^= 0x80
	f.Add(flip)
	// Wrong version.
	ver := append([]byte(nil), whole...)
	ver[4] = 0xFF
	f.Add(ver)

	f.Fuzz(func(t *testing.T, data []byte) {
		var recs []Record
		n, err := ReadRecords(bytes.NewReader(data), 1<<16, func(r Record) error {
			recs = append(recs, r)
			return nil
		})
		if int64(len(recs)) != n {
			t.Fatalf("reported %d records, callback saw %d", n, len(recs))
		}
		if err == nil {
			// Clean read: the image must round-trip.
			img := segImage(t, recs...)
			if !bytes.Equal(img, data) {
				t.Fatalf("clean read did not round-trip: %d vs %d bytes", len(img), len(data))
			}
		}
		for _, r := range recs {
			if r.Kind < KindSet || r.Kind > KindSnapshotEnd {
				t.Fatalf("reader emitted invalid kind %d", r.Kind)
			}
			if len(r.Value) > 1<<16 {
				t.Fatalf("reader emitted value over bound: %d", len(r.Value))
			}
		}
	})
}
