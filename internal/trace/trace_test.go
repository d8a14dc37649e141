package trace

import (
	"bytes"
	"errors"
	"testing"

	"morphcache/internal/mem"
	"morphcache/internal/workload"
)

func TestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]mem.Access{
		{{Line: 1, ASID: 1}, {Line: 2, ASID: 1, Kind: mem.Write}, {Line: 3, ASID: 1}},
		{{Line: 100, ASID: 2}, {Line: 101, ASID: 2}},
	}
	for i := 0; i < 3; i++ {
		if err := w.Record(0, want[0][i]); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2; i++ {
		if err := w.Record(1, want[1][i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.EpochBoundary(); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if w.Records() != 6 {
		t.Fatalf("records %d", w.Records())
	}

	tr, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Cores != 2 || tr.Len(0) != 3 || tr.Len(1) != 2 || tr.Epochs() != 2 {
		t.Fatalf("trace shape: cores=%d len0=%d len1=%d epochs=%d", tr.Cores, tr.Len(0), tr.Len(1), tr.Epochs())
	}
	for c := range want {
		cur, err := tr.Cursor(c)
		if err != nil {
			t.Fatal(err)
		}
		cur.BeginEpoch(0)
		for i, exp := range want[c] {
			if got := cur.Next(); got != exp {
				t.Fatalf("core %d ref %d: %+v != %+v", c, i, got, exp)
			}
		}
	}
}

func TestCursorWraps(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, 1)
	w.Record(0, mem.Access{Line: 7, ASID: 1})
	w.Record(0, mem.Access{Line: 8, ASID: 1})
	w.Flush()
	tr, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	cur, _ := tr.Cursor(0)
	seq := []mem.Line{7, 8, 7, 8, 7}
	for i, want := range seq {
		if got := cur.Next().Line; got != want {
			t.Fatalf("ref %d: %d != %d", i, got, want)
		}
	}
	// Epochs beyond the recording wrap too.
	cur.BeginEpoch(5)
	if cur.Next().Line != 7 {
		t.Fatal("epoch wrap")
	}
}

func TestHeaderValidation(t *testing.T) {
	if _, err := Read(bytes.NewReader([]byte("BAD!"))); err == nil {
		t.Fatal("bad magic accepted")
	}
	if _, err := Read(bytes.NewReader([]byte("MCTR\x01\x00"))); err == nil {
		t.Fatal("short header accepted")
	}
	if _, err := NewWriter(&bytes.Buffer{}, 0); err == nil {
		t.Fatal("zero cores accepted")
	}
	if _, err := NewWriter(&bytes.Buffer{}, 300); err == nil {
		t.Fatal("too many cores accepted")
	}
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, 2)
	if err := w.Record(5, mem.Access{}); err == nil {
		t.Fatal("out-of-range core accepted")
	}
}

// validTrace builds a two-core trace with two epochs (five records total,
// epoch marker included) for the corruption tests.
func validTrace(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf, 2)
	if err != nil {
		t.Fatal(err)
	}
	w.Record(0, mem.Access{Line: 1, ASID: 1})
	w.Record(1, mem.Access{Line: 2, ASID: 2, Kind: mem.Write})
	w.EpochBoundary()
	w.Record(0, mem.Access{Line: 3, ASID: 1})
	w.Record(1, mem.Access{Line: 4, ASID: 2})
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestTruncationDetection(t *testing.T) {
	data := validTrace(t)
	const header = 8
	// Every cut inside the record region that is NOT on a record boundary
	// must be flagged as mid-record truncation; every cut ON a boundary is a
	// clean (shorter) trace.
	for cut := header; cut < len(data); cut++ {
		_, err := Read(bytes.NewReader(data[:cut]))
		if (cut-header)%recordLen == 0 {
			if err != nil {
				t.Fatalf("cut at boundary %d rejected: %v", cut, err)
			}
			continue
		}
		if !errors.Is(err, ErrTruncated) {
			t.Fatalf("mid-record cut at %d: got %v, want ErrTruncated", cut, err)
		}
	}
	// Cuts inside the header are header errors, not record truncation.
	for cut := 1; cut < header; cut++ {
		_, err := Read(bytes.NewReader(data[:cut]))
		if err == nil || errors.Is(err, ErrTruncated) {
			t.Fatalf("header cut at %d: got %v, want non-truncation error", cut, err)
		}
	}
	if _, err := Read(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty input accepted")
	}
}

func TestCorruptRecords(t *testing.T) {
	const header = 8
	cases := []struct {
		name    string
		corrupt func([]byte)
	}{
		{"unknown access kind", func(d []byte) { d[header+1] = 9 }},
		{"epoch marker with kind payload", func(d []byte) { d[header+2*recordLen+1] = 1 }},
		{"epoch marker with line payload", func(d []byte) { d[header+2*recordLen+7] = 0xAB }},
		{"record for out-of-range core", func(d []byte) { d[header] = 5 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			data := append([]byte(nil), validTrace(t)...)
			tc.corrupt(data)
			if _, err := Read(bytes.NewReader(data)); err == nil {
				t.Fatal("corrupt trace accepted")
			}
		})
	}
}

// FuzzRead asserts the reader never panics and never hands corrupt bytes to
// a replay cursor: any trace it accepts must satisfy the cursor contract.
func FuzzRead(f *testing.F) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, 2)
	w.Record(0, mem.Access{Line: 1, ASID: 1})
	w.EpochBoundary()
	w.Record(1, mem.Access{Line: 2, ASID: 2, Kind: mem.Write})
	w.Flush()
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)-5])           // mid-record cut
	f.Add(valid[:8])                      // header only
	f.Add([]byte("MCTR"))                 // short header
	f.Add([]byte("XXXX\x01\x00\x02\x00")) // bad magic
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		if tr.Cores <= 0 || tr.Cores >= 0xFF {
			t.Fatalf("accepted trace with core count %d", tr.Cores)
		}
		if tr.Epochs() < 1 {
			t.Fatalf("accepted trace with %d epochs", tr.Epochs())
		}
		for c := 0; c < tr.Cores; c++ {
			cur, err := tr.Cursor(c)
			if err != nil {
				continue // cores without records have no cursor
			}
			cur.BeginEpoch(0)
			cur.BeginEpoch(tr.Epochs() + 3) // wraps, must not panic
			for i := 0; i < 4; i++ {
				if a := cur.Next(); a.Kind > mem.Write {
					t.Fatalf("replayed unknown kind %d", a.Kind)
				}
			}
		}
	})
}

func TestRecordGeneratorOutput(t *testing.T) {
	// Capture a synthetic generator's stream and verify the replay is
	// identical — the record/replay path does not disturb determinism.
	prof, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	gen := workload.NewGenerator(prof, workload.ScaledGenConfig(16), 1, 0, 9)
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, 1)
	var recorded []mem.Access
	for e := 0; e < 2; e++ {
		gen.BeginEpoch(e)
		for i := 0; i < 1000; i++ {
			a := gen.Next()
			recorded = append(recorded, a)
			if err := w.Record(0, a); err != nil {
				t.Fatal(err)
			}
		}
		w.EpochBoundary()
	}
	w.Flush()
	tr, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	cur, _ := tr.Cursor(0)
	for e := 0; e < 2; e++ {
		cur.BeginEpoch(e)
		for i := 0; i < 1000; i++ {
			if got := cur.Next(); got != recorded[e*1000+i] {
				t.Fatalf("replay diverged at epoch %d ref %d", e, i)
			}
		}
	}
	if cur.ASID() != 1 {
		t.Fatal("cursor ASID")
	}
}

func TestEpochLen(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, 1)
	w.Record(0, mem.Access{Line: 1, ASID: 1})
	w.Record(0, mem.Access{Line: 2, ASID: 1})
	w.EpochBoundary()
	w.Record(0, mem.Access{Line: 3, ASID: 1})
	w.Flush()
	tr, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if tr.EpochLen(0, 0) != 2 || tr.EpochLen(0, 1) != 1 {
		t.Fatalf("epoch lengths %d/%d, want 2/1", tr.EpochLen(0, 0), tr.EpochLen(0, 1))
	}
	if tr.EpochLen(0, 5) != 0 || tr.EpochLen(0, -1) != 0 {
		t.Fatal("out-of-range epochs should be empty")
	}
}

// TestRecordingRoundTrip records two epochs of a replay through Recording
// and checks that the new trace replays the same streams, with one
// boundary per epoch.
func TestRecordingRoundTrip(t *testing.T) {
	prof, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, 2)
	srcs := []Source{
		w.Recording(0, workload.NewGenerator(prof, workload.ScaledGenConfig(16), 1, 0, 9)),
		w.Recording(1, workload.NewGenerator(prof, workload.ScaledGenConfig(16), 2, 1, 9)),
	}
	var recorded [2][]mem.Access
	for e := 0; e < 2; e++ {
		for c, s := range srcs {
			s.BeginEpoch(e)
			for i := 0; i < 100; i++ {
				recorded[c] = append(recorded[c], s.Next())
			}
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	tr, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Epochs() != 2 || tr.Len(0) != 200 || tr.Len(1) != 200 {
		t.Fatalf("trace shape: epochs=%d len0=%d len1=%d", tr.Epochs(), tr.Len(0), tr.Len(1))
	}
	for c := range recorded {
		cur, _ := tr.Cursor(c)
		if cur.ASID() != srcs[c].ASID() {
			t.Fatalf("core %d: ASID %d, recorded %d", c, cur.ASID(), srcs[c].ASID())
		}
		for i, want := range recorded[c] {
			if got := cur.Next(); got != want {
				t.Fatalf("core %d ref %d: %+v != %+v", c, i, got, want)
			}
		}
	}
}

// failingWriter accepts the header and fails every later write.
type failingWriter struct{ n int }

var errDiskFull = errors.New("disk full")

func (f *failingWriter) Write(p []byte) (int, error) {
	if f.n++; f.n > 1 {
		return 0, errDiskFull
	}
	return len(p), nil
}

// TestRecordingKeepsFirstError checks that a write error does not stop
// the recorded stream and surfaces from Flush.
func TestRecordingKeepsFirstError(t *testing.T) {
	prof, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWriter(&failingWriter{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	gen := workload.NewGenerator(prof, workload.ScaledGenConfig(16), 1, 0, 9)
	ref := workload.NewGenerator(prof, workload.ScaledGenConfig(16), 1, 0, 9)
	src := w.Recording(0, gen)
	for e := 0; e < 2; e++ {
		src.BeginEpoch(e)
		ref.BeginEpoch(e)
		// Enough references to overflow the write buffer.
		for i := 0; i < 1000; i++ {
			if got, want := src.Next(), ref.Next(); got != want {
				t.Fatalf("recording changed the stream at epoch %d ref %d", e, i)
			}
		}
	}
	if err := w.Flush(); !errors.Is(err, errDiskFull) {
		t.Fatalf("Flush = %v, want %v", err, errDiskFull)
	}
}
